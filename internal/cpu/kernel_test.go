package cpu

import (
	"strings"
	"testing"

	"sttdl1/internal/cache"
	"sttdl1/internal/core"
	"sttdl1/internal/isa"
	"sttdl1/internal/mem"
)

// kernelProg is a loop that exercises every record class the replay
// kernel times: scalar and vector loads and stores, prefetches, the
// unpipelined divider, a data-dependent conditional branch the 2-bit
// predictor partly mispredicts, and a BL/JR round trip.
func kernelProg() *isa.Program {
	return &isa.Program{DataSize: 8192, Insts: []isa.Inst{
		{Op: isa.OpMOVI, Rd: 1, Imm: 0},
		{Op: isa.OpMOVI, Rd: 2, Imm: 1024},
		{Op: isa.OpMOVI, Rd: 5, Imm: 0},
		{Op: isa.OpLDR, Rd: 3, Ra: 1, Imm: 0}, // 3: loop top
		{Op: isa.OpADD, Rd: 5, Ra: 5, Rb: 3},
		{Op: isa.OpPLD, Ra: 1, Imm: 256},
		{Op: isa.OpVLDR, Rd: 2, Ra: 1, Imm: 1024},
		{Op: isa.OpVSTR, Rd: 2, Ra: 1, Imm: 4096},
		{Op: isa.OpSTR, Rd: 5, Ra: 1, Imm: 2048},
		{Op: isa.OpANDI, Rd: 7, Ra: 1, Imm: 12},
		{Op: isa.OpBEQ, Ra: 7, Rb: isa.ZR, Imm: 1}, // skip the divide
		{Op: isa.OpDIV, Rd: 9, Ra: 5, Rb: 2},
		{Op: isa.OpADDI, Rd: 1, Ra: 1, Imm: 4},
		{Op: isa.OpBNE, Ra: 1, Rb: 2, Imm: -11}, // back to 3
		{Op: isa.OpBL, Imm: 1},                  // call 16
		{Op: isa.OpHALT},                        // 15
		{Op: isa.OpMOVI, Rd: 6, Imm: 7},         // 16: callee
		{Op: isa.OpJR, Ra: isa.LR},              // return to 15
	}}
}

// wrapped hides a port's concrete type, the way a front-end or the
// timing oracle does, so the kernel must call it through mem.Port.
type wrapped struct{ mem.Port }

// kernelSystem is one fresh memory system: small IL1 and DL1 caches
// over fixed-latency next levels, the DL1 behind a Direct or a VWB
// front end and the IL1 bare or wrapped.
type kernelSystem struct {
	il1, dl1 *cache.Cache
	fe       core.FrontEnd
	imem     mem.Port
}

func newKernelSystem(wrapIL1, direct bool) *kernelSystem {
	cfg := cache.Config{
		Size: 1024, Assoc: 2, LineSize: 64, Banks: 2,
		ReadLat: 3, WriteLat: 5, MSHRs: 2, WriteBufDepth: 2,
	}
	s := &kernelSystem{
		il1: cache.New(cfg, &mem.FixedPort{Latency: 20}),
		dl1: cache.New(cfg, &mem.FixedPort{Latency: 20}),
	}
	s.imem = s.il1
	if wrapIL1 {
		s.imem = wrapped{s.il1}
	}
	if direct {
		s.fe = core.NewDirect(s.dl1)
	} else {
		s.fe = core.NewVWB(core.DefaultVWBConfig(), s.dl1)
	}
	return s
}

// timingOf drops the architectural state so two Results compare on
// their timing and retirement counters alone.
func timingOf(r *Result) Result {
	t := *r
	t.State = nil
	return t
}

// TestReplayMatchesLive checks replay on both kinds of data port — a
// Direct front end and a buffered (VWB) one — with the IL1 bare and
// wrapped, against live execution: every Result counter, the traffic
// each cache saw and the front end's own stats must be identical. For
// Direct, those stats are its per-access class counts.
func TestReplayMatchesLive(t *testing.T) {
	prog := kernelProg()
	tr, err := Capture(prog, NewState(prog), 0)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name            string
		wrapIL1, direct bool
	}{
		{"direct", false, true},
		{"buffered", false, false},
		{"direct-wrapped-il1", true, true},
		{"buffered-wrapped-il1", true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live := newKernelSystem(tc.wrapIL1, tc.direct)
			want, err := (&CPU{Cfg: DefaultConfig(), IMem: live.imem, DMem: live.fe}).Run(prog)
			if err != nil {
				t.Fatal(err)
			}
			rep := newKernelSystem(tc.wrapIL1, tc.direct)
			got, err := (&CPU{Cfg: DefaultConfig(), IMem: rep.imem, DMem: rep.fe}).ReplayTrace(prog, tr)
			if err != nil {
				t.Fatal(err)
			}
			if timingOf(got) != timingOf(want) {
				t.Errorf("replay %+v\nlive   %+v", timingOf(got), timingOf(want))
			}
			if want.Mispredicts == 0 || want.Loads == 0 || want.Stores == 0 || want.Prefetches == 0 {
				t.Errorf("program does not exercise every record class: %+v", timingOf(want))
			}
			if g, w := rep.il1.Stats(), live.il1.Stats(); g != w {
				t.Errorf("IL1 stats: replay %+v, live %+v", g, w)
			}
			if g, w := rep.dl1.Stats(), live.dl1.Stats(); g != w {
				t.Errorf("DL1 stats: replay %+v, live %+v", g, w)
			}
			if g, w := rep.fe.Stats(), live.fe.Stats(); g != w {
				t.Errorf("%s front-end stats: replay %+v, live %+v", rep.fe.Name(), g, w)
			}
		})
	}
}

// TestReplayWrappedIL1SeesEveryFetch pins the wrapped-IL1 branch: with
// the fetch stream closed, the instruction port is called once per
// retired record, at the same cycles as in a live run.
func TestReplayWrappedIL1SeesEveryFetch(t *testing.T) {
	prog := kernelProg()
	tr, err := Capture(prog, NewState(prog), 0)
	if err != nil {
		t.Fatal(err)
	}
	fetchTimes := func(replay bool) []int64 {
		var at []int64
		imem := portFunc(func(now int64, req mem.Req) int64 {
			if req.Kind != mem.Fetch {
				t.Errorf("IMem got kind %v", req.Kind)
			}
			at = append(at, now)
			return now + 2
		})
		c := &CPU{Cfg: DefaultConfig(), IMem: imem, DMem: fastMem{3}}
		if replay {
			_, err = c.ReplayTrace(prog, tr)
		} else {
			_, err = c.Run(prog)
		}
		if err != nil {
			t.Fatal(err)
		}
		return at
	}
	live, rep := fetchTimes(false), fetchTimes(true)
	if len(rep) != tr.Len() {
		t.Fatalf("replay fetched %d times for %d records", len(rep), tr.Len())
	}
	if len(live) != len(rep) {
		t.Fatalf("fetches: replay %d, live %d", len(rep), len(live))
	}
	for i := range live {
		if rep[i] != live[i] {
			t.Fatalf("fetch %d at cycle %d in replay, %d live", i, rep[i], live[i])
		}
	}
}

// TestReplayBudgetFault checks the budgeted partial result: a trace
// longer than MaxInsts replays its first MaxInsts records and reports
// the same budget Fault as live execution.
func TestReplayBudgetFault(t *testing.T) {
	prog := kernelProg()
	tr, err := Capture(prog, NewState(prog), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxInsts = uint64(tr.Len() / 2)
	c := &CPU{Cfg: cfg, IMem: fastMem{1}, DMem: fastMem{1}}
	res, err := c.ReplayTrace(prog, tr)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("replay err = %v, want a budget fault", err)
	}
	if res == nil || res.Insts != cfg.MaxInsts {
		t.Fatalf("partial result = %+v, want %d insts", res, cfg.MaxInsts)
	}
	live, liveErr := c.Run(prog)
	if liveErr == nil || liveErr.Error() != err.Error() {
		t.Errorf("live err = %v, replay err = %v", liveErr, err)
	}
	want := countTrace(tr.PCs[:cfg.MaxInsts], tr.dec)
	if res.Loads != want.loads || res.Stores != want.stores || res.Branches != want.branches {
		t.Errorf("partial counters %+v, want those of the %d-record prefix", timingOf(res), cfg.MaxInsts)
	}
	if live.Insts != res.Insts || live.Loads != res.Loads || live.Stores != res.Stores {
		t.Errorf("partial counters: replay %+v, live %+v", timingOf(res), timingOf(live))
	}
}

// TestConfigWithDefaults pins the one place every timing pass resolves
// its Config: unusable zero fields take DefaultConfig's values and
// every explicit field is kept.
func TestConfigWithDefaults(t *testing.T) {
	d := DefaultConfig()
	got := Config{}.withDefaults()
	if got.IssueWidth != d.IssueWidth || got.StoreBufDepth != d.StoreBufDepth ||
		got.LoadQueueDepth != d.LoadQueueDepth || got.MaxInsts != d.MaxInsts {
		t.Errorf("zero config resolved to %+v, want DefaultConfig's width, depths and budget", got)
	}
	set := Config{IssueWidth: 1, MispredictPenalty: 3, StoreBufDepth: 8, LoadQueueDepth: 1,
		BpredEntries: 64, MaxInsts: 10, CodeBase: 0x1000}
	if r := set.withDefaults(); r != set {
		t.Errorf("explicit config changed: %+v -> %+v", set, r)
	}
}
