package cpu

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"sttdl1/internal/cache"
	"sttdl1/internal/core"
	"sttdl1/internal/isa"
	"sttdl1/internal/mem"
)

// kernelProg is a loop, run reps times over, that exercises every
// record class the replay kernel times: scalar and vector loads and
// stores, prefetches, the unpipelined divider, a data-dependent
// conditional branch the 2-bit predictor partly mispredicts, and a
// BL/JR round trip. One rep retires about 2,750 records.
func kernelProg(reps int32) *isa.Program {
	return &isa.Program{DataSize: 8192, Insts: []isa.Inst{
		{Op: isa.OpMOVI, Rd: 5, Imm: 0},
		{Op: isa.OpMOVI, Rd: 8, Imm: reps},
		{Op: isa.OpMOVI, Rd: 1, Imm: 0}, // 2: rep top
		{Op: isa.OpMOVI, Rd: 2, Imm: 1024},
		{Op: isa.OpLDR, Rd: 3, Ra: 1, Imm: 0}, // 4: loop top
		{Op: isa.OpADD, Rd: 5, Ra: 5, Rb: 3},
		{Op: isa.OpPLD, Ra: 1, Imm: 256},
		{Op: isa.OpVLDR, Rd: 2, Ra: 1, Imm: 1024},
		{Op: isa.OpVSTR, Rd: 2, Ra: 1, Imm: 4096},
		{Op: isa.OpSTR, Rd: 5, Ra: 1, Imm: 2048},
		{Op: isa.OpANDI, Rd: 7, Ra: 1, Imm: 12},
		{Op: isa.OpBEQ, Ra: 7, Rb: isa.ZR, Imm: 1}, // skip the divide
		{Op: isa.OpDIV, Rd: 9, Ra: 5, Rb: 2},
		{Op: isa.OpADDI, Rd: 1, Ra: 1, Imm: 4},
		{Op: isa.OpBNE, Ra: 1, Rb: 2, Imm: -11}, // back to 4
		{Op: isa.OpADDI, Rd: 8, Ra: 8, Imm: -1},
		{Op: isa.OpBNE, Ra: 8, Rb: isa.ZR, Imm: -15}, // back to 2
		{Op: isa.OpBL, Imm: 1},                       // call 19
		{Op: isa.OpHALT},                             // 18
		{Op: isa.OpMOVI, Rd: 6, Imm: 7},              // 19: callee
		{Op: isa.OpJR, Ra: isa.LR},                   // return to 18
	}}
}

// thrashProg loops k times over three blocks whose first instructions,
// at PCs 1, 128 and 256, lie 1 KiB apart: in newKernelSystem's 2-way,
// 8-set IL1 their lines share one set, so each pass evicts a line the
// pass fetched from a moment before. The blocks at 1 and 128 hold a
// single B each, the block at 256 the loop's ADDI and BNE.
func thrashProg(k int32) *isa.Program {
	insts := make([]isa.Inst, 259)
	for i := range insts {
		insts[i] = isa.Inst{Op: isa.OpNOP}
	}
	insts[0] = isa.Inst{Op: isa.OpMOVI, Rd: 1, Imm: k}
	insts[1] = isa.Inst{Op: isa.OpB, Imm: 126}   // to 128
	insts[128] = isa.Inst{Op: isa.OpB, Imm: 127} // to 256
	insts[256] = isa.Inst{Op: isa.OpADDI, Rd: 1, Ra: 1, Imm: -1}
	insts[257] = isa.Inst{Op: isa.OpBNE, Ra: 1, Rb: isa.ZR, Imm: -257} // back to 1
	insts[258] = isa.Inst{Op: isa.OpHALT}
	return &isa.Program{DataSize: 64, Insts: insts}
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

// diffCache names the first piece of cache state, beyond Stats, that
// differs between got and want: the LRU clock, the bank-conflict and
// hit-under-fill counters, the bank clocks, and every line of every set
// with its LRU stamp. It returns "" when they all agree.
func diffCache(got, want *cache.Cache) string {
	if g, w := got.UseClock(), want.UseClock(); g != w {
		return fmt.Sprintf("use clock %d, want %d", g, w)
	}
	if g, w := got.BankConflictCycles, want.BankConflictCycles; g != w {
		return fmt.Sprintf("bank-conflict cycles %d, want %d", g, w)
	}
	if g, w := got.HitUnderFillCycles, want.HitUnderFillCycles; g != w {
		return fmt.Sprintf("hit-under-fill cycles %d, want %d", g, w)
	}
	if g, w := got.BusyClocks(), want.BusyClocks(); !slices.Equal(g, w) {
		return fmt.Sprintf("bank clocks %v, want %v", g, w)
	}
	cfg := want.Config()
	for set := range cfg.Sets() {
		if g, w := got.SetView(set), want.SetView(set); !slices.Equal(g, w) {
			return fmt.Sprintf("set %d %+v, want %+v", set, g, w)
		}
	}
	return ""
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
// wrapped, and under several branch-predictor table sizes (1 aliases
// every branch onto one counter; 0 and the non-power-of-two 3 fall back
// to the default 512), against live execution: every Result counter, the traffic each cache saw and the
// front end's own stats must be identical, and so must the IL1's
// state beyond its stats (diffCache). For Direct, the front end's stats
// are its per-access class counts. The trace spans three chunks, so the
// kernel's state crosses two chunk boundaries; a second replay is cut by
// Interrupt probes every 777 records, so the predictor's counters also
// cross range boundaries. The thrashing-IL1 case runs thrashProg, whose
// fetch misses evict the line the replay loop holds open.
func TestReplayMatchesLive(t *testing.T) {
	kernel, thrash := kernelProg(50), thrashProg(100)
	cases := []struct {
		name            string
		wrapIL1, direct bool
		prog            *isa.Program
	}{
		{"direct", false, true, kernel},
		{"buffered", false, false, kernel},
		{"direct-wrapped-il1", true, true, kernel},
		{"buffered-wrapped-il1", true, false, kernel},
		{"thrashing-il1", false, true, thrash},
	}
	probed := &ReplayCtl{Interrupt: func() error { return nil }, InterruptEvery: 777}
	for _, tc := range cases {
		prog := tc.prog
		tr, err := Capture(prog, NewState(prog), 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(tc.name, func(t *testing.T) {
			for _, entries := range []int{0, 1, 2, 3, 64, 4096} {
				cfg := DefaultConfig()
				cfg.BpredEntries = entries
				t.Run("bpred="+strconv.Itoa(entries), func(t *testing.T) {
					live := newKernelSystem(tc.wrapIL1, tc.direct)
					want, err := (&CPU{Cfg: cfg, IMem: live.imem, DMem: live.fe}).Run(prog)
					if err != nil {
						t.Fatal(err)
					}
					if prog == thrash {
						if live.il1.Evictions < 100 {
							t.Errorf("IL1 evicted %d lines, want one or more per pass", live.il1.Evictions)
						}
					} else if want.Mispredicts == 0 || want.Loads == 0 || want.Stores == 0 || want.Prefetches == 0 {
						t.Errorf("program does not exercise every record class: %+v", timingOf(want))
					}
					for _, ctl := range []*ReplayCtl{nil, probed} {
						rep := newKernelSystem(tc.wrapIL1, tc.direct)
						got, _, err := (&CPU{Cfg: cfg, IMem: rep.imem, DMem: rep.fe}).ReplayTraceCtl(tr, ctl)
						if err != nil {
							t.Fatal(err)
						}
						pass := "whole"
						if ctl != nil {
							pass = "probed"
						}
						if timingOf(got) != timingOf(want) {
							t.Errorf("%s replay %+v\nlive   %+v", pass, timingOf(got), timingOf(want))
						}
						if g, w := rep.il1.Stats(), live.il1.Stats(); g != w {
							t.Errorf("IL1 stats: %s replay %+v, live %+v", pass, g, w)
						}
						if d := diffCache(rep.il1, live.il1); d != "" {
							t.Errorf("IL1 after %s replay: %s", pass, d)
						}
						if g, w := rep.dl1.Stats(), live.dl1.Stats(); g != w {
							t.Errorf("DL1 stats: %s replay %+v, live %+v", pass, g, w)
						}
						if g, w := rep.fe.Stats(), live.fe.Stats(); g != w {
							t.Errorf("%s front-end stats: %s replay %+v, live %+v", rep.fe.Name(), pass, g, w)
						}
					}
				})
			}
		})
	}
}

// TestReplayWrappedIL1SeesEveryFetch pins the wrapped-IL1 branch: with
// no bare IL1 to hold a line open, the instruction port is called once
// per retired record, at the same cycles as in a live run.
func TestReplayWrappedIL1SeesEveryFetch(t *testing.T) {
	prog := kernelProg(1)
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
			_, err = c.ReplayTrace(tr)
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
// the same budget Fault and counters as live execution. The budgets
// straddle the first chunk boundary, so the cut falls on the last
// record of a chunk, on a boundary and on the first record of the next.
// Each budget also replays under probes that never fire, whose ranges
// must cut the pass at the same record with the same result and fault.
func TestReplayBudgetFault(t *testing.T) {
	prog := kernelProg(50)
	tr, err := Capture(prog, NewState(prog), 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() <= 2*chunkRecs {
		t.Fatalf("trace has %d records, want more than two chunks", tr.Len())
	}
	for _, budget := range []uint64{chunkRecs - 1, chunkRecs, chunkRecs + 1} {
		cfg := DefaultConfig()
		cfg.MaxInsts = budget
		c := &CPU{Cfg: cfg, IMem: fastMem{1}, DMem: fastMem{1}}
		t.Run(strconv.FormatUint(budget, 10), func(t *testing.T) {
			res, err := c.ReplayTrace(tr)
			if err == nil || !strings.Contains(err.Error(), "budget") {
				t.Fatalf("replay err = %v, want a budget fault", err)
			}
			if res == nil || res.Insts != budget {
				t.Fatalf("partial result = %+v, want %d insts", res, budget)
			}
			ctl := &ReplayCtl{
				CheckEvery:     1000,
				Abort:          func(int64) bool { return false },
				Interrupt:      func() error { return nil },
				InterruptEvery: 777,
			}
			probed, aborted, probedErr := c.ReplayTraceCtl(tr, ctl)
			if aborted || probedErr == nil || probedErr.Error() != err.Error() || timingOf(probed) != timingOf(res) {
				t.Errorf("probed %+v, aborted %t, %v\nwhole  %+v, %v", timingOf(probed), aborted, probedErr, timingOf(res), err)
			}
			live, liveErr := c.Run(prog)
			if liveErr == nil || liveErr.Error() != err.Error() {
				t.Errorf("live err = %v, replay err = %v", liveErr, err)
			}
			want := tr.count(int(budget))
			if res.Loads != want.loads || res.Stores != want.stores || res.Branches != want.branches {
				t.Errorf("partial counters %+v, want those of the %d-record prefix", timingOf(res), budget)
			}
			if live.Insts != res.Insts || live.Loads != res.Loads || live.Stores != res.Stores {
				t.Errorf("partial counters: replay %+v, live %+v", timingOf(res), timingOf(live))
			}
		})
	}
}

// TestReplayCtlProbesAcrossChunks runs a multi-chunk trace under probes
// that never fire, at intervals that put a probe point next to each
// trace chunk boundary: the pass must equal its probe-free replay
// counter for counter, cache statistic for cache statistic, behind a
// buffered and behind a Direct data port.
func TestReplayCtlProbesAcrossChunks(t *testing.T) {
	prog := kernelProg(50)
	tr, err := Capture(prog, NewState(prog), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, direct := range []bool{false, true} {
		t.Run("direct="+strconv.FormatBool(direct), func(t *testing.T) {
			probed := newKernelSystem(false, direct)
			probes := 0
			ctl := &ReplayCtl{
				CheckEvery:     chunkRecs - 1,
				Abort:          func(int64) bool { probes++; return false },
				Interrupt:      func() error { return nil },
				InterruptEvery: chunkRecs + 1,
			}
			got, aborted, err := (&CPU{Cfg: DefaultConfig(), IMem: probed.imem, DMem: probed.fe}).ReplayTraceCtl(tr, ctl)
			if err != nil || aborted {
				t.Fatalf("probed pass: aborted %t, err %v", aborted, err)
			}
			if probes != tr.Len()/(chunkRecs-1) {
				t.Errorf("Abort probed %d times, want %d", probes, tr.Len()/(chunkRecs-1))
			}
			whole := newKernelSystem(false, direct)
			want, err := (&CPU{Cfg: DefaultConfig(), IMem: whole.imem, DMem: whole.fe}).ReplayTrace(tr)
			if err != nil {
				t.Fatal(err)
			}
			if timingOf(got) != timingOf(want) {
				t.Errorf("probed %+v\nwhole  %+v", timingOf(got), timingOf(want))
			}
			if g, w := probed.il1.Stats(), whole.il1.Stats(); g != w {
				t.Errorf("IL1 stats: probed %+v, whole %+v", g, w)
			}
			if g, w := probed.dl1.Stats(), whole.dl1.Stats(); g != w {
				t.Errorf("DL1 stats: probed %+v, whole %+v", g, w)
			}
		})
	}
}

// countdownProg is a two-instruction loop run k times over; it retires
// exactly 2k+2 records, so a test can land a trace's end on a chunk
// boundary.
func countdownProg(k int32) *isa.Program {
	return &isa.Program{DataSize: 64, Insts: []isa.Inst{
		{Op: isa.OpMOVI, Rd: 1, Imm: k},
		{Op: isa.OpADDI, Rd: 1, Ra: 1, Imm: -1}, // 1: loop top
		{Op: isa.OpBNE, Ra: 1, Rb: isa.ZR, Imm: -2},
		{Op: isa.OpHALT},
	}}
}

// TestCaptureChunkLayout checks the storage Capture fills against the
// record stream of a fresh functional run: the trace uses exactly
// ceil(Len/chunkRecs) chunks, every chunk but the last is full, each
// record's PC, address and taken bit sit where Chunk says,
// and the last chunk's taken bitset is clear past the final record (so
// the chunks' bitsets concatenate into the whole trace's). The lengths
// cover a partial single chunk, a last chunk that ends exactly on a
// boundary, and a partial third chunk.
func TestCaptureChunkLayout(t *testing.T) {
	cases := []struct {
		name string
		prog *isa.Program
		n    int // records the program retires (0 = not checked)
	}{
		{"partial-chunk", kernelProg(1), 0},
		{"one-full-chunk", countdownProg(chunkRecs/2 - 1), chunkRecs},
		{"two-full-chunks", countdownProg(chunkRecs - 1), 2 * chunkRecs},
		{"partial-third-chunk", kernelProg(50), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := Capture(tc.prog, NewState(tc.prog), 0)
			if err != nil {
				t.Fatal(err)
			}
			var pcs []int32
			var addrs []uint32
			var taken []bool
			st := NewState(tc.prog)
			for !st.Halted {
				pc := st.PC
				info, err := st.Step(tc.prog)
				if err != nil {
					t.Fatal(err)
				}
				pcs = append(pcs, int32(pc))
				addrs = append(addrs, info.Addr)
				taken = append(taken, info.Taken)
			}
			n := len(pcs)
			if tc.n != 0 && n != tc.n {
				t.Fatalf("program retired %d records, want %d", n, tc.n)
			}
			if tr.Len() != n {
				t.Fatalf("Len = %d, want %d", tr.Len(), n)
			}
			if want := (n + chunkRecs - 1) / chunkRecs; tr.Chunks() != want {
				t.Fatalf("Chunks = %d, want %d", tr.Chunks(), want)
			}
			for k := range tr.Chunks() {
				cpcs, caddrs, ctaken := tr.Chunk(k)
				lo := k * chunkRecs
				m := min(n-lo, chunkRecs)
				if len(cpcs) != m || len(caddrs) != m || len(ctaken) != (m+63)/64 {
					t.Fatalf("chunk %d holds %d PCs, %d addresses, %d taken words; want %d, %d, %d",
						k, len(cpcs), len(caddrs), len(ctaken), m, m, (m+63)/64)
				}
				for j := range m {
					i := lo + j
					if cpcs[j] != pcs[i] || caddrs[j] != addrs[i] {
						t.Fatalf("record %d: pc %d addr %#x, want pc %d addr %#x", i, cpcs[j], caddrs[j], pcs[i], addrs[i])
					}
					if bit := ctaken[j>>6]&(1<<uint(j&63)) != 0; bit != taken[i] {
						t.Fatalf("record %d: taken bit %t, want %t", i, bit, taken[i])
					}
				}
				if r := m & 63; r != 0 && ctaken[len(ctaken)-1]>>uint(r) != 0 {
					t.Errorf("chunk %d: taken bits set past its last record", k)
				}
			}
		})
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
