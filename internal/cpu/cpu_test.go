package cpu

import (
	"strings"
	"testing"

	"sttdl1/internal/isa"
	"sttdl1/internal/mem"
)

// fastMem is a 1-cycle ideal memory for isolating core timing.
type fastMem struct{ lat int64 }

func (f fastMem) Access(now int64, req mem.Req) int64 { return now + f.lat }

// slowLoads serves reads slowly and everything else fast.
type slowLoads struct{ readLat int64 }

func (s slowLoads) Access(now int64, req mem.Req) int64 {
	if req.Kind == mem.Read {
		return now + s.readLat
	}
	return now + 1
}

func newCPU(dmem mem.Port) *CPU {
	return &CPU{Cfg: DefaultConfig(), IMem: fastMem{1}, DMem: dmem}
}

func timed(t *testing.T, c *CPU, insts ...isa.Inst) *Result {
	t.Helper()
	prog := &isa.Program{Insts: append(insts, isa.Inst{Op: isa.OpHALT}), DataSize: 4096}
	res, err := c.Run(prog)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return res
}

func TestDualIssueThroughput(t *testing.T) {
	// 40 independent single-cycle instructions on a 2-wide core finish
	// in roughly 20 cycles plus pipeline overhead.
	var insts []isa.Inst
	for i := 0; i < 40; i++ {
		insts = append(insts, isa.Inst{Op: isa.OpMOVI, Rd: isa.Reg(i % 16), Imm: int32(i)})
	}
	res := timed(t, newCPU(fastMem{1}), insts...)
	if res.Cycles < 20 || res.Cycles > 30 {
		t.Errorf("cycles = %d, want ~20-30 for 40 independent insts at width 2", res.Cycles)
	}
	if res.IPC() < 1.3 {
		t.Errorf("IPC = %.2f, want near 2", res.IPC())
	}
}

func TestDependencyChainSerializes(t *testing.T) {
	// A chain of dependent FADDs runs at one per FADD latency.
	var insts []isa.Inst
	for i := 0; i < 20; i++ {
		insts = append(insts, isa.Inst{Op: isa.OpFADD, Rd: 1, Ra: 1, Rb: 2})
	}
	res := timed(t, newCPU(fastMem{1}), insts...)
	if res.Cycles < 20*3 {
		t.Errorf("cycles = %d, dependent FADD chain must pay 3 cycles each", res.Cycles)
	}
}

func TestLoadUseStallGrowsWithMemoryLatency(t *testing.T) {
	mk := func(lat int64) int64 {
		c := newCPU(slowLoads{lat})
		var insts []isa.Inst
		for i := 0; i < 50; i++ {
			insts = append(insts,
				isa.Inst{Op: isa.OpLDR, Rd: 1, Ra: isa.ZR, Imm: 0},
				isa.Inst{Op: isa.OpADD, Rd: 2, Ra: 1, Rb: 1}, // immediate use
			)
		}
		return timed(t, c, insts...).Cycles
	}
	fast, slow := mk(1), mk(4)
	if slow <= fast {
		t.Fatalf("slow loads (%d) must cost more than fast (%d)", slow, fast)
	}
	// Each of the 50 load-use pairs should expose roughly the extra 3 cycles.
	if delta := slow - fast; delta < 100 {
		t.Errorf("delta = %d, want >= 100 (3 extra cycles x 50 loads)", delta)
	}
}

func TestReadStallAttribution(t *testing.T) {
	c := newCPU(slowLoads{8})
	res := timed(t, c,
		isa.Inst{Op: isa.OpLDR, Rd: 1, Ra: isa.ZR, Imm: 0},
		isa.Inst{Op: isa.OpADD, Rd: 2, Ra: 1, Rb: 1},
	)
	if res.ReadStallCycles == 0 {
		t.Error("load-use stall must be attributed to reads")
	}
	if res.WriteStallCycles != 0 {
		t.Error("no write stalls expected")
	}
}

func TestLoadQueueLimitsOutstandingLoads(t *testing.T) {
	run := func(depth int) int64 {
		cfg := DefaultConfig()
		cfg.LoadQueueDepth = depth
		c := &CPU{Cfg: cfg, IMem: fastMem{1}, DMem: slowLoads{10}}
		var insts []isa.Inst
		for i := 0; i < 30; i++ {
			insts = append(insts, isa.Inst{Op: isa.OpLDR, Rd: isa.Reg(1 + i%8), Ra: isa.ZR, Imm: int32(4 * i)})
		}
		return timed(t, c, insts...).Cycles
	}
	if shallow, deep := run(1), run(8); shallow <= deep {
		t.Errorf("deeper load queue must not be slower: depth1=%d depth8=%d", shallow, deep)
	}
}

func TestStoreBufferAbsorbsAndStalls(t *testing.T) {
	type slowWrites struct{ mem.Port }
	run := func(depth int) *Result {
		cfg := DefaultConfig()
		cfg.StoreBufDepth = depth
		c := &CPU{Cfg: cfg, IMem: fastMem{1}, DMem: portFunc(func(now int64, req mem.Req) int64 {
			if req.Kind == mem.Write {
				return now + 20
			}
			return now + 1
		})}
		var insts []isa.Inst
		for i := 0; i < 20; i++ {
			insts = append(insts, isa.Inst{Op: isa.OpSTR, Rd: 1, Ra: isa.ZR, Imm: int32(4 * i)})
		}
		prog := &isa.Program{Insts: append(insts, isa.Inst{Op: isa.OpHALT}), DataSize: 4096}
		res, err := c.Run(prog)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	_ = slowWrites{}
	shallow, deep := run(1), run(16)
	if shallow.WriteStallCycles <= deep.WriteStallCycles {
		t.Errorf("shallow store buffer must stall more: %d vs %d",
			shallow.WriteStallCycles, deep.WriteStallCycles)
	}
	if shallow.Cycles <= deep.Cycles {
		t.Errorf("shallow store buffer must be slower: %d vs %d", shallow.Cycles, deep.Cycles)
	}
}

type portFunc func(now int64, req mem.Req) int64

func (f portFunc) Access(now int64, req mem.Req) int64 { return f(now, req) }

func TestBranchMispredictPenalty(t *testing.T) {
	// An alternating branch defeats the 2-bit predictor roughly half the
	// time; a heavily-biased one trains it.
	mkLoop := func(n int) *isa.Program {
		// for i=0..n-1 { if i&1 { } }: branch on lowest bit alternates.
		return &isa.Program{DataSize: 64, Insts: []isa.Inst{
			{Op: isa.OpMOVI, Rd: 0, Imm: 0},
			{Op: isa.OpMOVI, Rd: 1, Imm: int32(n)},
			{Op: isa.OpANDI, Rd: 2, Ra: 0, Imm: 1},     // 2: loop top
			{Op: isa.OpBEQ, Ra: 2, Rb: isa.ZR, Imm: 0}, // alternating direction
			{Op: isa.OpADDI, Rd: 0, Ra: 0, Imm: 1},
			{Op: isa.OpBLT, Ra: 0, Rb: 1, Imm: -4}, // well-predicted backward
			{Op: isa.OpHALT},
		}}
	}
	c := newCPU(fastMem{1})
	res, err := c.Run(mkLoop(400))
	if err != nil {
		t.Fatal(err)
	}
	if res.Mispredicts < 100 {
		t.Errorf("alternating branch mispredicts = %d, want ~200", res.Mispredicts)
	}
	if res.BranchStallCycles != int64(res.Mispredicts)*DefaultConfig().MispredictPenalty {
		t.Errorf("branch stall accounting inconsistent: %d vs %d mispredicts",
			res.BranchStallCycles, res.Mispredicts)
	}
}

func TestBiasedBranchTrains(t *testing.T) {
	// A backward loop branch taken 400x should mispredict only a handful
	// of times.
	prog := &isa.Program{DataSize: 64, Insts: []isa.Inst{
		{Op: isa.OpMOVI, Rd: 0, Imm: 0},
		{Op: isa.OpMOVI, Rd: 1, Imm: 400},
		{Op: isa.OpADDI, Rd: 0, Ra: 0, Imm: 1},
		{Op: isa.OpBLT, Ra: 0, Rb: 1, Imm: -2},
		{Op: isa.OpHALT},
	}}
	c := newCPU(fastMem{1})
	res, err := c.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mispredicts > 5 {
		t.Errorf("trained loop branch mispredicts = %d, want <= 5", res.Mispredicts)
	}
	if res.Branches < 400 {
		t.Errorf("branches = %d", res.Branches)
	}
}

func TestPrefetchDoesNotBlock(t *testing.T) {
	// PLDs to a slow memory must not slow the core down.
	slow := portFunc(func(now int64, req mem.Req) int64 {
		if req.Kind == mem.Prefetch {
			return now // model contract: prefetches return immediately
		}
		return now + 1
	})
	var insts []isa.Inst
	for i := 0; i < 50; i++ {
		insts = append(insts, isa.Inst{Op: isa.OpPLD, Ra: isa.ZR, Imm: int32(64 * i)})
	}
	res := timed(t, &CPU{Cfg: DefaultConfig(), IMem: fastMem{1}, DMem: slow}, insts...)
	if res.Prefetches != 50 {
		t.Errorf("prefetches = %d", res.Prefetches)
	}
	if res.Cycles > 80 {
		t.Errorf("prefetch stream took %d cycles; must not block", res.Cycles)
	}
}

func TestCountersAndMemoryKinds(t *testing.T) {
	var kinds []mem.Kind
	rec := portFunc(func(now int64, req mem.Req) int64 {
		kinds = append(kinds, req.Kind)
		return now + 1
	})
	res := timed(t, &CPU{Cfg: DefaultConfig(), IMem: fastMem{1}, DMem: rec},
		isa.Inst{Op: isa.OpLDR, Rd: 1, Ra: isa.ZR, Imm: 0},
		isa.Inst{Op: isa.OpSTR, Rd: 1, Ra: isa.ZR, Imm: 4},
		isa.Inst{Op: isa.OpVLDR, Rd: 1, Ra: isa.ZR, Imm: 16},
		isa.Inst{Op: isa.OpVSTR, Rd: 1, Ra: isa.ZR, Imm: 32},
		isa.Inst{Op: isa.OpPLD, Ra: isa.ZR, Imm: 64},
	)
	if res.Loads != 2 || res.Stores != 2 || res.VecLoads != 1 || res.VecStores != 1 || res.Prefetches != 1 {
		t.Errorf("counters: %+v", res)
	}
	want := []mem.Kind{mem.Read, mem.Write, mem.Read, mem.Write, mem.Prefetch}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("access %d kind = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestInstructionFetchGoesThroughIMem(t *testing.T) {
	var fetches int
	imem := portFunc(func(now int64, req mem.Req) int64 {
		if req.Kind != mem.Fetch {
			t.Errorf("IMem got kind %v", req.Kind)
		}
		fetches++
		return now + 1
	})
	c := &CPU{Cfg: DefaultConfig(), IMem: imem, DMem: fastMem{1}}
	timedProg := &isa.Program{DataSize: 64, Insts: []isa.Inst{
		{Op: isa.OpNOP}, {Op: isa.OpNOP}, {Op: isa.OpHALT},
	}}
	if _, err := c.Run(timedProg); err != nil {
		t.Fatal(err)
	}
	if fetches != 3 {
		t.Errorf("fetches = %d, want 3", fetches)
	}
}

func TestTimingDeterminism(t *testing.T) {
	mk := func() int64 {
		c := newCPU(slowLoads{4})
		var insts []isa.Inst
		for i := 0; i < 200; i++ {
			insts = append(insts,
				isa.Inst{Op: isa.OpLDR, Rd: 1, Ra: isa.ZR, Imm: int32(4 * (i % 64))},
				isa.Inst{Op: isa.OpADD, Rd: 2, Ra: 1, Rb: 2},
			)
		}
		return timed(t, c, insts...).Cycles
	}
	if a, b := mk(), mk(); a != b {
		t.Errorf("nondeterministic timing: %d vs %d", a, b)
	}
}

func TestRunawayTimedBudget(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInsts = 100
	c := &CPU{Cfg: cfg, IMem: fastMem{1}, DMem: fastMem{1}}
	prog := &isa.Program{DataSize: 64, Insts: []isa.Inst{
		{Op: isa.OpB, Imm: -1},
		{Op: isa.OpHALT},
	}}
	_, err := c.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("err = %v", err)
	}
}

// TestBudgetFaultText pins the budget fault's message on every path
// that raises it: live timing, functional interpretation, capture and
// replay. A budget stops the core between instructions, so the message
// names none.
func TestBudgetFaultText(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxInsts = 1000
	c := &CPU{Cfg: cfg, IMem: fastMem{1}, DMem: fastMem{1}}
	loop := &isa.Program{DataSize: 64, Insts: []isa.Inst{
		{Op: isa.OpNOP},
		{Op: isa.OpB, Imm: -1},
		{Op: isa.OpHALT},
	}}
	const want = "cpu: fault at pc=1: instruction budget 1000 exhausted (runaway loop?)"
	_, live := c.Run(loop)
	_, interp := InterpretState(loop, NewState(loop), 1000)
	_, capture := Capture(loop, NewState(loop), 1000)
	for name, err := range map[string]error{"live": live, "interpret": interp, "capture": capture} {
		if err == nil || err.Error() != want {
			t.Errorf("%s: err = %v, want %q", name, err, want)
		}
	}

	prog := kernelProg(4)
	tr, err := Capture(prog, NewState(prog), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, replay := c.ReplayTrace(tr)
	_, live = c.Run(prog)
	if replay == nil || live == nil || replay.Error() != live.Error() ||
		!strings.HasSuffix(replay.Error(), ": instruction budget 1000 exhausted (runaway loop?)") ||
		strings.Contains(replay.Error(), "(invalid)") {
		t.Errorf("replay err = %v, live err = %v", replay, live)
	}
}

func TestPCOutOfRangeFault(t *testing.T) {
	c := newCPU(fastMem{1})
	prog := &isa.Program{DataSize: 64, Insts: []isa.Inst{
		{Op: isa.OpMOVI, Rd: 1, Imm: 99},
		{Op: isa.OpJR, Ra: 1},
	}}
	_, err := c.Run(prog)
	if err == nil || !strings.Contains(err.Error(), "pc outside") {
		t.Errorf("err = %v", err)
	}
}

func TestIPCZeroSafe(t *testing.T) {
	var r Result
	if r.IPC() != 0 {
		t.Error("IPC of empty result must be 0")
	}
}
