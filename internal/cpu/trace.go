// Execution-trace capture and timing replay (DESIGN.md §7.4).
//
// The timing core is in-order: the retired instruction stream, every
// effective address, and every branch direction are produced by the
// functional interpreter alone and never depend on cache latencies,
// buffer occupancy, or any other timing state. A Trace therefore records
// one functional execution — per retired instruction: the PC, the
// effective address of memory ops, and whether a branch redirected
// control flow — and ReplayTrace re-runs the *full* timing model (fetch
// through the IL1, operand scoreboarding, store buffer, load queue,
// branch prediction, mispredict refill, every DL1/L2/DRAM access)
// against any CPU/hierarchy configuration by consuming the trace instead
// of stepping the interpreter. Replay is contractually byte-identical to
// RunState: same Cycles, same stall counters, same hierarchy stats.
//
// Replay is also substantially cheaper per instruction than live
// execution: the functional step disappears, and everything static per
// PC — operand register-file indexes, latency class, memory class,
// branch class — is pre-decoded once per program into a flat table,
// while the branch predictor's outcome stream (which depends only on the
// PC/direction stream and the table size) is precomputed once per trace
// and shared by every configuration replaying it.
package cpu

import (
	"fmt"
	"sync"

	"sttdl1/internal/isa"
)

// Trace is the retired-instruction stream of one functional execution.
// PCs, Addrs and Taken are parallel: record i retired the instruction at
// PCs[i], accessed byte address Addrs[i] if it was a memory op, and
// redirected control flow iff bit i of Taken is set. A Trace is
// immutable after construction and safe for concurrent replay.
type Trace struct {
	// PCs is the program-counter stream (indexes into prog.Insts).
	PCs []int32
	// Addrs is the effective byte address per record (0 for non-memory
	// instructions).
	Addrs []uint32
	// Taken is a bitset over records: bit i set means record i redirected
	// control flow (taken branch, call, indirect jump).
	Taken []uint64
	// Final is the architectural state after the run. It is shared by
	// every replay Result consuming this trace and must not be mutated.
	// Traces rebuilt from a serialized stream carry no final state (nil).
	Final *State

	dec []decoded
	// counts are the trace's configuration-invariant retirement statistics
	// (instruction/class counts), computed once so replay does not
	// re-count per design point.
	counts traceCounts

	mu      sync.Mutex
	mispred map[int]mispredSet // bpred table size -> mispredict bitset
}

// traceCounts are the Result counters that depend only on the retired
// stream, never on timing configuration.
type traceCounts struct {
	loads, stores, prefetches uint64
	vecLoads, vecStores       uint64
	branches                  uint64
}

// mispredSet is the sorted list of record indexes the predictor gets
// wrong (its length is the trace's mispredict total for that predictor
// size). A sparse list beats a bitset in replay: the loop compares the
// running index against one register instead of probing a bit per record.
type mispredSet struct {
	idx []int32
}

// Len returns the number of retired instructions in the trace.
func (t *Trace) Len() int { return len(t.PCs) }

// TakenAt reports whether record i redirected control flow.
func (t *Trace) TakenAt(i int) bool { return t.Taken[i>>6]&(1<<uint(i&63)) != 0 }

// decoded is the per-PC static portion of the timing model: everything
// RunState derives from the instruction word each time it retires. It
// is packed to 8 bytes so the decode table stays dense in the replay
// loop's cache working set (every field provably fits: latencies are
// <= 16 cycles, the register file has 82 slots, and accesses are at
// most a vector line wide).
//
// Absent operands are resolved to dummy register-file slots instead of a
// -1 sentinel so the replay loop indexes unconditionally: srcDummy is a
// read-only slot pinned at ready 0 / ALU producer (never the readiness
// maximum that matters, never load-attributed), and dstDummy is a
// write-only sink no source index ever reads.
type decoded struct {
	lat         uint8
	srcA, srcB  uint8 // register-file indexes (srcDummy when absent)
	srcD, dst   uint8 // read-modify-write source / writeback destination
	accessBytes uint8
	mem         uint8 // 0 none, 'l' load, 's' store, 'p' prefetch
	flags       uint8
}

// Replay register-file geometry: the architectural slots, plus the two
// dummy slots decoded operands use for "absent".
const (
	replayRegs = isa.NumIntRegs + isa.NumFPRegs + isa.NumVecRegs
	srcDummy   = replayRegs
	dstDummy   = replayRegs + 1
)

const (
	dfDiv    uint8 = 1 << iota // serializes on the unpipelined divider
	dfVec                      // vector op (VecLoads/VecStores accounting)
	dfCondBr                   // conditional branch (2-bit predictor)
	dfJR                       // indirect jump (always mispredicts)
	dfBranch                   // counted in Result.Branches (excludes HALT)
)

// decodeProg flattens the static decode of every instruction.
func decodeProg(prog *isa.Program) []decoded {
	ridx := func(class isa.RegClass, r isa.Reg) uint8 {
		if class == isa.RCNone || (class == isa.RCInt && r == isa.ZR) {
			return srcDummy
		}
		return uint8(regIdx(class, r))
	}
	dec := make([]decoded, len(prog.Insts))
	for pc, in := range prog.Insts {
		info := in.Op.Info()
		d := decoded{
			lat:         uint8(latencyOf(in.Op)),
			srcA:        ridx(info.SrcAClass, in.Ra),
			srcB:        ridx(info.SrcBClass, in.Rb),
			srcD:        srcDummy,
			dst:         dstDummy,
			accessBytes: uint8(info.AccessBytes),
			mem:         info.Mem,
		}
		if info.DstIsSrc {
			d.srcD = ridx(info.DstClass, in.Rd)
		}
		if info.DstClass != isa.RCNone && info.Mem != 's' {
			if i := ridx(info.DstClass, in.Rd); i != srcDummy {
				d.dst = i
			}
		}
		switch in.Op {
		case isa.OpDIV, isa.OpREM, isa.OpFDIV, isa.OpVDIV:
			d.flags |= dfDiv
		}
		if in.Op.IsVector() {
			d.flags |= dfVec
		}
		if in.Op.IsBranch() && in.Op != isa.OpHALT {
			d.flags |= dfBranch
			if in.Op.IsCondBranch() {
				d.flags |= dfCondBr
			} else if in.Op == isa.OpJR {
				d.flags |= dfJR
			}
		}
		dec[pc] = d
	}
	return dec
}

// countTrace tallies the configuration-invariant retirement statistics of
// a PC stream.
func countTrace(pcs []int32, dec []decoded) traceCounts {
	var tc traceCounts
	for _, pc := range pcs {
		d := &dec[pc]
		switch d.mem {
		case 'l':
			tc.loads++
			if d.flags&dfVec != 0 {
				tc.vecLoads++
			}
		case 's':
			tc.stores++
			if d.flags&dfVec != 0 {
				tc.vecStores++
			}
		case 'p':
			tc.prefetches++
		}
		if d.flags&dfBranch != 0 {
			tc.branches++
		}
	}
	return tc
}

// chunkRecs is the record capacity of one capture chunk.
const chunkRecs = 1 << 16

// captureChunk buffers chunkRecs records of a capture in progress. Its
// taken bits are set with |=, so a chunk enters chunkPool with them
// cleared; the PCs and addresses are overwritten record by record.
type captureChunk struct {
	pcs   [chunkRecs]int32
	addrs [chunkRecs]uint32
	taken [chunkRecs / 64]uint64
}

// chunkPool recycles capture chunks (532 KB each) across captures.
var chunkPool = sync.Pool{New: func() any { return new(captureChunk) }}

// Capture executes prog functionally (no timing) from st until HALT and
// records the retired-instruction stream. The trace is independent of
// any timing configuration: it can be replayed against every hierarchy
// and core variant. maxInsts 0 means the DefaultConfig budget.
func Capture(prog *isa.Program, st *State, maxInsts uint64) (*Trace, error) {
	if maxInsts == 0 {
		maxInsts = DefaultConfig().MaxInsts
	}
	// Records are collected in fixed-size chunks and assembled into
	// exact-size slices once at HALT: traces run to millions of records,
	// where append's growth factor both churns multi-megabyte copies and
	// strands up to a quarter of the final capacity in the long-lived
	// trace cache. The chunks go back to chunkPool on every return.
	var chunks []*captureChunk
	defer func() {
		for _, c := range chunks {
			clear(c.taken[:])
			chunkPool.Put(c)
		}
	}()
	var cur *captureChunk
	fill := chunkRecs // records in the current chunk (full = rotate)
	var n uint64
	for !st.Halted {
		if n >= maxInsts {
			return nil, st.fault(st.PC, isa.Inst{}, "instruction budget %d exhausted (runaway loop?)", maxInsts)
		}
		pc := st.PC
		info, err := st.Step(prog)
		if err != nil {
			return nil, err
		}
		if fill == chunkRecs {
			cur = chunkPool.Get().(*captureChunk)
			chunks = append(chunks, cur)
			fill = 0
		}
		cur.pcs[fill] = int32(pc)
		cur.addrs[fill] = info.Addr
		if info.Taken {
			cur.taken[fill>>6] |= 1 << uint(fill&63)
		}
		fill++
		n++
	}
	t := &Trace{
		PCs:   make([]int32, n),
		Addrs: make([]uint32, n),
		Taken: make([]uint64, (n+63)/64),
	}
	for ci, c := range chunks {
		base := ci * chunkRecs
		m := copy(t.PCs[base:], c.pcs[:])
		copy(t.Addrs[base:], c.addrs[:m])
		copy(t.Taken[base/64:], c.taken[:(m+63)/64])
	}
	t.Final = st
	t.dec = decodeProg(prog)
	t.counts = countTrace(t.PCs, t.dec)
	return t, nil
}

// NewTrace rebuilds a replayable trace from its raw streams (the decode
// side of a serialized trace). Every PC must fall inside prog; the
// rebuilt trace has no Final state.
func NewTrace(prog *isa.Program, pcs []int32, addrs []uint32, taken []uint64) (*Trace, error) {
	if len(pcs) != len(addrs) {
		return nil, fmt.Errorf("cpu: trace streams disagree: %d PCs, %d addrs", len(pcs), len(addrs))
	}
	if want := (len(pcs) + 63) / 64; len(taken) < want {
		return nil, fmt.Errorf("cpu: taken bitset too short: %d words < %d", len(taken), want)
	}
	for i, pc := range pcs {
		if pc < 0 || int(pc) >= len(prog.Insts) {
			return nil, fmt.Errorf("cpu: trace record %d: pc %d outside program (0..%d)", i, pc, len(prog.Insts)-1)
		}
	}
	dec := decodeProg(prog)
	return &Trace{PCs: pcs, Addrs: addrs, Taken: taken, dec: dec, counts: countTrace(pcs, dec)}, nil
}

// decode returns the trace's decode table and retirement counts,
// rebuilding them from prog for a trace that carries none.
func (t *Trace) decode(prog *isa.Program) ([]decoded, traceCounts) {
	if t.dec == nil {
		dec := decodeProg(prog)
		return dec, countTrace(t.PCs, dec)
	}
	return t.dec, t.counts
}

// mispredicts returns (computing and memoizing on first use) the
// mispredict bitset for a predictor table of the given size: bit i set
// means record i is a branch the 2-bit predictor gets wrong, or an
// indirect jump. The stream depends only on the trace and the table
// size — never on cache or core timing — so every configuration
// replaying this trace shares it.
func (t *Trace) mispredicts(entries int) mispredSet {
	if entries <= 0 || entries&(entries-1) != 0 {
		entries = 512
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ms, ok := t.mispred[entries]; ok {
		return ms
	}
	pred := newBpred(entries)
	var idx []int32
	for i, pc := range t.PCs {
		d := &t.dec[pc]
		if d.flags&dfCondBr != 0 {
			taken := t.TakenAt(i)
			if pred.predict(int(pc)) != taken {
				idx = append(idx, int32(i))
			}
			pred.update(int(pc), taken)
		} else if d.flags&dfJR != 0 {
			idx = append(idx, int32(i))
		}
	}
	ms := mispredSet{idx: idx}
	if t.mispred == nil {
		t.mispred = map[int]mispredSet{}
	}
	t.mispred[entries] = ms
	return ms
}

// ReplayCtl controls a partial timing replay (DESIGN.md §7.5). The
// zero value (or a nil *ReplayCtl) replays the whole trace.
type ReplayCtl struct {
	// MaxRecords truncates the pass to the first MaxRecords trace
	// records (0 = all) — the cheap "truncated measured replay" rung of
	// the successive-halving ladder. The partial Result carries the
	// cycle count, stall counters and retirement statistics of exactly
	// that prefix.
	MaxRecords int
	// CheckEvery is the number of records between Abort probes (0 =
	// never probe). Probes interrupt the replay loop, so the interval
	// trades abort latency against per-record overhead.
	CheckEvery int
	// Abort, when non-nil, is called every CheckEvery records with the
	// pass's current cycle lower bound (the final cycle count can only
	// be larger). Returning true abandons the replay; the partial
	// Result reflects the records retired so far.
	Abort func(cyclesSoFar int64) bool
	// Interrupt, when non-nil, is probed every InterruptEvery records in
	// every pass — unlike Abort it also runs during the warm-up, whose
	// cycle counts are discarded but whose records still cost real time.
	// A non-nil return abandons the replay with that error and no
	// Result. This is how context cancellation reaches the timing loop
	// promptly: a canceled or superseded sweep-service job stops burning
	// CPU mid-replay instead of finishing a doomed simulation
	// (internal/replay wires ctx.Err in, internal/serve relies on it).
	Interrupt func() error
	// InterruptEvery is the number of records between Interrupt probes
	// (0 = every 65536 records — coarse enough to be free, fine enough
	// to cancel a multi-second replay within milliseconds).
	InterruptEvery int
}

// ReplayTrace re-runs the timing model over a captured trace. It is the
// timing half of RunState with the functional interpreter replaced by
// the trace: cycles, every stall counter, and every memory access
// presented to IMem/DMem are byte-identical to a live run of the same
// program under the same configuration (enforced by
// TestReplayMatchesLive* and the Fig. 3 equivalence matrix).
//
// The returned Result shares the trace's Final architectural state; it
// must be treated as read-only.
func (c *CPU) ReplayTrace(prog *isa.Program, tr *Trace) (*Result, error) {
	res, _, err := c.ReplayTraceCtl(prog, tr, nil)
	return res, err
}

// ReplayTraceCtl is ReplayTrace under partial-run control: ctl can
// truncate the pass after a record prefix and/or abort it when a probe
// decides the run is no longer worth finishing (the early-abort
// criterion of the guided design-space search). It reports whether the
// pass was stopped early by an Abort probe; a truncated or aborted
// Result holds the cycle count, stall counters and retirement
// statistics of exactly the retired prefix (the prefix cycle count is a
// lower bound of the full run's). With a nil ctl it is exactly
// ReplayTrace.
//
// The pass runs on the replay kernel (kernel.go), and this driver walks
// the trace in chunks bounded by the next Abort/Interrupt probe point,
// so the loop itself carries no probe arithmetic: a probe every K
// records is a kernel call of K records, and the common probe-free
// replay is a single kernel call over the whole trace.
func (c *CPU) ReplayTraceCtl(prog *isa.Program, tr *Trace, ctl *ReplayCtl) (*Result, bool, error) {
	st := newReplayState(c, prog, tr)

	pcs := tr.PCs
	n := len(pcs)
	budgeted := uint64(n) > st.maxInsts
	if budgeted {
		n = int(st.maxInsts)
	}
	if ctl != nil && ctl.MaxRecords > 0 && ctl.MaxRecords < n {
		n = ctl.MaxRecords
		budgeted = false // the prefix retires within budget
	}
	nextProbe := -1 // record count of the next Abort probe (-1 = never)
	if ctl != nil && ctl.Abort != nil && ctl.CheckEvery > 0 {
		nextProbe = ctl.CheckEvery
	}
	nextIntr, intrEvery := -1, 0 // record count of the next Interrupt probe
	if ctl != nil && ctl.Interrupt != nil {
		intrEvery = ctl.InterruptEvery
		if intrEvery <= 0 {
			intrEvery = 1 << 16
		}
		nextIntr = intrEvery
	}
	aborted := false
	for pos := 0; pos < n; {
		hi := n
		if nextProbe > 0 && nextProbe < hi {
			hi = nextProbe
		}
		if nextIntr > 0 && nextIntr < hi {
			hi = nextIntr
		}
		st.run(pos, hi)
		pos = hi
		// Abort probe: maxDone only grows, so it is a sound lower bound
		// of the pass's final cycle count at every probe point.
		if pos == nextProbe {
			if ctl.Abort(st.maxDone) {
				aborted = true
				n = pos
				break
			}
			nextProbe += ctl.CheckEvery
		}
		// Interrupt probe: abandon the pass with the probe's error. The
		// whole System is discarded with it, so the open fetch stream's
		// unflushed bookkeeping is irrelevant.
		if pos == nextIntr {
			if err := ctl.Interrupt(); err != nil {
				return nil, false, err
			}
			nextIntr += intrEvery
		}
	}

	res := st.finish(n)
	if budgeted {
		return res, false, &Fault{PC: int(pcs[n]), Msg: fmt.Sprintf("instruction budget %d exhausted (runaway loop?)", st.maxInsts)}
	}
	return res, aborted, nil
}
