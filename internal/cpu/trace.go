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
// Each record holds the PC of one retired instruction, the byte address
// it accessed if it was a memory op, and whether it redirected control
// flow. The records live in the fixed-size chunks Capture fills: record
// i is entry i mod chunkRecs of chunk i / chunkRecs, and every chunk
// but the last is full. A Trace is immutable after construction and
// safe for concurrent replay.
type Trace struct {
	chunks []*traceChunk
	n      int
	// Final is the architectural state after the run. It is shared by
	// every replay Result consuming this trace and must not be mutated.
	Final *State

	dec []decoded
	// counts are the trace's configuration-invariant retirement statistics
	// (instruction/class counts), computed once so replay does not
	// re-count per design point.
	counts traceCounts

	mu      sync.Mutex
	mispred map[int]mispredSet // bpred table size -> mispredicted records
}

// Trace records are stored in chunks of chunkRecs records: traces run
// to millions of records, and fixed-size chunks grow a capture without
// append's multi-megabyte copies or its unused tail capacity.
const (
	chunkShift = 16
	chunkRecs  = 1 << chunkShift
	chunkMask  = chunkRecs - 1
)

// traceChunk holds chunkRecs consecutive records of a trace.
type traceChunk struct {
	pcs   [chunkRecs]int32  // program counter (index into prog.Insts)
	addrs [chunkRecs]uint32 // effective byte address (0 for non-memory)
	taken [chunkRecs / 64]uint64
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
func (t *Trace) Len() int { return t.n }

// Chunks returns the number of chunks the trace's records are stored in.
func (t *Trace) Chunks() int { return len(t.chunks) }

// Chunk returns the records of chunk k: the PCs, effective addresses and
// taken bitset (bit j of the bitset is record j of the chunk) of records
// k*chunkRecs up to the next chunk or the end of the trace. The slices
// alias the trace and must not be modified.
func (t *Trace) Chunk(k int) (pcs []int32, addrs []uint32, taken []uint64) {
	c := t.chunks[k]
	m := min(t.n-k*chunkRecs, chunkRecs)
	return c.pcs[:m], c.addrs[:m], c.taken[:(m+63)/64]
}

// TakenAt reports whether record i redirected control flow.
func (t *Trace) TakenAt(i int) bool {
	j := i & chunkMask
	return t.chunks[i>>chunkShift].taken[j>>6]&(1<<uint(j&63)) != 0
}

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

// count tallies the configuration-invariant retirement statistics of
// the trace's first n records.
func (t *Trace) count(n int) traceCounts {
	var tc traceCounts
	for k := 0; k*chunkRecs < n; k++ {
		pcs, _, _ := t.Chunk(k)
		for _, pc := range pcs[:min(len(pcs), n-k*chunkRecs)] {
			d := &t.dec[pc]
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
	}
	return tc
}

// Capture executes prog functionally (no timing) from st until HALT and
// records the retired-instruction stream. The trace is independent of
// any timing configuration: it can be replayed against every hierarchy
// and core variant. maxInsts 0 means the DefaultConfig budget.
func Capture(prog *isa.Program, st *State, maxInsts uint64) (*Trace, error) {
	if maxInsts == 0 {
		maxInsts = DefaultConfig().MaxInsts
	}
	var chunks []*traceChunk
	var cur *traceChunk
	n := 0
	for !st.Halted {
		if uint64(n) >= maxInsts {
			return nil, st.fault(st.PC, isa.Inst{}, "instruction budget %d exhausted (runaway loop?)", maxInsts)
		}
		pc := st.PC
		info, err := st.Step(prog)
		if err != nil {
			return nil, err
		}
		j := n & chunkMask
		if j == 0 {
			cur = new(traceChunk)
			chunks = append(chunks, cur)
		}
		cur.pcs[j] = int32(pc)
		cur.addrs[j] = info.Addr
		if info.Taken {
			cur.taken[j>>6] |= 1 << uint(j&63)
		}
		n++
	}
	t := &Trace{chunks: chunks, n: n, Final: st, dec: decodeProg(prog)}
	t.counts = t.count(n)
	return t, nil
}

// mispredicts returns (computing and memoizing on first use) the
// sorted indexes of the records a predictor table of the given size
// gets wrong: branches the 2-bit predictor mispredicts, and indirect
// jumps. The stream depends only on the trace and the table
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
	for k := range t.chunks {
		pcs, _, _ := t.Chunk(k)
		for j, pc := range pcs {
			i := k*chunkRecs + j
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
	// be larger). Each pass probes with its own bound, so in a group
	// replay one member's abort never cuts another's pass. Returning
	// true abandons the replay; the partial Result reflects the records
	// retired so far.
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
// TestReplayMatchesLive* and the Fig. 3 equivalence matrix). It is
// ReplayTraceCtl without control; a trace longer than the MaxInsts
// budget returns the budget's partial Result with the budget Fault.
//
// The returned Result shares the trace's Final architectural state; it
// must be treated as read-only.
func (c *CPU) ReplayTrace(tr *Trace) (*Result, error) {
	res, _, err := c.ReplayTraceCtl(tr, nil)
	return res, err
}

// ReplayTraceCtl is the one replay driver (DESIGN.md §7.9): it replays
// tr on c under ctl in record ranges that end only at the next Abort or
// Interrupt probe or at the pass's end, so the replay loop itself
// carries no control arithmetic.
//
// The pass ends at ctl.MaxRecords (0 = the whole trace) or, when the
// trace is longer than the MaxInsts budget, at that budget: the Result
// then holds the budget's prefix and the error is the budget *Fault. An
// Abort probe is called with the pass's cycle lower bound; returning
// true stops the pass there, with the prefix's Result and aborted set.
// A non-nil Interrupt return abandons the pass with that error and no
// Result.
func (c *CPU) ReplayTraceCtl(tr *Trace, ctl *ReplayCtl) (res *Result, aborted bool, err error) {
	var rc ReplayCtl
	if ctl != nil {
		rc = *ctl
	}
	st := newReplayState(c, tr)
	end := tr.Len()
	if rc.MaxRecords > 0 && rc.MaxRecords < end {
		end = rc.MaxRecords
	}
	budgeted := st.maxInsts < uint64(tr.Len()) && st.maxInsts <= uint64(end)
	if budgeted {
		end = int(st.maxInsts)
	}
	nextProbe := -1 // record count of the next Abort probe (-1 = never)
	if rc.Abort != nil && rc.CheckEvery > 0 {
		nextProbe = rc.CheckEvery
	}
	nextIntr, intrEvery := -1, 0 // record count of the next Interrupt probe
	if rc.Interrupt != nil {
		intrEvery = rc.InterruptEvery
		if intrEvery <= 0 {
			intrEvery = 1 << 16
		}
		nextIntr = intrEvery
	}
	for pos := 0; pos < end; {
		hi := end
		if nextProbe > 0 {
			hi = min(hi, nextProbe)
		}
		if nextIntr > 0 {
			hi = min(hi, nextIntr)
		}
		st.run(pos, hi)
		pos = hi
		if pos == nextProbe {
			if rc.Abort(st.maxDone) { // maxDone only grows: a sound lower bound
				aborted = true
				if pos < end {
					end, budgeted = pos, false
				}
				break
			}
			nextProbe += rc.CheckEvery
		}
		// Interrupt probe: abandon the pass with the probe's error. The
		// system is discarded with it, so its open fetch stream's
		// unflushed bookkeeping is irrelevant.
		if pos == nextIntr {
			if err := rc.Interrupt(); err != nil {
				return nil, false, err
			}
			nextIntr += intrEvery
		}
	}
	res = st.finish(end)
	if budgeted {
		pc := tr.chunks[end>>chunkShift].pcs[end&chunkMask] // the first record past the budget
		err = &Fault{PC: int(pc), Msg: fmt.Sprintf("instruction budget %d exhausted (runaway loop?)", st.maxInsts)}
	}
	return res, aborted, err
}
