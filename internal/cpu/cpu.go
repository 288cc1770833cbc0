package cpu

import (
	"sttdl1/internal/isa"
	"sttdl1/internal/mem"
)

// Config parameterizes the A9-lite timing core.
type Config struct {
	// IssueWidth is the in-order issue width (Cortex-A9 class: 2).
	IssueWidth int
	// MispredictPenalty is the pipeline refill cost of a wrong branch
	// direction, in cycles.
	MispredictPenalty int64
	// StoreBufDepth is the number of in-flight retired stores the core
	// tolerates before stalling issue.
	StoreBufDepth int
	// LoadQueueDepth is the number of outstanding loads the LSU tracks;
	// a further load stalls issue until the oldest completes. In-order
	// embedded cores have shallow load queues (A9 class: 2), which is
	// what exposes a multi-cycle DL1 read on back-to-back loads.
	LoadQueueDepth int
	// BpredEntries sizes the 2-bit predictor table (power of two).
	BpredEntries int
	// MaxInsts bounds execution; exceeding it is a Fault.
	MaxInsts uint64
	// CodeBase is the byte address instruction fetches use (the code
	// region must not alias the data segment in the cache model).
	CodeBase uint32
}

// DefaultConfig is the paper's platform core: dual-issue @1 GHz, 8-cycle
// mispredict refill, 4-entry store buffer.
func DefaultConfig() Config {
	return Config{
		IssueWidth:        2,
		MispredictPenalty: 8,
		StoreBufDepth:     4,
		LoadQueueDepth:    2,
		BpredEntries:      512,
		MaxInsts:          2_000_000_000,
		CodeBase:          0x8000_0000,
	}
}

// withDefaults fills the fields a zero Config leaves unusable (issue
// width, queue depths, instruction budget) with DefaultConfig's values.
// Every timing pass, live or replayed, runs on the result.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.IssueWidth <= 0 {
		c.IssueWidth = d.IssueWidth
	}
	if c.StoreBufDepth <= 0 {
		c.StoreBufDepth = d.StoreBufDepth
	}
	if c.LoadQueueDepth <= 0 {
		c.LoadQueueDepth = d.LoadQueueDepth
	}
	if c.MaxInsts == 0 {
		c.MaxInsts = d.MaxInsts
	}
	return c
}

// Result carries the timing outcome of one run.
type Result struct {
	// Cycles is total execution time in core cycles.
	Cycles int64
	// Insts is the dynamic instruction count.
	Insts uint64

	Loads, Stores, Prefetches uint64
	VecLoads, VecStores       uint64
	Branches, Mispredicts     uint64

	// ReadStallCycles is issue time lost waiting for load results
	// (including address-generation chains fed by loads).
	ReadStallCycles int64
	// WriteStallCycles is issue time lost to a full store buffer.
	WriteStallCycles int64
	// BranchStallCycles is pipeline-refill time after mispredicts.
	BranchStallCycles int64
	// FetchStallCycles is issue time lost to instruction fetch.
	FetchStallCycles int64

	// State is the final architectural state (memory image, registers).
	State *State
}

// IPC returns instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// CPU binds a timing configuration to its instruction- and data-side
// memory ports (IL1 and the DL1 front-end).
type CPU struct {
	Cfg  Config
	IMem mem.Port
	DMem mem.Port
}

// producer classes for stall attribution.
const (
	prodALU uint8 = iota
	prodLoad
)

type regFile struct {
	ready [isa.NumIntRegs + isa.NumFPRegs + isa.NumVecRegs]int64
	prod  [isa.NumIntRegs + isa.NumFPRegs + isa.NumVecRegs]uint8
}

func regIdx(class isa.RegClass, r isa.Reg) int {
	switch class {
	case isa.RCInt:
		return int(r)
	case isa.RCFP:
		return isa.NumIntRegs + int(r)
	case isa.RCVec:
		return isa.NumIntRegs + isa.NumFPRegs + int(r)
	}
	return -1
}

// Run executes prog to completion under the timing model, starting from
// a fresh zeroed state.
func (c *CPU) Run(prog *isa.Program) (*Result, error) {
	return c.RunState(prog, NewState(prog))
}

// RunState executes prog under the timing model starting from st, whose
// data segment the caller may have initialized.
func (c *CPU) RunState(prog *isa.Program, st *State) (*Result, error) {
	cfg := c.Cfg.withDefaults()

	res := &Result{State: st}
	pred := newBpred(cfg.BpredEntries)

	var regs regFile
	var (
		lastIssue  int64 // cycle of the most recent issue
		slotsUsed  int   // instructions issued in that cycle
		fetchLast  int64 // cycle of the most recent fetch
		fetchSlots int   // instructions fetched in that cycle
		redirectAt int64 // earliest fetch after a mispredict
		divFree    int64 // the unpipelined divider
		maxDone    int64 // completion horizon
		drainTail  int64 // store buffer drains in order
	)
	// The store buffer and load queue are stack-backed at realistic
	// depths; only unusually deep configurations fall back to the heap.
	var sbufArr, lqArr [16]int64
	sbuf := queueSlots(sbufArr[:], cfg.StoreBufDepth) // retire time per slot
	sbHead := 0
	lq := queueSlots(lqArr[:], cfg.LoadQueueDepth) // completion time per slot
	lqHead := 0

	for !st.Halted {
		if res.Insts >= cfg.MaxInsts {
			return res, st.fault(st.PC, isa.Inst{}, "instruction budget %d exhausted (runaway loop?)", cfg.MaxInsts)
		}
		pc := st.PC
		if pc < 0 || pc >= len(prog.Insts) {
			return res, st.fault(pc, isa.Inst{}, "pc outside program (0..%d)", len(prog.Insts)-1)
		}
		in := prog.Insts[pc]
		opInfo := in.Op.Info()

		// --- Instruction fetch through the IL1 (IssueWidth per cycle,
		// running ahead of issue like a real fetch queue).
		fetchAt := fetchLast
		if redirectAt > fetchAt {
			fetchAt = redirectAt
		}
		if fetchAt > fetchLast {
			fetchLast = fetchAt
			fetchSlots = 1
		} else {
			fetchSlots++
			if fetchSlots > cfg.IssueWidth {
				fetchLast++
				fetchAt = fetchLast
				fetchSlots = 1
			}
		}
		fetchDone := c.IMem.Access(fetchAt, mem.Req{
			Addr:  mem.Addr(cfg.CodeBase) + mem.Addr(pc)*isa.InstBytes,
			Bytes: isa.InstBytes,
			Kind:  mem.Fetch,
		})

		// --- Issue-time constraints.
		base := fetchDone
		if redirectAt > base {
			base = redirectAt
		}
		if fetchDone > lastIssue+1 {
			res.FetchStallCycles += fetchDone - (lastIssue + 1)
		}

		// Operand readiness (with load attribution).
		var opnd int64
		opndLoad := false
		consider := func(class isa.RegClass, r isa.Reg) {
			if class == isa.RCNone || (class == isa.RCInt && r == isa.ZR) {
				return
			}
			i := regIdx(class, r)
			if regs.ready[i] > opnd {
				opnd = regs.ready[i]
				opndLoad = regs.prod[i] == prodLoad
			} else if regs.ready[i] == opnd && regs.prod[i] == prodLoad {
				opndLoad = true
			}
		}
		consider(opInfo.SrcAClass, in.Ra)
		consider(opInfo.SrcBClass, in.Rb)
		if opInfo.DstIsSrc {
			consider(opInfo.DstClass, in.Rd)
		}

		issue := base
		if opnd > issue {
			if opndLoad {
				res.ReadStallCycles += opnd - issue
			}
			issue = opnd
		}

		// The unpipelined divider.
		switch in.Op {
		case isa.OpDIV, isa.OpREM, isa.OpFDIV, isa.OpVDIV:
			if divFree > issue {
				issue = divFree
			}
		}

		// Store-buffer slot for stores.
		if opInfo.Mem == 's' {
			slot := sbuf[sbHead]
			if slot > issue {
				res.WriteStallCycles += slot - issue
				issue = slot
			}
		}
		// Load-queue slot for loads: the oldest outstanding load must
		// complete before another can issue past the queue depth.
		if opInfo.Mem == 'l' {
			slot := lq[lqHead]
			if slot > issue {
				res.ReadStallCycles += slot - issue
				issue = slot
			}
		}

		// In-order multi-issue slotting.
		if issue < lastIssue {
			issue = lastIssue
		}
		if issue == lastIssue {
			if slotsUsed >= cfg.IssueWidth {
				issue++
				slotsUsed = 1
			} else {
				slotsUsed++
			}
		} else {
			slotsUsed = 1
		}
		lastIssue = issue

		// --- Functional execution.
		info, err := st.Step(prog)
		if err != nil {
			return res, err
		}
		res.Insts++

		// --- Completion / writeback timing.
		done := issue + latencyOf(in.Op)
		prod := prodALU

		switch {
		case opInfo.Mem == 'l':
			res.Loads++
			if in.Op.IsVector() {
				res.VecLoads++
			}
			done = c.DMem.Access(issue+1, mem.Req{Addr: mem.Addr(info.Addr), Bytes: opInfo.AccessBytes, Kind: mem.Read})
			prod = prodLoad
			lq[lqHead] = done
			lqHead = (lqHead + 1) % cfg.LoadQueueDepth
		case opInfo.Mem == 's':
			res.Stores++
			if in.Op.IsVector() {
				res.VecStores++
			}
			start := issue + 1
			if drainTail > start {
				start = drainTail
			}
			retire := c.DMem.Access(start, mem.Req{Addr: mem.Addr(info.Addr), Bytes: opInfo.AccessBytes, Kind: mem.Write})
			drainTail = retire
			sbuf[sbHead] = retire
			sbHead = (sbHead + 1) % cfg.StoreBufDepth
			done = issue + 1 // the core moves on once the store is buffered
		case opInfo.Mem == 'p':
			res.Prefetches++
			c.DMem.Access(issue+1, mem.Req{Addr: mem.Addr(info.Addr), Bytes: opInfo.AccessBytes, Kind: mem.Prefetch})
			done = issue + 1
		}

		switch in.Op {
		case isa.OpDIV, isa.OpREM, isa.OpFDIV, isa.OpVDIV:
			divFree = done
		}

		// Branch resolution and prediction.
		if in.Op.IsBranch() && in.Op != isa.OpHALT {
			res.Branches++
			mispredicted := false
			if in.Op.IsCondBranch() {
				predTaken := pred.predict(pc)
				pred.update(pc, info.Taken)
				mispredicted = predTaken != info.Taken
			} else if in.Op == isa.OpJR {
				mispredicted = true // no return-address stack modelled
			}
			if mispredicted {
				res.Mispredicts++
				redirectAt = issue + 1 + cfg.MispredictPenalty
				res.BranchStallCycles += cfg.MispredictPenalty
			}
		}

		// Register writeback.
		if opInfo.DstClass != isa.RCNone && opInfo.Mem != 's' {
			if i := regIdx(opInfo.DstClass, in.Rd); i >= 0 && !(opInfo.DstClass == isa.RCInt && in.Rd == isa.ZR) {
				regs.ready[i] = done
				regs.prod[i] = prod
			}
		}
		if done > maxDone {
			maxDone = done
		}
	}

	// Let the store buffer drain.
	if drainTail > maxDone {
		maxDone = drainTail
	}
	res.Cycles = maxDone
	return res, nil
}

// queueSlots returns a zeroed queue of depth n, using the stack-backed
// scratch when it fits.
func queueSlots(scratch []int64, n int) []int64 {
	if n <= len(scratch) {
		return scratch[:n]
	}
	return make([]int64, n)
}

// latencyOf gives the execute latency of each opcode class (cycles).
// Functional units are fully pipelined except the dividers, which the
// run loop serializes via divFree.
func latencyOf(op isa.Opcode) int64 {
	switch op {
	case isa.OpMUL, isa.OpMULI:
		return 3
	case isa.OpDIV, isa.OpREM:
		return 12
	case isa.OpFADD, isa.OpFSUB:
		return 3
	case isa.OpFMUL:
		return 4
	case isa.OpFDIV:
		return 14
	case isa.OpFCVT, isa.OpFTOI:
		return 3
	case isa.OpFSLT, isa.OpFSLE, isa.OpFSEQ, isa.OpFMAX, isa.OpFMIN:
		return 2
	case isa.OpVADD, isa.OpVSUB:
		return 3
	case isa.OpVMIN, isa.OpVMAX, isa.OpVCLT, isa.OpVCLE, isa.OpVCEQ:
		return 2
	case isa.OpVMUL:
		return 4
	case isa.OpVFMA:
		return 5
	case isa.OpVDIV:
		return 16
	case isa.OpVSUM:
		return 4
	case isa.OpVSPLAT:
		return 2
	default:
		return 1
	}
}
