// Replay timing kernel (DESIGN.md §7.9).
//
// The replay hot loop exists once, as replayState.run, and calls the
// data port through the mem.Port interface whatever front end sits
// behind it. Instruction fetch has one fast path: when the IL1 is a
// bare *cache.Cache, the loop keeps the line of its last fetch hit open
// (cache.OpenFetch), and a fetch that stays on it is served by
// cache.FetchHit, the read hit without the lookup. Any other fetch —
// every fetch through any other instruction port (an IL1 front end, the
// timing oracle's wrapper), and a miss on the bare IL1 — takes
// imem.Access and drops the open line, which the access may evict.
//
// The kernel runs records [lo, hi), so the one driver
// (CPU.ReplayTraceCtl) hoists all partial-replay control — truncation,
// budgets, abort probes, interrupt probes — out of the loop into range
// boundaries: a probe every K records becomes a kernel call of K
// records, and the common nil-ctl replay is one call for the whole pass
// with zero per-record control overhead. Live execution (CPU.RunState)
// is the independent reference the kernel is checked against (the
// Fig. 3 equivalence matrix in internal/replay).
//
// The register scoreboard is packed: ready[r] holds done<<1 | loadBit,
// so the operand-readiness maximum and its load attribution come out of
// one comparison chain. For registers with equal readiness the packed
// maximum prefers the load-produced one, which is exactly RunState's
// OR-on-tie attribution rule ("some register whose readiness equals the
// maximum was produced by a load").
package cpu

import (
	"sttdl1/internal/cache"
	"sttdl1/internal/isa"
	"sttdl1/internal/mem"
)

// pos64 returns max(d, 0) branch-free. The kernel uses it to turn the
// data-dependent stall comparisons — which the host branch predictor
// cannot learn, because they follow the simulated program's data flow —
// into straight-line arithmetic.
func pos64(d int64) int64 { return d &^ (d >> 63) }

// noLine is the closed value of run's open fetch line; it can never be a
// real line number (addresses are far below 2^64 lines).
const noLine = ^mem.Addr(0)

// replayState is the complete loop-carried state of one configuration's
// timing pass, factored out of the loop so the kernel can run it in record
// ranges (probe intervals). The sbuf/lq slices alias the embedded arrays,
// so a replayState must not be copied once built.
type replayState struct {
	// Loop-carried scalars (see RunState for their meaning).
	lastIssue  int64
	fetchLast  int64
	redirectAt int64
	divFree    int64
	maxDone    int64
	drainTail  int64
	fetchStall int64
	readStall  int64
	writeStall int64
	slotsUsed  int
	fetchSlots int
	sbHead     int
	lqHead     int
	mpK        int

	// Pass-immutable geometry and streams.
	issueWidth int
	penalty    int64
	maxInsts   uint64
	codeBase   mem.Addr
	tr         *Trace
	imem, dmem mem.Port
	// il1 is non-nil when the instruction side is a bare cache (its
	// open line serves same-line fetch hits).
	il1      *cache.Cache
	il1Shift uint

	// pred is the pass's branch predictor; its counters carry across
	// record ranges exactly as RunState's do across instructions.
	pred bpred

	sbuf, lq []int64

	// ready is the packed replay register file: architectural slots plus
	// the two dummy slots, each holding done<<1 | loadBit. srcDummy stays
	// zero (ready 0, ALU producer) forever; dstDummy is a sink. The array
	// is padded to 256 entries so that indexing by a uint8 register field
	// can never be out of bounds and the compiler drops the bounds check
	// on all four scoreboard accesses per record; slots past dstDummy are
	// never addressed by decoded operands and stay zero.
	ready [256]int64

	sbufArr, lqArr [16]int64
}

// newReplayState wires one timing pass of c over tr: it resolves c's
// configuration and builds a fresh branch predictor.
func newReplayState(c *CPU, tr *Trace) *replayState {
	cfg := c.Cfg.withDefaults()
	st := &replayState{maxInsts: cfg.MaxInsts, tr: tr, pred: *newBpred(cfg.BpredEntries)}
	st.issueWidth = cfg.IssueWidth
	st.penalty = cfg.MispredictPenalty
	st.codeBase = mem.Addr(cfg.CodeBase)
	st.imem, st.dmem = c.IMem, c.DMem
	st.sbuf = queueSlots(st.sbufArr[:], cfg.StoreBufDepth)
	st.lq = queueSlots(st.lqArr[:], cfg.LoadQueueDepth)
	if il1, ok := c.IMem.(*cache.Cache); ok {
		st.il1 = il1
		st.il1Shift = il1.LineShift()
	}
	return st
}

// finish closes the pass over its first n records: it assembles the
// Result, whose retirement counters cover exactly those n records. The
// mispredict count is the kernel's own tally of the redirects it took.
func (st *replayState) finish(n int) *Result {
	tc := st.tr.counts
	if n < st.tr.Len() {
		// The partial result mirrors a live run's state at the cut.
		tc = st.tr.count(n)
	}
	res := &Result{State: st.tr.Final}
	res.FetchStallCycles = st.fetchStall
	res.ReadStallCycles = st.readStall
	res.WriteStallCycles = st.writeStall
	res.Insts = uint64(n)
	res.Loads, res.Stores, res.Prefetches = tc.loads, tc.stores, tc.prefetches
	res.VecLoads, res.VecStores = tc.vecLoads, tc.vecStores
	res.Branches = tc.branches
	res.Mispredicts = uint64(st.mpK)
	res.BranchStallCycles = int64(st.mpK) * st.penalty
	res.Cycles = max(st.maxDone, st.drainTail)
	return res
}

// run replays records [lo, hi), one inner loop per trace chunk. Three
// mechanical loop-body strength reductions keep it fast: each chunk's
// record arrays are re-sliced to the range's end within the chunk and
// the index starts at a masked, so non-negative, offset, which lets the
// compiler prove the PC and address loads in bounds; the 8-byte decode
// entry is loaded by value into a register instead of chased through a
// pointer ten times; and the open fetch line lives in locals. The open
// line starts closed on every call (curLine holds noLine, which no
// fetch's line number equals).
func (st *replayState) run(lo, hi int) {
	var (
		ready      = &st.ready
		chunks     = st.tr.chunks
		dec        = st.tr.dec
		imem, dmem = st.imem, st.dmem
		codeBase   = st.codeBase
		issueWidth = st.issueWidth
		sbuf, lq   = st.sbuf, st.lq
		sbDepth    = len(sbuf)
		lqDepth    = len(lq)
		pred       = &st.pred
		il1        = st.il1
		il1Shift   = st.il1Shift

		open    cache.FetchLine
		curLine = noLine

		lastIssue  = st.lastIssue
		slotsUsed  = st.slotsUsed
		fetchLast  = st.fetchLast
		fetchSlots = st.fetchSlots
		redirectAt = st.redirectAt
		divFree    = st.divFree
		maxDone    = st.maxDone
		drainTail  = st.drainTail
		fetchStall = st.fetchStall
		readStall  = st.readStall
		writeStall = st.writeStall
		sbHead     = st.sbHead
		lqHead     = st.lqHead
		mpK        = st.mpK
	)
	for lo < hi {
		c, first := chunks[lo>>chunkShift], lo&^chunkMask // first: record index of entry 0
		end := min(hi-first, chunkRecs)
		pcs, addrs, taken := c.pcs[:end], c.addrs[:end], &c.taken
		for j := lo & chunkMask; j < end; j++ {
			pc, addr := int(pcs[j]), mem.Addr(addrs[j])
			d := dec[pc]

			fetchAt := max(fetchLast, redirectAt)
			if fetchAt > fetchLast {
				fetchLast = fetchAt
				fetchSlots = 1
			} else {
				fetchSlots++
				if fetchSlots > issueWidth {
					fetchLast++
					fetchAt = fetchLast
					fetchSlots = 1
				}
			}
			fetchAddr := codeBase + mem.Addr(pc)*isa.InstBytes
			var fetchDone int64
			line := fetchAddr >> il1Shift
			if line != curLine && il1 != nil {
				if fl, ok := il1.OpenFetch(line); ok {
					open, curLine = fl, line
				}
			}
			if line == curLine {
				fetchDone = il1.FetchHit(fetchAt, open)
			} else {
				fetchDone = imem.Access(fetchAt, mem.Req{Addr: fetchAddr, Bytes: isa.InstBytes, Kind: mem.Fetch})
				curLine = noLine
			}

			base := max(fetchDone, redirectAt)
			fetchStall += pos64(fetchDone - (lastIssue + 1))

			pk := max(ready[d.srcA], ready[d.srcB], ready[d.srcD])
			opnd := pk >> 1

			// An operand stall is charged to loads exactly when the packed
			// maximum carries the load bit; -(pk&1) is its all-ones mask.
			issue := base
			rpos := pos64(opnd - issue)
			readStall += rpos & -(pk & 1)
			issue += rpos
			if d.flags&dfDiv != 0 && divFree > issue {
				issue = divFree
			}
			if m := d.mem; m != 0 {
				if m == 's' {
					wpos := pos64(sbuf[sbHead] - issue)
					writeStall += wpos
					issue += wpos
				} else if m == 'l' {
					lpos := pos64(lq[lqHead] - issue)
					readStall += lpos
					issue += lpos
				}
			}

			issue = max(issue, lastIssue)
			if issue == lastIssue {
				if slotsUsed >= issueWidth {
					issue++
					slotsUsed = 1
				} else {
					slotsUsed++
				}
			} else {
				slotsUsed = 1
			}
			lastIssue = issue

			done := issue + int64(d.lat)
			var loadBit int64
			if d.mem != 0 {
				switch d.mem {
				case 'l':
					done = dmem.Access(issue+1, mem.Req{Addr: addr, Bytes: int(d.accessBytes), Kind: mem.Read})
					loadBit = 1
					lq[lqHead] = done
					if lqHead++; lqHead == lqDepth {
						lqHead = 0
					}
				case 's':
					start := max(issue+1, drainTail)
					retire := dmem.Access(start, mem.Req{Addr: addr, Bytes: int(d.accessBytes), Kind: mem.Write})
					drainTail = retire
					sbuf[sbHead] = retire
					if sbHead++; sbHead == sbDepth {
						sbHead = 0
					}
					done = issue + 1
				case 'p':
					dmem.Access(issue+1, mem.Req{Addr: addr, Bytes: int(d.accessBytes), Kind: mem.Prefetch})
					done = issue + 1
				}
			}

			if d.flags&dfDiv != 0 {
				divFree = done
			}

			// Branch prediction, as in RunState: a conditional branch
			// mispredicts when the 2-bit counter disagrees with the
			// recorded direction, an indirect jump always does.
			if d.flags&(dfCondBr|dfJR) != 0 {
				miss := true
				if d.flags&dfCondBr != 0 {
					t := taken[j>>6]&(1<<uint(j&63)) != 0
					miss = pred.predict(pc) != t
					pred.update(pc, t)
				}
				if miss {
					redirectAt = issue + 1 + st.penalty
					mpK++
				}
			}

			ready[d.dst] = done<<1 | loadBit
			maxDone = max(maxDone, done)
		}
		lo = first + end
	}
	st.lastIssue = lastIssue
	st.slotsUsed = slotsUsed
	st.fetchLast = fetchLast
	st.fetchSlots = fetchSlots
	st.redirectAt = redirectAt
	st.divFree = divFree
	st.maxDone = maxDone
	st.drainTail = drainTail
	st.fetchStall = fetchStall
	st.readStall = readStall
	st.writeStall = writeStall
	st.sbHead = sbHead
	st.lqHead = lqHead
	st.mpK = mpK
}
