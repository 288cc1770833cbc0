// Replay timing kernel (DESIGN.md §7.9).
//
// The replay hot loop exists once, as replayState.run, and calls the
// data port through the mem.Port interface whatever front end sits
// behind it. Instruction fetch has one fast path: when the IL1 is a
// bare *cache.Cache, a FetchStream keeps the current line open and a
// fetch that stays on it never leaves the loop; a line switch goes
// through FetchStream.Switch. Any other instruction port (an IL1 front
// end, the timing oracle's wrapper) leaves the stream closed, so its
// CurLine sentinel never matches and every fetch takes imem.Access.
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
	nextMp     int
	mpK        int

	// Pass-immutable geometry and streams.
	issueWidth int
	penalty    int64
	maxInsts   uint64
	codeBase   mem.Addr
	tr         *Trace
	mpIdx      []int32
	imem, dmem mem.Port
	// il1 is non-nil when the instruction side is a bare cache (the
	// FetchStream serves its hits).
	il1      *cache.Cache
	il1Shift uint

	fs cache.FetchStream

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
// configuration, binds the trace's mispredict stream, and opens the
// fetch stream on a bare IL1.
func newReplayState(c *CPU, tr *Trace) *replayState {
	cfg := c.Cfg.withDefaults()
	st := &replayState{maxInsts: cfg.MaxInsts, tr: tr}
	st.mpIdx = tr.mispredicts(cfg.BpredEntries).idx
	st.issueWidth = cfg.IssueWidth
	st.penalty = cfg.MispredictPenalty
	st.codeBase = mem.Addr(cfg.CodeBase)
	st.nextMp = -1
	if len(st.mpIdx) > 0 {
		st.nextMp = int(st.mpIdx[0])
	}
	st.imem, st.dmem = c.IMem, c.DMem
	st.sbuf = queueSlots(st.sbufArr[:], cfg.StoreBufDepth)
	st.lq = queueSlots(st.lqArr[:], cfg.LoadQueueDepth)
	st.fs.CurLine = cache.NoFetchLine
	if il1, ok := c.IMem.(*cache.Cache); ok {
		st.il1 = il1
		st.il1Shift = il1.LineShift()
		st.fs.Init(il1)
	}
	return st
}

// finish closes the pass over its first n records: it flushes the fetch
// stream and assembles the Result, whose retirement counters cover
// exactly those n records. The mispredict count is the kernel's own
// tally of the redirects it took.
func (st *replayState) finish(n int) *Result {
	st.fs.Close()
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
// pointer ten times; and the FetchStream's hot fields live in locals
// (written back before any Switch/Close so the stream's flush
// arithmetic stays exact).
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
		mpIdx      = st.mpIdx
		fs         = &st.fs
		il1Shift   = st.il1Shift

		lat, ival   = fs.Lat, fs.Ival
		curLine     = fs.CurLine
		curReady    = fs.CurReady
		curBankFree = fs.CurBankFree
		seq         = fs.Seq
		conflicts   = fs.Conflicts
		huf         = fs.HUF

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
		nextMp     = st.nextMp
		mpK        = st.mpK
	)
	for lo < hi {
		c, first := chunks[lo>>chunkShift], lo&^chunkMask // first: record index of entry 0
		end := min(hi-first, chunkRecs)
		pcs, addrs := c.pcs[:end], c.addrs[:end]
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
			if line := fetchAddr >> il1Shift; line == curLine {
				cpos := pos64(*curBankFree - fetchAt) // bank-conflict delay, 0 when free
				conflicts += cpos
				start := fetchAt + cpos
				fetchDone = start + lat
				*curBankFree = start + ival
				seq++
				hpos := pos64(curReady - fetchDone) // hit-under-fill cap, 0 when filled
				huf += hpos
				fetchDone += hpos
			} else {
				// Line switch: sync the stream's counters (Switch may flush a
				// slot or Close, both of which read them), then reload every
				// local from the stream's post-switch state. Without a bare
				// IL1 the stream stays closed and every fetch lands here.
				fs.Seq, fs.Conflicts, fs.HUF = seq, conflicts, huf
				if st.il1 != nil && fs.Switch(line) {
					curLine, curReady, curBankFree = fs.CurLine, fs.CurReady, fs.CurBankFree
					start := fetchAt
					if bf := *curBankFree; bf > start {
						conflicts += bf - start
						start = bf
					}
					fetchDone = start + lat
					*curBankFree = start + ival
					seq++
					if fetchDone < curReady {
						huf += curReady - fetchDone
						fetchDone = curReady
					}
				} else {
					fetchDone = imem.Access(fetchAt, mem.Req{Addr: fetchAddr, Bytes: isa.InstBytes, Kind: mem.Fetch})
					curLine, curReady, curBankFree = fs.CurLine, fs.CurReady, fs.CurBankFree
					seq, conflicts, huf = fs.Seq, fs.Conflicts, fs.HUF
				}
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

			if first+j == nextMp {
				redirectAt = issue + 1 + st.penalty
				nextMp = -1
				if mpK++; mpK < len(mpIdx) {
					nextMp = int(mpIdx[mpK])
				}
			}

			ready[d.dst] = done<<1 | loadBit
			maxDone = max(maxDone, done)
		}
		lo = first + end
	}
	fs.Seq, fs.Conflicts, fs.HUF = seq, conflicts, huf
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
	st.nextMp = nextMp
	st.mpK = mpK
}
