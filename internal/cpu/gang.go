// Replay driver: one trace walk, K configurations (DESIGN.md §7.9).
//
// A design-space sweep replays the same trace once per configuration, so
// the multi-megabyte record stream — PCs, effective addresses, decode
// entries — would be re-read from memory K times for K design points.
// ReplayTraceGang walks the trace once for a batch of configurations in
// chunk-major order: a chunk of records sized to stay cache-resident is
// replayed to completion by each member in turn, then the walk advances
// to the next chunk. Members after the first read the chunk's stream out
// of the host cache instead of DRAM, and each member's loop-carried
// state plus hierarchy hot set stays resident for the whole chunk.
//
// Each member keeps a private replayState over its own port topology, so
// member timing is fully disjoint: chunk-major execution is a pure
// reordering of independent per-member passes, and every member's
// result is cycle- and counter-identical to its own one-member walk
// (enforced by the gang equivalence and metamorphic tests). It is the
// only replay driver: ReplayTrace is a walk of one.
package cpu

import (
	"fmt"
	"math"
)

// walkChunk is the record granularity of the shared walk: 1<<14 records
// is 128 KB of PC+address stream — comfortably inside the host L2 next
// to a member's working set, and coarse enough that the per-chunk
// kernel-call overhead vanishes.
const walkChunk = 1 << 14

// ReplayTraceGang replays tr once for every CPU in cpus (each a fully
// private configuration + hierarchy) under ctl and returns their
// Results in member order.
//
// The walk runs in record ranges bounded by the next walk chunk, the
// next Abort or Interrupt probe and each member's own end, so the
// replay loop itself carries no control arithmetic. A member ends at
// ctl.MaxRecords (0 = the whole trace) or, when the trace is longer
// than its MaxInsts budget, at that budget: its Result then holds the
// budget's prefix and faults[k] the budget *Fault, while the other
// members walk on. An Abort probe is called with the smallest cycle
// lower bound among the members still walking; returning true stops
// them all there and the walk reports aborted. A non-nil Interrupt
// return abandons the whole walk with that error and no results.
func ReplayTraceGang(tr *Trace, cpus []*CPU, ctl *ReplayCtl) (res []*Result, faults []error, aborted bool, err error) {
	var c ReplayCtl
	if ctl != nil {
		c = *ctl
	}
	n := tr.Len()
	if c.MaxRecords > 0 && c.MaxRecords < n {
		n = c.MaxRecords
	}
	members := make([]*replayState, len(cpus))
	walkEnd := 0
	for k, cp := range cpus {
		st := newReplayState(cp, tr)
		st.end = n
		if st.maxInsts < uint64(tr.Len()) && st.maxInsts <= uint64(n) {
			st.end, st.budgeted = int(st.maxInsts), true
		}
		walkEnd = max(walkEnd, st.end)
		members[k] = st
	}
	nextProbe := -1 // record count of the next Abort probe (-1 = never)
	if c.Abort != nil && c.CheckEvery > 0 {
		nextProbe = c.CheckEvery
	}
	nextIntr, intrEvery := -1, 0 // record count of the next Interrupt probe
	if c.Interrupt != nil {
		intrEvery = c.InterruptEvery
		if intrEvery <= 0 {
			intrEvery = 1 << 16
		}
		nextIntr = intrEvery
	}
	for pos := 0; pos < walkEnd; {
		hi := min(pos&^(walkChunk-1)+walkChunk, walkEnd)
		if nextProbe > 0 {
			hi = min(hi, nextProbe)
		}
		if nextIntr > 0 {
			hi = min(hi, nextIntr)
		}
		for _, st := range members {
			if pos < st.end {
				st.run(pos, min(hi, st.end))
			}
		}
		pos = hi
		// Abort probe: maxDone only grows, so the smallest one among the
		// members still walking is a sound lower bound of each of their
		// final cycle counts.
		if pos == nextProbe {
			low := int64(math.MaxInt64)
			for _, st := range members {
				if st.end >= pos {
					low = min(low, st.maxDone)
				}
			}
			if c.Abort(low) {
				aborted = true
				for _, st := range members {
					if st.end > pos {
						st.end, st.budgeted = pos, false
					}
				}
				break
			}
			nextProbe += c.CheckEvery
		}
		// Interrupt probe: abandon the walk with the probe's error. The
		// members' systems are discarded with it, so their open fetch
		// streams' unflushed bookkeeping is irrelevant.
		if pos == nextIntr {
			if err := c.Interrupt(); err != nil {
				return nil, nil, false, err
			}
			nextIntr += intrEvery
		}
	}
	res = make([]*Result, len(members))
	faults = make([]error, len(members))
	for k, st := range members {
		res[k] = st.finish(st.end)
		if st.budgeted {
			pc := tr.chunks[st.end>>chunkShift].pcs[st.end&chunkMask] // the first record past the budget
			faults[k] = &Fault{PC: int(pc), Msg: fmt.Sprintf("instruction budget %d exhausted (runaway loop?)", st.maxInsts)}
		}
	}
	return res, faults, aborted, nil
}
