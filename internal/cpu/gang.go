// Gang replay: one trace walk, K configurations (DESIGN.md §7.9).
//
// A design-space sweep replays the same trace once per configuration, so
// the multi-megabyte record stream — PCs, effective addresses, decode
// entries — is re-read from memory K times for K design points.
// ReplayTraceGang walks the trace once for a batch of configurations in
// chunk-major order: a chunk of records sized to stay cache-resident is
// replayed to completion by each member in turn (exactly as in serial
// replay), then the gang advances to the next chunk. Members after the
// first read the chunk's stream out of the host cache instead of DRAM,
// and each member's loop-carried state plus hierarchy hot set stays
// resident for the whole chunk.
//
// Each member keeps a private replayState over its own port topology, so
// member timing is fully disjoint: chunk-major execution is a pure
// reordering of independent per-member passes, and every member's
// result is cycle- and counter-identical to its own serial replay
// (enforced by the gang equivalence and metamorphic tests). Gang replay
// handles full passes only — truncation, abort probes, and budget
// faults are per-configuration concerns that break the shared walk;
// callers fall back to serial replay for those.
package cpu

import (
	"fmt"

	"sttdl1/internal/isa"
)

// gangChunk is the record granularity of the shared walk: 1<<14 records
// is 128 KB of PC+address stream — comfortably inside the host L2 next
// to a member's working set, and coarse enough that the per-chunk
// kernel-call and interrupt-probe overhead vanishes.
const gangChunk = 1 << 14

// ReplayTraceGang replays tr once for every CPU in cpus (each a fully
// private configuration + hierarchy) and returns their Results in
// member order. interrupt, when non-nil, is probed between chunks at
// least every intrEvery records (<= 0 means every 65536) exactly like
// ReplayCtl.Interrupt: a non-nil return abandons the whole gang with
// that error and no results. Unlike ReplayTraceCtl there is no
// truncation or abort control, and a trace longer than any member's
// instruction budget is rejected up front (the caller replays that
// configuration serially to get its ordinary budget fault).
func ReplayTraceGang(prog *isa.Program, tr *Trace, cpus []*CPU, interrupt func() error, intrEvery int) ([]*Result, error) {
	if len(cpus) == 0 {
		return nil, nil
	}
	n := len(tr.PCs)
	members := make([]*replayState, len(cpus))
	for k, c := range cpus {
		members[k] = newReplayState(c, prog, tr)
		if budget := members[k].maxInsts; uint64(n) > budget {
			return nil, fmt.Errorf("cpu: gang replay member %d: trace length %d exceeds instruction budget %d", k, n, budget)
		}
	}
	every := 0
	if interrupt != nil {
		every = intrEvery
		if every <= 0 {
			every = 1 << 16
		}
	}
	sinceProbe := 0
	for lo := 0; lo < n; lo += gangChunk {
		hi := lo + gangChunk
		if hi > n {
			hi = n
		}
		for _, st := range members {
			st.run(lo, hi)
		}
		if every > 0 && hi < n {
			if sinceProbe += hi - lo; sinceProbe >= every {
				sinceProbe = 0
				if err := interrupt(); err != nil {
					return nil, err
				}
			}
		}
	}
	out := make([]*Result, len(cpus))
	for k, st := range members {
		out[k] = st.finish(n)
	}
	return out, nil
}
