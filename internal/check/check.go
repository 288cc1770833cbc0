// Package check implements a differential timing oracle for the memory
// hierarchy: a transparent mem.Port wrapper that verifies, on every
// access, the timing contract the simulator's conclusions rest on
// (DESIGN.md §7.2). The paper's headline numbers are cycle-count ratios,
// and NVM-cache studies are notoriously sensitive to small timing-model
// errors, so the oracle enforces three invariant families mechanically:
//
//  1. Causality — an access completes no earlier than it was issued, and
//     no access that consumes a line's data completes before the fill
//     that supplies the line.
//  2. Monotonicity — a component's internal busy-until clocks (cache
//     banks, the DRAM channel, front-end ports) never move backward
//     between timing resets.
//  3. State agreement — for caches, a simple functional shadow model
//     (set/tag contents, dirtiness, LRU order, MSHR exactly-once
//     occupancy) matches the timing model after every access.
//
// Wrapping is pass-through: the wrapped hierarchy returns exactly the
// timings the bare one would, so a checked run is bit-identical to an
// unchecked one. Violations are collected, not panicked, so a full run
// can report every distinct failure; sim.System surfaces them as an
// error after the run when Config.Check is set.
package check

import (
	"fmt"
	"strings"

	"sttdl1/internal/cache"
	"sttdl1/internal/mem"
)

// Violation is one observed breach of the timing contract.
type Violation struct {
	Port string  // component name ("DL1", "DRAM", ...)
	Time int64   // request cycle
	Req  mem.Req // the access that exposed it
	Msg  string
}

func (v Violation) Error() string {
	return fmt.Sprintf("check: %s @%d %s %#x+%d: %s", v.Port, v.Time, v.Req.Kind, v.Req.Addr, v.Req.Bytes, v.Msg)
}

// maxRecorded bounds the retained violation list; everything past it is
// only counted, so a systematically broken model cannot eat memory.
const maxRecorded = 16

// clocked is implemented by components that expose internal busy-until
// clocks (cache banks, the DRAM channel, front-end ports).
type clocked interface {
	BusyClocks() []int64
}

// Port wraps an inner mem.Port with the invariant checks that apply to
// it: causality always, monotonicity when the component exposes
// BusyClocks, shadow-state agreement when it is a *cache.Cache.
type Port struct {
	name  string
	inner mem.Port

	clocks clocked
	prev   []int64

	shadow *shadowCache

	total int
	viol  []Violation
}

// Wrap builds a checking wrapper around inner. The checks applied are
// discovered from the component's type; any mem.Port at least gets the
// causality check.
func Wrap(name string, inner mem.Port) *Port {
	p := &Port{name: name, inner: inner}
	if c, ok := inner.(clocked); ok {
		p.clocks = c
		p.prev = c.BusyClocks()
	}
	if c, ok := inner.(*cache.Cache); ok {
		p.shadow = newShadow(c)
	}
	return p
}

// Name returns the component name given to Wrap.
func (p *Port) Name() string { return p.name }

// Access implements mem.Port: it forwards to the wrapped component and
// verifies the invariants on the observed outcome.
func (p *Port) Access(now int64, req mem.Req) int64 {
	if p.shadow != nil {
		// MSHR occupancy before the access decides whether a prefetch
		// is dropped and whether the access allocated an entry.
		p.shadow.snapshotPre()
	}
	done := p.inner.Access(now, req)
	if done < now {
		p.record(now, req, fmt.Sprintf("causality: completes at %d, before the request", done))
	}
	if p.clocks != nil {
		cur := p.clocks.BusyClocks()
		for i := range cur {
			if i < len(p.prev) && cur[i] < p.prev[i] {
				p.record(now, req, fmt.Sprintf("monotonicity: busy clock %d moved backward %d -> %d", i, p.prev[i], cur[i]))
			}
		}
		p.prev = cur
	}
	if p.shadow != nil {
		p.shadow.step(p, now, req, done)
	}
	return done
}

func (p *Port) record(now int64, req mem.Req, msg string) {
	p.total++
	if len(p.viol) < maxRecorded {
		p.viol = append(p.viol, Violation{Port: p.name, Time: now, Req: req, Msg: msg})
	}
}

// Violations returns the retained violations (at most maxRecorded; see
// Total for the full count).
func (p *Port) Violations() []Violation { return p.viol }

// Total returns how many violations were observed, including ones past
// the retention bound.
func (p *Port) Total() int { return p.total }

// Err returns nil if the port observed no violations, else an error
// summarizing them.
func (p *Port) Err() error {
	if p.total == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d timing-contract violation(s) on %s:", p.total, p.name)
	for _, v := range p.viol {
		b.WriteString("\n  ")
		b.WriteString(v.Error())
	}
	if p.total > len(p.viol) {
		fmt.Fprintf(&b, "\n  ... and %d more", p.total-len(p.viol))
	}
	return fmt.Errorf("%s", b.String())
}

// ResetTiming re-baselines the checker after the wrapped component's
// clocks were reset (warm-up → measured-run methodology): busy clocks
// restart at their current values and in-flight fill bookkeeping is
// dropped, while shadow cache contents persist like the real contents.
func (p *Port) ResetTiming() {
	if p.clocks != nil {
		p.prev = p.clocks.BusyClocks()
	}
	if p.shadow != nil {
		p.shadow.resetTiming()
	}
}

// Audit runs the full shadow-state comparison (every set, not just the
// ones the last access touched). Call it at end of run; per-access
// checks only compare the sets an access can have modified.
func (p *Port) Audit() {
	if p.shadow != nil {
		p.shadow.audit(p)
	}
}

// Errs folds the Err of every port into one error (nil if all clean).
func Errs(ports []*Port) error {
	var msgs []string
	for _, p := range ports {
		if err := p.Err(); err != nil {
			msgs = append(msgs, err.Error())
		}
	}
	if msgs == nil {
		return nil
	}
	return fmt.Errorf("%s", strings.Join(msgs, "\n"))
}
