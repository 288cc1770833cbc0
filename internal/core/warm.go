package core

import "fmt"

// Warm-state sharing (DESIGN.md §7.9): a sweep warms one representative
// per group of timing-only variants and copies its post-warm-up state
// into the other members. These helpers expose a front end's share of
// that state.

// buffered is implemented by every front end built on a buffer.
type buffered interface{ state() *buffer }

func (v *VWB) state() *buffer     { return &v.buf }
func (l *L0Cache) state() *buffer { return &l.buf }
func (m *EMSHR) state() *buffer   { return &m.buf }
func (b *Bypass) state() *buffer  { return &b.buf }

// Witness returns how many decisions of fe about resident lines read a
// cycle clock since it was built or Reset (ResetTiming keeps the
// count). Direct holds no state and never consults a clock.
func Witness(fe FrontEnd) uint64 {
	if b, ok := fe.(buffered); ok {
		return b.state().witness
	}
	return 0
}

// CopyWarm copies src's persistent state into dst: the buffer entries,
// the recency clock, the FIFO pointer and the full latch, plus the
// bypass predictor's stream table and clock. dst and src must be the
// same structure with the same geometry, both just past ResetTiming,
// so every cycle clock is already zero on both sides.
func CopyWarm(dst, src FrontEnd) {
	if d, ok := dst.(buffered); ok {
		d.state().copyWarm(src.(buffered).state())
	}
	if d, ok := dst.(*Bypass); ok {
		s := src.(*Bypass)
		copy(d.pred, s.pred)
		d.predClock = s.predClock
	}
}

// WarmDiff names the first field of persistent state (the fields
// CopyWarm copies) in which fe differs from rep, "" when none does.
func WarmDiff(fe, rep FrontEnd) string {
	if f, ok := fe.(buffered); ok {
		if d := f.state().warmDiff(rep.(buffered).state()); d != "" {
			return d
		}
	}
	if f, ok := fe.(*Bypass); ok {
		r := rep.(*Bypass)
		for i := range f.pred {
			if f.pred[i] != r.pred[i] {
				return fmt.Sprintf("predictor stream %d: %+v, representative has %+v", i, f.pred[i], r.pred[i])
			}
		}
		if f.predClock != r.predClock {
			return fmt.Sprintf("predClock %d, representative has %d", f.predClock, r.predClock)
		}
	}
	return ""
}

// copyWarm copies src's persistent state — entries, recency clock and
// replacement bookkeeping — into b. Both must have the same geometry
// and be just past resetTiming, so entry clocks are already zero.
func (b *buffer) copyWarm(src *buffer) {
	copy(b.entries, src.entries)
	b.useClock, b.fifoNext, b.full = src.useClock, src.fifoNext, src.full
}

// warmDiff names the first field of persistent state in which b and
// other differ ("" when none).
func (b *buffer) warmDiff(other *buffer) string {
	for i := range b.entries {
		if b.entries[i] != other.entries[i] {
			return fmt.Sprintf("entry %d: %+v, representative has %+v", i, b.entries[i], other.entries[i])
		}
	}
	switch {
	case b.useClock != other.useClock:
		return fmt.Sprintf("useClock %d, representative has %d", b.useClock, other.useClock)
	case b.fifoNext != other.fifoNext:
		return fmt.Sprintf("fifoNext %d, representative has %d", b.fifoNext, other.fifoNext)
	case b.full != other.full:
		return fmt.Sprintf("full %t, representative has %t", b.full, other.full)
	}
	return ""
}
