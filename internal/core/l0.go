package core

import "sttdl1/internal/mem"

// L0Cache is the paper's first Fig. 8 comparison point: "a variation of
// the commonly used L0 cache" (as in TI's TMS320C64x DSPs), made fully
// associative and sized like the VWB (2 Kbit) for fairness, but — unlike
// the VWB — with a narrow interface that "conforms to the interface of
// the regular size memory array".
//
// The narrow interface is the handicap: a refill moves the line in
// word-beats over the regular datapath, so after the critical word
// arrives the L0 port *and* the DL1 bank stay busy for the remaining
// beats, stalling back-to-back misses and hits alike.
type L0Cache struct {
	buf      buffer
	dl1      mem.Port
	hitLat   int64
	beats    int64 // refill beats after the critical word
	portFree int64
	stats    mem.Stats

	// Refills counts line fills into the L0.
	Refills uint64
	// PortStallCycles accumulates cycles accesses waited on the single
	// narrow port (mostly refill shadows).
	PortStallCycles int64
}

// L0Config sizes the mini cache.
type L0Config struct {
	SizeBits int
	LineSize int
	HitLat   int64
	// BeatBytes is the width of the narrow refill interface (8 bytes,
	// the scalar datapath width, unless overridden).
	BeatBytes int
}

// DefaultL0Config matches the Fig. 8 setup: 2 Kbit, DL1 line size,
// 1-cycle hits, refills in 256-bit beats (the "regular size memory
// array" interface width of Table I's SRAM column).
func DefaultL0Config() L0Config {
	return L0Config{SizeBits: 2048, LineSize: 64, HitLat: 1, BeatBytes: 32}
}

// NewL0 builds the L0 mini-cache in front of dl1.
func NewL0(cfg L0Config, dl1 mem.Port) *L0Cache {
	checkSize("L0", cfg.SizeBits, cfg.LineSize)
	if cfg.HitLat <= 0 {
		cfg.HitLat = 1
	}
	if cfg.BeatBytes <= 0 {
		cfg.BeatBytes = 32
	}
	return &L0Cache{
		buf:    newBuffer(cfg.SizeBits, cfg.LineSize),
		dl1:    dl1,
		hitLat: cfg.HitLat,
		beats:  int64(cfg.LineSize / cfg.BeatBytes),
	}
}

// Name implements FrontEnd.
func (l *L0Cache) Name() string { return "l0" }

// Stats implements FrontEnd.
func (l *L0Cache) Stats() mem.Stats { return l.stats }

// Contains reports residence of addr's line (tests only).
func (l *L0Cache) Contains(addr mem.Addr) bool { return l.buf.contains(addr) }

// BusyClocks returns the narrow-port busy-until clock, for the invariant
// checker's monotonicity check.
func (l *L0Cache) BusyClocks() []int64 { return []int64{l.portFree} }

// waitPort advances now past the narrow port's busy clock. Only
// core-visible waits charge PortStallCycles: a software prefetch is
// fire-and-forget, so its issue waits for the port (charge=false) but
// never stalls the core.
func (l *L0Cache) waitPort(now int64, charge bool) int64 {
	if l.portFree > now {
		if charge {
			l.PortStallCycles += l.portFree - now
		}
		now = l.portFree
	}
	return now
}

// Access implements mem.Port.
func (l *L0Cache) Access(now int64, req mem.Req) int64 {
	lineAddr := mem.LineAddr(req.Addr, l.buf.lineSize)
	e := l.buf.find(lineAddr)

	switch req.Kind {
	case mem.Read, mem.Fetch:
		start := l.waitPort(now, true)
		if e != nil {
			e.spec = false
			l.buf.touch(e)
			l.stats.Record(mem.Read, true)
			if e.ready > start {
				start = e.ready
			}
			done := start + l.hitLat
			l.portFree = done
			return done
		}
		l.stats.Record(mem.Read, false)
		return l.refill(start, lineAddr)

	case mem.Write:
		start := l.waitPort(now, true)
		if e != nil {
			l.buf.touch(e)
			e.dirty = true
			l.stats.Record(mem.Write, true)
			if e.ready > start {
				start = e.ready
			}
			done := start + l.hitLat
			l.portFree = done
			return done
		}
		l.stats.Record(mem.Write, false)
		return l.dl1.Access(start, req)

	case mem.Prefetch:
		// Non-blocking: resident or filtered hints cost nothing, a useful
		// one issues its refill once the port frees — the core never
		// waits either way.
		if e != nil || l.buf.prefetchFiltered(now, lineAddr) {
			l.stats.Record(mem.Prefetch, true)
			return now
		}
		l.stats.Record(mem.Prefetch, false)
		l.refill(l.waitPort(now, false), lineAddr)
		if sp := l.buf.find(lineAddr); sp != nil {
			sp.spec = true
		}
		return now

	default:
		return l.dl1.Access(l.waitPort(now, true), req)
	}
}

// refill fetches lineAddr through the narrow interface. The critical word
// reaches the core when the DL1 read completes; the remaining beats keep
// the port busy afterwards.
func (l *L0Cache) refill(start int64, lineAddr mem.Addr) int64 {
	critical := l.dl1.Access(start, mem.Req{Addr: lineAddr, Bytes: l.buf.lineSize, Kind: mem.Fill})
	l.Refills++

	victim := l.buf.victim(start)
	if victim.valid && victim.dirty {
		// Dirty castouts drain through the DL1's write path; issued at
		// the refill start so port timestamps stay monotone.
		l.dl1.Access(start, mem.Req{Addr: victim.lineAddr, Bytes: l.buf.lineSize, Kind: mem.WriteBack})
	}
	l.portFree = critical + l.beats
	*victim = entry{lineAddr: lineAddr, valid: true, ready: critical + l.beats}
	l.buf.touch(victim)
	return critical
}

// ResetTiming implements FrontEnd.
func (l *L0Cache) ResetTiming() {
	l.buf.resetTiming()
	l.portFree = 0
	l.stats = mem.Stats{}
	l.Refills = 0
	l.PortStallCycles = 0
}
