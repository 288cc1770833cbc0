package core

import "sttdl1/internal/mem"

// Bypass is a prediction-driven NVM read-bypass front-end in the spirit
// of Kokolis et al., "Hiding the Increased Non-Volatile Cache Read
// Latency" (PAPERS.md): a small stride predictor watches the demand
// read stream and pre-reads predicted-next lines out of the banked NVM
// array into a fast side buffer. A read the predictor anticipated is
// served from the buffer at SRAM-like latency, bypassing the long array
// sense entirely; a read it did not anticipate pays the full array
// latency — unlike the VWB there is no on-miss promotion, so the
// structure only ever wins when the predictor is right, and a wrong
// prediction costs a wasted wide array read on top of the baseline's
// own latency.
//
// Store policy: the side buffer is read-only. A store to a resident
// line invalidates the buffered copy and updates the DL1 directly, so
// a word always has a single source of truth (the oracle's shadow
// model relies on this). Buffer lines are therefore always clean and
// evictions are silent.
//
// Software prefetches pass straight through to the DL1: the side
// buffer is predictor-managed, and pass-through keeps the disabled
// structure cycle-identical to the Direct front-end.
type Bypass struct {
	buf      buffer
	dl1      mem.Port
	hitLat   int64
	transfer int64
	stats    mem.Stats

	// readFree is the single read port's busy-until clock; pre-reads
	// land through a separate fill port (like the VWB's two-row
	// organization), so only bypass hits serialize here.
	readFree int64

	pred      []stream
	predClock uint64

	// BypassHits counts reads served from the side buffer instead of
	// the NVM array (== the front-end's read hits; kept as an explicit
	// counter for reports).
	BypassHits uint64
	// PredFills counts predictor-triggered wide array pre-reads.
	PredFills uint64
	// Mispredicts counts pre-read rows evicted or invalidated before
	// any demand read touched them (each one a wasted array read).
	Mispredicts uint64
	// Invalidations counts store-induced kills of buffered lines.
	Invalidations uint64
	// PredWaitCycles accumulates cycles demand reads spent waiting for
	// an in-flight pre-read of their own line.
	PredWaitCycles int64
}

// stream is one entry of the stride predictor: a demand-read stream
// with its last line, detected stride and confidence.
type stream struct {
	lastLine int64
	stride   int64
	conf     int8
	valid    bool
	lastUse  uint64
}

// streamWindow is how far (in lines, either direction) a read may land
// from a stream's last line and still be considered its continuation.
const streamWindow = 8

// BypassConfig sizes the side buffer and the predictor.
type BypassConfig struct {
	// SizeBits is the side buffer's total capacity (line-wide rows,
	// fully associative, like the VWB's register-file organization).
	SizeBits int
	// LineSize is the DL1 line size in bytes (the pre-read width).
	LineSize int
	// HitLat is the buffer hit latency in cycles.
	HitLat int64
	// TransferCycles is the time to write a pre-read line into its row
	// after the array read delivers it.
	TransferCycles int64
	// PredEntries is the number of predictor streams (0 = default 16;
	// negative disables prediction — the front-end then degenerates to
	// an exact pass-through).
	PredEntries int
	// Policy selects the row replacement policy (default LRU).
	Policy EvictPolicy
}

// DefaultBypassConfig matches the VWB's footprint for fairness: 2 Kbit
// of rows over 512-bit lines, 1-cycle hits, plus a 16-stream predictor.
func DefaultBypassConfig() BypassConfig {
	return BypassConfig{SizeBits: 2048, LineSize: 64, HitLat: 1, TransferCycles: 1, PredEntries: 16}
}

// NewBypass builds the read-bypass structure in front of dl1.
func NewBypass(cfg BypassConfig, dl1 mem.Port) *Bypass {
	checkSize("Bypass", cfg.SizeBits, cfg.LineSize)
	if cfg.HitLat <= 0 {
		cfg.HitLat = 1
	}
	if cfg.TransferCycles < 0 {
		cfg.TransferCycles = 0
	}
	if cfg.PredEntries == 0 {
		cfg.PredEntries = 16
	}
	buf := newBuffer(cfg.SizeBits, cfg.LineSize)
	buf.policy = cfg.Policy
	b := &Bypass{
		buf:      buf,
		dl1:      dl1,
		hitLat:   cfg.HitLat,
		transfer: cfg.TransferCycles,
	}
	if cfg.PredEntries > 0 {
		b.pred = make([]stream, cfg.PredEntries)
	}
	return b
}

// Name implements FrontEnd.
func (b *Bypass) Name() string { return "bypass" }

// Stats implements FrontEnd.
func (b *Bypass) Stats() mem.Stats { return b.stats }

// Lines returns the side buffer's entry count (size/line).
func (b *Bypass) Lines() int { return b.buf.lines() }

// Contains reports residence of addr's line (tests only).
func (b *Bypass) Contains(addr mem.Addr) bool { return b.buf.contains(addr) }

// BusyClocks returns the read-port busy-until clock, for the invariant
// checker's monotonicity check.
func (b *Bypass) BusyClocks() []int64 { return []int64{b.readFree} }

// Access implements mem.Port.
func (b *Bypass) Access(now int64, req mem.Req) int64 {
	lineAddr := mem.LineAddr(req.Addr, b.buf.lineSize)
	e := b.buf.find(lineAddr)

	switch req.Kind {
	case mem.Read, mem.Fetch:
		if e != nil {
			// Bypass hit: the NVM array is never touched.
			e.spec = false
			b.buf.touch(e)
			b.stats.Record(mem.Read, true)
			b.BypassHits++
			start := now
			if b.readFree > start {
				start = b.readFree
			}
			if e.ready > start { // pre-read still in flight
				b.PredWaitCycles += e.ready - start
				start = e.ready
			}
			done := start + b.hitLat
			b.readFree = done
			b.train(now, lineAddr)
			return done
		}
		// Predictor miss: the demand read pays the full array latency.
		b.stats.Record(mem.Read, false)
		done := b.dl1.Access(now, req)
		b.train(now, lineAddr)
		return done

	case mem.Write:
		if e != nil {
			// Read-only buffer: the copy dies, the DL1 takes the store.
			e.valid = false
			if e.spec {
				b.Mispredicts++
			}
			b.Invalidations++
		}
		b.stats.Record(mem.Write, false)
		return b.dl1.Access(now, req)

	case mem.Prefetch:
		b.stats.Record(mem.Prefetch, false)
		return b.dl1.Access(now, req)

	default:
		return b.dl1.Access(now, req)
	}
}

// train advances the stride predictor with a demand read of lineAddr
// (issued at cycle now) and, once a stream is confident, pre-reads the
// predicted next line into the side buffer.
func (b *Bypass) train(now int64, lineAddr mem.Addr) {
	if len(b.pred) == 0 {
		return
	}
	lineN := int64(lineAddr / mem.Addr(b.buf.lineSize))
	b.predClock++

	// The read continues the first stream whose last line is within the
	// window (fixed scan order keeps this deterministic).
	var s *stream
	for i := range b.pred {
		p := &b.pred[i]
		if p.valid {
			if d := lineN - p.lastLine; d >= -streamWindow && d <= streamWindow {
				s = p
				break
			}
		}
	}
	if s == nil {
		// A fresh stream replaces the least-recently-matched one.
		s = &b.pred[0]
		for i := range b.pred {
			p := &b.pred[i]
			if !p.valid {
				s = p
				break
			}
			if p.lastUse < s.lastUse {
				s = p
			}
		}
		*s = stream{lastLine: lineN, valid: true, lastUse: b.predClock}
		return
	}
	s.lastUse = b.predClock
	d := lineN - s.lastLine
	if d == 0 {
		return // same line re-read: no stride information
	}
	if d == s.stride {
		if s.conf < 3 {
			s.conf++
		}
	} else {
		s.stride = d
		s.conf = 1
	}
	s.lastLine = lineN
	if s.conf >= 2 {
		if next := lineN + s.stride; next >= 0 {
			b.predFill(now, mem.Addr(next)*mem.Addr(b.buf.lineSize))
		}
	}
}

// predFill pre-reads lineAddr from the DL1 into the side buffer (one
// wide array read, then TransferCycles to write the row). Issued at the
// triggering access's own cycle, so port timestamps stay monotone; the
// pre-read contends for the banked array behind the demand access but
// never blocks the core.
func (b *Bypass) predFill(now int64, lineAddr mem.Addr) {
	if b.buf.find(lineAddr) != nil {
		return
	}
	fillDone := b.dl1.Access(now, mem.Req{Addr: lineAddr, Bytes: b.buf.lineSize, Kind: mem.Fill})
	b.PredFills++

	victim := b.buf.victim(now)
	if victim.valid && victim.spec {
		b.Mispredicts++
	}
	*victim = entry{lineAddr: lineAddr, valid: true, spec: true, ready: fillDone + b.transfer}
	b.buf.touch(victim)
}

// ResetTiming implements FrontEnd. Predictor streams persist like
// resident lines (they are contents, not clocks).
func (b *Bypass) ResetTiming() {
	b.buf.resetTiming()
	b.stats = mem.Stats{}
	b.readFree = 0
	b.BypassHits = 0
	b.PredFills = 0
	b.Mispredicts = 0
	b.Invalidations = 0
	b.PredWaitCycles = 0
}
