package core

import "sttdl1/internal/mem"

// VWB is the Very Wide Buffer (paper §IV): an asymmetric register-file
// organization between the datapath and the NVM DL1.
//
//   - Toward the memory the interface is wide: a whole DL1 line (512 bit)
//     moves in one promotion, which occupies the source bank of the banked
//     NVM array for the array's full read latency (~4 cycles) but happens
//     off the critical path of subsequent hits.
//   - Toward the datapath the interface is narrow: the core reads or
//     writes single words through the post-decode MUX in one cycle.
//
// It is modelled, like the paper says, as a small fully associative
// buffer of line-wide single-ported register rows with per-row tags; the
// two-row organization lets reads and writes proceed simultaneously, so
// the buffer itself never port-stalls.
//
// Load policy (paper §IV): the VWB is always checked first. On a VWB miss
// the NVM DL1 is checked; a DL1 hit reads the line and always writes it
// into the VWB, the VWB's evicted (dirty) line going back to the DL1. On
// a DL1 miss the next level serves the line to both the core and the VWB.
//
// Store policy: a data block is updated via the VWB only if already
// present there; otherwise it is updated directly in the DL1
// (write-allocate in the DL1, no-allocate in the VWB; write-back
// everywhere, no write-through).
type VWB struct {
	buf      buffer
	dl1      mem.Port
	hitLat   int64
	transfer int64
	stats    mem.Stats

	// The two-row single-ported organization sustains one read and one
	// write per cycle, concurrently ("data can be written into and read
	// from the VWB at the same time", §IV).
	readFree, writeFree int64

	// Promotions counts whole-line moves DL1 -> VWB.
	Promotions uint64
	// WriteBacks counts dirty VWB evictions pushed back into the DL1.
	WriteBacks uint64
	// PromoteWaitCycles accumulates cycles demand loads spent waiting for
	// an in-flight promotion of their own line (the paper's "processor
	// may try to fetch new data while the promotion ... is taking place").
	PromoteWaitCycles int64
	// PrefetchUseful counts prefetched rows later touched by demand;
	// PrefetchWasted counts prefetched rows evicted untouched.
	PrefetchUseful, PrefetchWasted uint64
}

// VWBConfig sizes the buffer.
type VWBConfig struct {
	// SizeBits is the total capacity; the paper explores 1/2/4 Kbit and
	// settles on 2 Kbit.
	SizeBits int
	// LineSize is the DL1 line size in bytes (the promotion width).
	LineSize int
	// HitLat is the buffer hit latency in cycles (1: it is "very close to
	// logic").
	HitLat int64
	// TransferCycles is the time to write a promoted line into the
	// single-ported VWB row after the NVM array read delivers it (the
	// paper's "promotion may take as long as 4 cache cycles"). A demand
	// miss reads its word through the MUX only once the row is written.
	TransferCycles int64
	// Policy selects the row replacement policy (default LRU).
	Policy EvictPolicy
}

// DefaultVWBConfig is the paper's chosen design point: 2 Kbit over
// 512-bit lines = 4 line entries, 1-cycle hits.
func DefaultVWBConfig() VWBConfig {
	return VWBConfig{SizeBits: 2048, LineSize: 64, HitLat: 1, TransferCycles: 1}
}

// NewVWB builds the buffer in front of dl1.
func NewVWB(cfg VWBConfig, dl1 mem.Port) *VWB {
	checkSize("VWB", cfg.SizeBits, cfg.LineSize)
	if cfg.HitLat <= 0 {
		cfg.HitLat = 1
	}
	if cfg.TransferCycles < 0 {
		cfg.TransferCycles = 0
	}
	buf := newBuffer(cfg.SizeBits, cfg.LineSize)
	buf.policy = cfg.Policy
	return &VWB{
		buf:      buf,
		dl1:      dl1,
		hitLat:   cfg.HitLat,
		transfer: cfg.TransferCycles,
	}
}

// Name implements FrontEnd.
func (v *VWB) Name() string { return "vwb" }

// Stats implements FrontEnd.
func (v *VWB) Stats() mem.Stats { return v.stats }

// Lines returns the entry count (size/line).
func (v *VWB) Lines() int { return v.buf.lines() }

// Contains reports residence of addr's line (tests only).
func (v *VWB) Contains(addr mem.Addr) bool { return v.buf.contains(addr) }

// BusyClocks returns the read- and write-port busy-until clocks, for the
// invariant checker's monotonicity check.
func (v *VWB) BusyClocks() []int64 { return []int64{v.readFree, v.writeFree} }

// Access implements mem.Port.
func (v *VWB) Access(now int64, req mem.Req) int64 {
	lineAddr := mem.LineAddr(req.Addr, v.buf.lineSize)
	e := v.buf.find(lineAddr)

	switch req.Kind {
	case mem.Read, mem.Fetch:
		if e != nil {
			if e.spec {
				e.spec = false
				v.PrefetchUseful++
			}
			v.buf.touch(e)
			v.stats.Record(mem.Read, true)
			start := now
			if v.readFree > start {
				start = v.readFree
			}
			if e.ready > start { // promotion still in flight
				v.PromoteWaitCycles += e.ready - start
				start = e.ready
			}
			done := start + v.hitLat
			v.readFree = done
			return done
		}
		v.stats.Record(mem.Read, false)
		// The demanded word is forwarded to the core as the wide array
		// read delivers the line (critical-word delivery through the
		// MUX); the row itself is busy for TransferCycles more, and the
		// promotion occupies the source NVM bank meanwhile — the §IV
		// stall scenario.
		fill, _ := v.promoteTimes(now, lineAddr)
		return fill + v.hitLat

	case mem.Write:
		if e != nil {
			// Update through the MUX; the row is single-ported but the
			// two-line organization absorbs the concurrent traffic.
			v.buf.touch(e)
			e.dirty = true
			v.stats.Record(mem.Write, true)
			start := now
			if v.writeFree > start {
				start = v.writeFree
			}
			if e.ready > start {
				v.PromoteWaitCycles += e.ready - start
				start = e.ready
			}
			done := start + v.hitLat
			v.writeFree = done
			return done
		}
		// Miss: no-allocate in the VWB, write-allocate in the DL1.
		v.stats.Record(mem.Write, false)
		return v.dl1.Access(now, req)

	case mem.Prefetch:
		if e != nil || v.buf.prefetchFiltered(now, lineAddr) {
			v.stats.Record(mem.Prefetch, true)
			return now
		}
		v.stats.Record(mem.Prefetch, false)
		v.promoteTimes(now, lineAddr)
		if sp := v.buf.find(lineAddr); sp != nil {
			sp.spec = true
		}
		return now // software prefetch never blocks

	default:
		return v.dl1.Access(now, req)
	}
}

// promoteTimes pulls lineAddr from the DL1 into the VWB (one wide array
// read, then TransferCycles to write the single-ported row) and returns
// both the cycle the array read delivers the line and the cycle the row
// becomes readable.
func (v *VWB) promoteTimes(now int64, lineAddr mem.Addr) (fill, ready int64) {
	fillDone := v.dl1.Access(now, mem.Req{Addr: lineAddr, Bytes: v.buf.lineSize, Kind: mem.Fill})
	v.Promotions++
	ready = fillDone + v.transfer

	victim := v.buf.victim(now)
	if victim.valid && victim.spec {
		v.PrefetchWasted++
	}
	if victim.valid && victim.dirty {
		// The evicted row drains back into the (banked) DL1; it contends
		// for the array but not for the core's critical path. It is
		// issued at the promotion start — the row's data is available the
		// moment it is reallocated — keeping port timestamps monotone.
		v.WriteBacks++
		v.dl1.Access(now, mem.Req{Addr: victim.lineAddr, Bytes: v.buf.lineSize, Kind: mem.WriteBack})
	}
	*victim = entry{lineAddr: lineAddr, valid: true, ready: ready}
	v.buf.touch(victim)
	return fillDone, ready
}

// ResetTiming implements FrontEnd.
func (v *VWB) ResetTiming() {
	v.buf.resetTiming()
	v.stats = mem.Stats{}
	v.readFree, v.writeFree = 0, 0
	v.Promotions = 0
	v.WriteBacks = 0
	v.PromoteWaitCycles = 0
	v.PrefetchUseful, v.PrefetchWasted = 0, 0
}
