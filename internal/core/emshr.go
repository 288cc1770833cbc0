package core

import "sttdl1/internal/mem"

// EMSHR is the paper's second Fig. 8 comparison point: the Enhanced MSHR
// of Komalan et al., "Feasibility exploration of NVM based I-cache
// through MSHR enhancements" (DATE'14) — an MSHR file whose entries
// retain the fetched line after the fill so that subsequent accesses to
// a recently missed line are served from the MSHR at register speed.
//
// Ported from the I-cache to the D-cache and sized like the VWB (2 Kbit,
// fully associative) for the comparison, with the same narrow regular
// interface as the L0. Being an I-cache structure it has no store path:
// stores bypass it straight to the DL1, and a store to a line resident in
// the file must invalidate the retained copy to keep it coherent — the
// main reason it trails the VWB on data-side workloads.
type EMSHR struct {
	buf      buffer
	dl1      mem.Port
	hitLat   int64
	beats    int64
	portFree int64
	stats    mem.Stats

	// Invalidations counts store-induced kills of retained lines.
	Invalidations uint64
	// Allocations counts miss-triggered entry fills.
	Allocations uint64
}

// EMSHRConfig sizes the enhanced MSHR file.
type EMSHRConfig struct {
	SizeBits  int
	LineSize  int
	HitLat    int64
	BeatBytes int
}

// DefaultEMSHRConfig matches the Fig. 8 setup: 2 Kbit over DL1 lines,
// refilling through the regular 256-bit interface.
func DefaultEMSHRConfig() EMSHRConfig {
	return EMSHRConfig{SizeBits: 2048, LineSize: 64, HitLat: 1, BeatBytes: 32}
}

// NewEMSHR builds the enhanced MSHR file in front of dl1.
func NewEMSHR(cfg EMSHRConfig, dl1 mem.Port) *EMSHR {
	checkSize("EMSHR", cfg.SizeBits, cfg.LineSize)
	if cfg.HitLat <= 0 {
		cfg.HitLat = 1
	}
	if cfg.BeatBytes <= 0 {
		cfg.BeatBytes = 32
	}
	return &EMSHR{
		buf:    newBuffer(cfg.SizeBits, cfg.LineSize),
		dl1:    dl1,
		hitLat: cfg.HitLat,
		beats:  int64(cfg.LineSize / cfg.BeatBytes),
	}
}

// Name implements FrontEnd.
func (m *EMSHR) Name() string { return "emshr" }

// Stats implements FrontEnd.
func (m *EMSHR) Stats() mem.Stats { return m.stats }

// Contains reports residence of addr's line (tests only).
func (m *EMSHR) Contains(addr mem.Addr) bool { return m.buf.contains(addr) }

// BusyClocks returns the narrow-port busy-until clock, for the invariant
// checker's monotonicity check.
func (m *EMSHR) BusyClocks() []int64 { return []int64{m.portFree} }

// Access implements mem.Port.
func (m *EMSHR) Access(now int64, req mem.Req) int64 {
	lineAddr := mem.LineAddr(req.Addr, m.buf.lineSize)
	e := m.buf.find(lineAddr)

	switch req.Kind {
	case mem.Read, mem.Fetch:
		start := now
		// Instruction fetches read a whole row at once and feed the
		// fetch group in parallel; only data-side reads serialize on the
		// single narrow port.
		if req.Kind != mem.Fetch && m.portFree > start {
			start = m.portFree
		}
		if e != nil {
			e.spec = false
			m.buf.touch(e)
			m.stats.Record(mem.Read, true)
			if e.ready > start { // fill still streaming in
				start = e.ready
			}
			done := start + m.hitLat
			if req.Kind != mem.Fetch {
				m.portFree = done
			}
			return done
		}
		m.stats.Record(mem.Read, false)
		return m.allocate(start, lineAddr)

	case mem.Write:
		// No store path: the write goes to the DL1; a retained copy of
		// the line must die so the file never serves stale data.
		if e != nil {
			e.valid = false
			m.Invalidations++
		}
		m.stats.Record(mem.Write, false)
		return m.dl1.Access(now, req)

	case mem.Prefetch:
		if e != nil || m.buf.prefetchFiltered(now, lineAddr) {
			m.stats.Record(mem.Prefetch, true)
			return now
		}
		m.stats.Record(mem.Prefetch, false)
		// Issue once the port frees: allocate() pushes portFree to the
		// refill's end, so allocating at a bare `now` while an earlier
		// refill still streams would move the busy clock backward (a
		// monotonicity violation) and un-reserve the port it occupies.
		// The core itself never waits on a hint.
		start := now
		if m.portFree > start {
			start = m.portFree
		}
		m.allocate(start, lineAddr)
		if sp := m.buf.find(lineAddr); sp != nil {
			sp.spec = true
		}
		return now

	default:
		return m.dl1.Access(now, req)
	}
}

// allocate fills an entry with lineAddr; the critical word reaches the
// core at the DL1's read completion, the rest of the line streams in over
// the narrow interface afterwards. Retained lines are clean by
// construction (stores never enter), so eviction is silent. A fetch
// miss starts without waiting for the port, so its refill can end before
// an earlier one still streaming: the port stays busy until the later.
func (m *EMSHR) allocate(now int64, lineAddr mem.Addr) int64 {
	critical := m.dl1.Access(now, mem.Req{Addr: lineAddr, Bytes: m.buf.lineSize, Kind: mem.Fill})
	m.Allocations++
	if f := critical + m.beats; f > m.portFree {
		m.portFree = f
	}
	victim := m.buf.victim(now)
	*victim = entry{lineAddr: lineAddr, valid: true, ready: critical + m.beats}
	m.buf.touch(victim)
	return critical
}

// ResetTiming implements FrontEnd.
func (m *EMSHR) ResetTiming() {
	m.buf.resetTiming()
	m.portFree = 0
	m.stats = mem.Stats{}
	m.Invalidations = 0
	m.Allocations = 0
}
