package check

import (
	"fmt"

	"sttdl1/internal/cache"
	"sttdl1/internal/mem"
)

// shadowLine is one way of the shadow cache: full-width line address in
// place of the timing model's set/tag split, so any truncation in the
// real tag path shows up as a state disagreement.
type shadowLine struct {
	addr    mem.Addr // line-aligned byte address
	valid   bool
	dirty   bool
	lastUse uint64
}

// shadowCache is a functional re-execution of the cache's state machine:
// lookup, LRU victim choice, install, dirtiness and MSHR occupancy —
// everything except timing. After every access the touched sets are
// compared way-by-way against the timing model; any divergence means one
// of the two models mishandled the access.
type shadowCache struct {
	c        *cache.Cache
	cfg      cache.Config
	sets     [][]shadowLine
	useClock uint64

	// Way-shutdown mirror (allocated only when ShutdownInterval > 0):
	// the shadow replays the interval-boundary policy from its own
	// activity/pressure bookkeeping, so a timing-model way that gates,
	// wakes, or retains a line the policy says it must not shows up as
	// a state disagreement.
	gated     []bool
	wayActive []uint64
	pressure  uint64
	hw        int64

	// dataReady maps an in-flight (or recently filled) line to the cycle
	// its fill delivers data, learned from the MSHR the timing model
	// allocates. No data-consuming access to the line may complete
	// earlier.
	dataReady map[mem.Addr]int64

	// pre holds the MSHR view captured immediately before the wrapped
	// access, for the exactly-once occupancy check.
	pre   []cache.MSHRView
	post  []cache.MSHRView
	view  []cache.LineView
	steps uint64
}

func newShadow(c *cache.Cache) *shadowCache {
	cfg := c.Config()
	s := &shadowCache{c: c, cfg: cfg, dataReady: make(map[mem.Addr]int64)}
	s.sets = make([][]shadowLine, cfg.Sets())
	backing := make([]shadowLine, cfg.Sets()*cfg.Assoc)
	for i := range s.sets {
		s.sets[i], backing = backing[:cfg.Assoc], backing[cfg.Assoc:]
	}
	if cfg.ShutdownInterval > 0 {
		s.gated = make([]bool, cfg.Assoc)
		copy(s.gated, c.GatedWays())
		s.wayActive = make([]uint64, cfg.Assoc)
	}
	// Adopt whatever the cache already holds (a checker can be attached
	// to a warm cache), including its recency numbering.
	s.useClock = c.UseClock()
	for set := range s.sets {
		for w, ln := range c.SetView(set) {
			if ln.Valid {
				s.sets[set][w] = shadowLine{addr: ln.Addr, valid: true, dirty: ln.Dirty, lastUse: ln.LastUse}
			}
		}
	}
	return s
}

func (s *shadowCache) setOf(addr mem.Addr) int {
	return int((addr / mem.Addr(s.cfg.LineSize)) & mem.Addr(s.cfg.Sets()-1))
}

func (s *shadowCache) lineOf(addr mem.Addr) mem.Addr {
	return mem.LineAddr(addr, s.cfg.LineSize)
}

// snapshotPre captures MSHR occupancy before the wrapped access runs.
// Port.Access with a shadow must call it first.
func (s *shadowCache) snapshotPre() {
	s.pre = s.c.AppendMSHRs(s.pre[:0])
}

// step mirrors one Access (after the fact) and verifies the invariants.
// done is the completion cycle the timing model reported for the whole
// request.
func (s *shadowCache) step(p *Port, now int64, req mem.Req, done int64) {
	bytes := req.Bytes
	if bytes <= 0 {
		bytes = 1
	}
	if mem.CrossesLine(req.Addr, bytes, s.cfg.LineSize) {
		first := int(s.lineOf(req.Addr)) + s.cfg.LineSize - int(req.Addr)
		s.stepOne(p, now, mem.Req{Addr: req.Addr, Bytes: first, Kind: req.Kind}, done, false)
		s.stepOne(p, now+1, mem.Req{Addr: req.Addr + mem.Addr(first), Bytes: bytes - first, Kind: req.Kind}, done, true)
	} else {
		s.stepOne(p, now, mem.Req{Addr: req.Addr, Bytes: bytes, Kind: req.Kind}, done, false)
	}
	s.steps++
	if s.steps%4096 == 0 {
		for a, r := range s.dataReady {
			if r <= now {
				delete(s.dataReady, a)
			}
		}
	}
}

func (s *shadowCache) stepOne(p *Port, now int64, req mem.Req, done int64, secondHalf bool) {
	set := s.setOf(req.Addr)
	lineAddr := s.lineOf(req.Addr)
	isWrite := req.Kind == mem.Write || req.Kind == mem.WriteBack

	if s.gated != nil {
		s.advanceShutdown(now)
	}

	// The MSHR view observable here is the state after the WHOLE access,
	// including both halves of a split.
	s.post = s.c.AppendMSHRs(s.post[:0])

	// --- Mirror the state machine.
	s.useClock++
	ways := s.sets[set]
	way := -1
	for w := range ways {
		if ways[w].valid && ways[w].addr == lineAddr {
			way = w
			break
		}
	}
	// Did an entry already name this line before the access? A valid
	// entry names a resident line (the cache un-names it when the line
	// leaves), so only a hit can find one; a miss allocates afresh.
	pending := false
	for _, m := range s.pre {
		if m.Valid && m.LineAddr == lineAddr {
			pending = true
			break
		}
	}
	// --- Fill-supplies-data causality: nothing that consumes a line may
	// complete before the line's fill delivers it. A miss is exempt —
	// if the line was evicted while its old fill was in flight, a re-miss
	// re-fetches and owes nothing to that fill.
	if req.Kind != mem.Prefetch && way >= 0 {
		if r, ok := s.dataReady[lineAddr]; ok {
			if r > now && done < r {
				p.record(now, req, fmt.Sprintf("causality: completes at %d but the line's fill arrives at %d", done, r))
			}
			if r <= now {
				delete(s.dataReady, lineAddr)
			}
		}
	}

	allocated := false
	switch {
	case way >= 0: // hit: recency refresh, dirty on write
		ways[way].lastUse = s.useClock
		if isWrite {
			ways[way].dirty = true
		}
		if s.wayActive != nil {
			s.wayActive[way]++
		}
	case req.Kind == mem.Prefetch && s.prefetchDropped(now, lineAddr, secondHalf):
		// A software prefetch with no MSHR slot free at its own
		// timestamp is dropped: no install, no allocation.
	default: // miss: LRU victim (invalid ways first), install
		lo, hi := 0, len(ways)
		if k := s.cfg.SRAMWays; k > 0 && k < len(ways) {
			// Fill steering: read-class misses into the SRAM partition,
			// write-class into the NVM partition.
			if isWrite {
				lo = k
			} else {
				hi = k
			}
		}
		v := s.victimIn(ways, lo, hi)
		if v < 0 {
			v = s.victimIn(ways, 0, len(ways))
		}
		if ways[v].valid && s.gated != nil && v >= s.cfg.SRAMWays {
			s.pressure++
		}
		ways[v] = shadowLine{addr: lineAddr, valid: true, dirty: isWrite, lastUse: s.useClock}
		if s.wayActive != nil {
			s.wayActive[v]++
		}
		allocated = true
	}

	// --- MSHR exactly-once occupancy.
	live := -1
	for i, m := range s.post {
		if !m.Valid {
			continue
		}
		if m.LineAddr == lineAddr {
			if live >= 0 {
				p.record(now, req, fmt.Sprintf("MSHR: line %#x occupies two entries", lineAddr))
			}
			live = i
		}
	}
	if allocated {
		if live < 0 {
			p.record(now, req, "MSHR: demand miss did not allocate an entry")
		} else {
			r := s.post[live].Ready
			if r <= now {
				p.record(now, req, fmt.Sprintf("MSHR: fresh entry ready at %d, not after the miss at %d", r, now))
			}
			s.dataReady[lineAddr] = r
		}
	} else if live >= 0 && !pending {
		// The line was resident with no fill in flight; a new entry for
		// it means the miss path ran against a present line.
		p.record(now, req, fmt.Sprintf("MSHR: line %#x allocated while resident", lineAddr))
	}
	s.compareSet(p, now, req, set)
	if s.gated != nil {
		for w, g := range s.c.GatedWays() {
			if g != s.gated[w] {
				p.record(now, req, fmt.Sprintf("shutdown: way %d gated=%t, shadow says %t", w, g, s.gated[w]))
			}
		}
	}
}

// victimIn mirrors Cache.victimWayIn: first invalid un-gated way of
// [lo, hi), else the un-gated LRU, else -1.
func (s *shadowCache) victimIn(ways []shadowLine, lo, hi int) int {
	best := -1
	for w := lo; w < hi; w++ {
		if s.gated != nil && s.gated[w] {
			continue
		}
		if !ways[w].valid {
			return w
		}
		if best < 0 || ways[w].lastUse < ways[best].lastUse {
			best = w
		}
	}
	return best
}

// prefetchDropped decides whether a missing prefetch was
// dropped for want of an MSHR. For the leading half the pre-access
// snapshot answers exactly (mirroring Cache.mshrFreeAt). The trailing
// half of a split runs against MSHR state the leading half may have
// changed, which we cannot observe — there the post state answers: an
// installed prefetch always leaves an MSHR entry for its line, a
// dropped one never does. (The core only issues word-sized prefetches,
// so the weaker trailing-half form is exercised only by synthetic
// streams.)
func (s *shadowCache) prefetchDropped(now int64, lineAddr mem.Addr, secondHalf bool) bool {
	if secondHalf {
		for _, q := range s.post {
			if q.Valid && q.LineAddr == lineAddr {
				return false
			}
		}
		return true
	}
	for _, m := range s.pre {
		if !m.Valid || m.Ready <= now {
			return false
		}
	}
	return true
}

// advanceShutdown mirrors Cache.advanceShutdown/intervalBoundary: on a
// fresh interval boundary at or before now, capacity pressure wakes
// every gated way, otherwise inactive gateable ways power-gate (their
// lines vanish — dirty ones drained to the next level), keeping at
// least one way awake.
func (s *shadowCache) advanceShutdown(now int64) {
	iv := s.cfg.ShutdownInterval
	b := now - now%iv
	if b <= s.hw {
		return
	}
	s.hw = b
	if s.pressure > 0 {
		for w := s.cfg.SRAMWays; w < s.cfg.Assoc; w++ {
			s.gated[w] = false
		}
	} else {
		awake := 0
		for w := 0; w < s.cfg.Assoc; w++ {
			if !s.gated[w] {
				awake++
			}
		}
		for w := s.cfg.SRAMWays; w < s.cfg.Assoc; w++ {
			if !s.gated[w] && s.wayActive[w] == 0 && awake > 1 {
				s.gated[w] = true
				awake--
				for set := range s.sets {
					s.sets[set][w] = shadowLine{}
				}
			}
		}
	}
	s.pressure = 0
	for i := range s.wayActive {
		s.wayActive[i] = 0
	}
}

// compareSet verifies the timing model's set contents against the shadow,
// way by way.
func (s *shadowCache) compareSet(p *Port, now int64, req mem.Req, set int) {
	s.view = s.c.AppendSetView(s.view[:0], set)
	for w, got := range s.view {
		want := s.sets[set][w]
		switch {
		case got.Valid != want.valid:
			p.record(now, req, fmt.Sprintf("state: set %d way %d valid=%t, shadow says %t", set, w, got.Valid, want.valid))
		case !got.Valid:
		case got.Addr != want.addr:
			p.record(now, req, fmt.Sprintf("state: set %d way %d holds %#x, shadow says %#x", set, w, got.Addr, want.addr))
		case got.Dirty != want.dirty:
			p.record(now, req, fmt.Sprintf("state: set %d way %d (%#x) dirty=%t, shadow says %t", set, w, got.Addr, got.Dirty, want.dirty))
		case got.LastUse != want.lastUse:
			p.record(now, req, fmt.Sprintf("state: set %d way %d (%#x) lastUse=%d, shadow says %d", set, w, got.Addr, got.LastUse, want.lastUse))
		}
	}
}

// audit compares every set (the per-access path only compares touched
// sets).
func (s *shadowCache) audit(p *Port) {
	for set := range s.sets {
		s.compareSet(p, 0, mem.Req{}, set)
	}
}

// resetTiming mirrors Cache.ResetTiming: clocks and MSHRs clear, cache
// contents (and the LRU use clock) persist. Gated ways stay gated, but
// interval bookkeeping restarts with the measured run's clock.
func (s *shadowCache) resetTiming() {
	s.dataReady = make(map[mem.Addr]int64)
	s.pre = s.pre[:0]
	if s.gated != nil {
		s.hw = 0
		s.pressure = 0
		for i := range s.wayActive {
			s.wayActive[i] = 0
		}
	}
}
