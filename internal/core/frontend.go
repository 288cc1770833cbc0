// Package core implements the paper's primary contribution: the Very Wide
// Buffer (VWB) data-cache front-end that hides the STT-MRAM read latency
// of the L1 data cache, together with the two comparison structures of
// the paper's Fig. 8 — a small L0 mini-cache and the Enhanced MSHR
// (EMSHR) of the authors' earlier DATE'14 I-cache work — and a plain
// pass-through front-end used for the SRAM baseline and the drop-in NVM
// configuration.
//
// All front-ends sit between the core's load/store unit and the DL1 and
// implement mem.Port.
package core

import (
	"fmt"

	"sttdl1/internal/mem"
)

// FrontEnd is a DL1 front-end: a mem.Port with introspection hooks used
// by the experiment harness and tests.
type FrontEnd interface {
	mem.Port
	// Stats returns the front-end's own hit/miss counters (not the DL1's).
	Stats() mem.Stats
	// Name identifies the structure in reports.
	Name() string
	// Reset clears all state and counters.
	Reset()
	// ResetTiming clears clocks and counters but keeps resident lines
	// (for warm-up-then-measure methodology).
	ResetTiming()
}

// Direct is the trivial front-end: every access goes straight to the DL1.
// It models both the SRAM baseline and the "drop-in" NVM replacement of
// the paper's §III motivation experiment.
type Direct struct {
	dl1   mem.Port
	stats mem.Stats
}

// NewDirect wraps dl1 without any buffering.
func NewDirect(dl1 mem.Port) *Direct { return &Direct{dl1: dl1} }

// Access implements mem.Port. Every access counts as a front-end miss:
// hit tracking lives in the DL1 behind it.
func (d *Direct) Access(now int64, req mem.Req) int64 {
	d.stats.Record(req.Kind, false)
	return d.dl1.Access(now, req)
}

// Stats implements FrontEnd.
func (d *Direct) Stats() mem.Stats { return d.stats }

// Name implements FrontEnd.
func (d *Direct) Name() string { return "direct" }

// Reset implements FrontEnd.
func (d *Direct) Reset() { d.stats = mem.Stats{} }

// ResetTiming implements FrontEnd.
func (d *Direct) ResetTiming() { d.stats = mem.Stats{} }

// entry is one line-wide slot of a fully associative buffer structure.
type entry struct {
	lineAddr mem.Addr
	valid    bool
	dirty    bool
	// spec marks a speculatively (prefetch-) filled row that no demand
	// access has touched yet.
	spec bool
	// ready is the cycle the (promotion/refill) fill completes; a demand
	// access before that waits for it.
	ready   int64
	lastUse uint64
}

// EvictPolicy selects the replacement policy of a buffer structure.
type EvictPolicy int

// Replacement policies.
const (
	// EvictLRU replaces the least-recently-used row (the default).
	EvictLRU EvictPolicy = iota
	// EvictFIFO replaces rows in allocation order (ablation: cheaper
	// hardware, no recency update path).
	EvictFIFO
)

func (p EvictPolicy) String() string {
	if p == EvictFIFO {
		return "fifo"
	}
	return "lru"
}

// buffer is the shared fully-associative bookkeeping of VWB/L0/EMSHR.
type buffer struct {
	entries  []entry
	lineSize int
	useClock uint64
	policy   EvictPolicy
	fifoNext int

	// pfRecent is a small filter of recently prefetched line addresses:
	// a PLD whose target was prefetched within pfWindow cycles is
	// dropped instead of re-reading the NVM array every loop iteration.
	// An evicted line becomes prefetchable again once the window passes.
	pfRecent []pfEntry
	pfHead   int

	// lastHit is an MRU probe hint: access streams are line-local, so
	// find checks the previous hit's slot before scanning. Purely an
	// optimization — never consulted for replacement decisions.
	lastHit int

	// witness counts decisions about resident lines that read a cycle
	// clock: a prefetch-filter window compare and a spec-protection
	// compare in victim. While it stays 0, the buffer's contents are a
	// function of its access sequence alone (DESIGN.md §7.9). It
	// survives resetTiming, like the contents it vouches for.
	witness uint64
}

type pfEntry struct {
	lineAddr mem.Addr
	at       int64
	valid    bool
}

// pfWindow is the suppression window of the prefetch filter, sized to a
// little over one promotion's worth of cycles.
const pfWindow = 32

func newBuffer(sizeBits, lineSize int) buffer {
	n := sizeBits / (lineSize * 8)
	if n < 1 {
		n = 1
	}
	return buffer{
		entries:  make([]entry, n),
		lineSize: lineSize,
		// The filter holds twice the row count so a burst of prefetches
		// cannot flush the suppression history of the lines it evicts.
		pfRecent: make([]pfEntry, 2*n),
	}
}

// prefetchFiltered records (lineAddr, now) in the filter and reports
// whether the same line was prefetched within the last pfWindow cycles
// (i.e., the prefetch should be dropped).
func (b *buffer) prefetchFiltered(now int64, lineAddr mem.Addr) bool {
	for _, e := range b.pfRecent {
		if e.valid && e.lineAddr == lineAddr {
			b.witness++
			if now-e.at < pfWindow {
				return true
			}
		}
	}
	b.pfRecent[b.pfHead] = pfEntry{lineAddr: lineAddr, at: now, valid: true}
	b.pfHead = (b.pfHead + 1) % len(b.pfRecent)
	return false
}

func (b *buffer) find(lineAddr mem.Addr) *entry {
	if e := &b.entries[b.lastHit]; e.valid && e.lineAddr == lineAddr {
		return e
	}
	for i := range b.entries {
		if b.entries[i].valid && b.entries[i].lineAddr == lineAddr {
			b.lastHit = i
			return &b.entries[i]
		}
	}
	return nil
}

// specProtect is how long (cycles) a prefetched, not-yet-demanded row is
// shielded from eviction. Without it, the untouched prefetched row is by
// construction the LRU entry at the very moment the next stream's miss
// allocates — evicting every prefetch right before its use.
const specProtect = 48

// victim returns the next entry to replace at time now (preferring
// invalid slots, then unprotected LRU).
func (b *buffer) victim(now int64) *entry {
	for i := range b.entries {
		if !b.entries[i].valid {
			return &b.entries[i]
		}
	}
	if b.policy == EvictFIFO {
		e := &b.entries[b.fifoNext]
		b.fifoNext = (b.fifoNext + 1) % len(b.entries)
		return e
	}
	var best *entry
	for i := range b.entries {
		e := &b.entries[i]
		if e.spec {
			b.witness++
			if now < e.ready+specProtect {
				continue // freshly prefetched: protected
			}
		}
		if best == nil || e.lastUse < best.lastUse {
			best = e
		}
	}
	if best != nil {
		return best
	}
	// Everything is a protected prefetch (pathological): plain LRU.
	best = &b.entries[0]
	for i := range b.entries {
		if b.entries[i].lastUse < best.lastUse {
			best = &b.entries[i]
		}
	}
	return best
}

func (b *buffer) touch(e *entry) {
	b.useClock++
	e.lastUse = b.useClock
}

// resetTiming zeroes per-entry clocks and the prefetch filter, keeping
// the resident lines.
func (b *buffer) resetTiming() {
	for i := range b.entries {
		b.entries[i].ready = 0
	}
	for i := range b.pfRecent {
		b.pfRecent[i] = pfEntry{}
	}
	b.pfHead = 0
}

func (b *buffer) reset() {
	for i := range b.entries {
		b.entries[i] = entry{}
	}
	for i := range b.pfRecent {
		b.pfRecent[i] = pfEntry{}
	}
	b.pfHead = 0
	b.useClock = 0
	b.fifoNext = 0
	b.lastHit = 0
	b.witness = 0
}

// lines returns the number of entries (for tests).
func (b *buffer) lines() int { return len(b.entries) }

// Contains reports whether the line holding addr is resident (tests only).
func (b *buffer) contains(addr mem.Addr) bool {
	return b.find(mem.LineAddr(addr, b.lineSize)) != nil
}

func checkSize(name string, sizeBits, lineSize int) {
	if sizeBits <= 0 || lineSize <= 0 {
		panic(fmt.Sprintf("core: %s: size and line must be positive", name))
	}
	if sizeBits%(lineSize*8) != 0 {
		panic(fmt.Sprintf("core: %s: size %d bits not a multiple of the %d-bit line", name, sizeBits, lineSize*8))
	}
}
