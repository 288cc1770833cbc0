// Package cache implements the set-associative, banked, write-back caches
// used for the IL1, the (SRAM or STT-MRAM) DL1, and the unified L2 of the
// simulated platform.
//
// The model is timing-only (tags, recency, dirtiness, busy-until state; no
// data). Its distinguishing features, required by the paper:
//
//   - separate read and write latencies, so an STT-MRAM array can be
//     modelled as read 4 / write 2 cycles against SRAM's 1 / 1;
//   - a banked data array: one line promotion into the Very Wide Buffer
//     occupies the source bank for the full read latency, and a
//     concurrent access to the same bank stalls (paper §IV);
//   - MSHRs, so misses and software prefetches overlap with execution;
//   - a small eviction write buffer, "present to hold the evicted data
//     temporarily while being transferred to the L2" (paper §IV).
package cache

import (
	"fmt"
	"sync"

	"sttdl1/internal/mem"
)

// Config describes one cache.
type Config struct {
	Name     string
	Size     int // total bytes
	Assoc    int // ways
	LineSize int // bytes
	Banks    int // data-array banks (power of two)

	ReadLat  int64 // array read latency, cycles
	WriteLat int64 // array write latency, cycles

	// ReadInterval/WriteInterval are the per-bank initiation intervals:
	// how long a bank stays busy per access. 0 means non-pipelined
	// (= the access latency), which is how the long STT-MRAM sense
	// behaves; SRAM arrays at core clock are pipelined (interval 1).
	ReadInterval  int64
	WriteInterval int64

	MSHRs         int // outstanding-miss registers
	WriteBufDepth int // eviction write-buffer entries

	// SRAMWays makes the array a hybrid: ways [0, SRAMWays) are built
	// from fast (SRAM) cells with their own pipelined bank clocks and
	// latencies, the remaining ways from the configured (NVM)
	// technology (Khoshavi-style way partitioning). 0 means a
	// homogeneous array — the model is then bit-identical to the
	// pre-hybrid cache. Fill steering: read-class misses install into
	// the SRAM partition, write-class misses into the NVM partition
	// (falling back to the whole set when the preferred partition has
	// no usable way), so read-hot lines migrate to the fast ways.
	SRAMWays int
	// SRAMReadLat/SRAMWriteLat are the SRAM partition's latencies in
	// cycles (0 = 1 cycle; the partition is always pipelined with a
	// 1-cycle initiation interval).
	SRAMReadLat, SRAMWriteLat int64

	// ShutdownInterval, when positive, power-gates cold non-SRAM ways
	// (Mittal-style dynamic way shutdown): every interval boundary a
	// gateable way with no hits or installs over the whole interval is
	// flushed (dirty lines written back), invalidated and gated; a
	// boundary that observed capacity pressure (a valid line evicted
	// from the gateable partition) wakes every gated way instead. At
	// least one way of the whole set always stays awake. Gated cycles
	// are scored as leakage savings by internal/energy.
	ShutdownInterval int64
}

// Validate checks structural parameters.
func (c *Config) Validate() error {
	switch {
	case c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0:
		return fmt.Errorf("cache %s: size/assoc/line must be positive", c.Name)
	case c.Size%(c.LineSize*c.Assoc) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by assoc*line %d", c.Name, c.Size, c.LineSize*c.Assoc)
	case c.LineSize&(c.LineSize-1) != 0:
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineSize)
	case c.Banks <= 0 || c.Banks&(c.Banks-1) != 0:
		return fmt.Errorf("cache %s: banks %d not a positive power of two", c.Name, c.Banks)
	case c.ReadLat <= 0 || c.WriteLat <= 0:
		return fmt.Errorf("cache %s: latencies must be positive", c.Name)
	case c.MSHRs <= 0:
		return fmt.Errorf("cache %s: need at least one MSHR", c.Name)
	case c.SRAMWays < 0 || c.SRAMWays > c.Assoc:
		return fmt.Errorf("cache %s: SRAM ways %d outside [0, %d]", c.Name, c.SRAMWays, c.Assoc)
	case c.ShutdownInterval < 0:
		return fmt.Errorf("cache %s: shutdown interval must be non-negative", c.Name)
	}
	sets := c.Size / (c.LineSize * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c *Config) Sets() int { return c.Size / (c.LineSize * c.Assoc) }

type line struct {
	// tag is the full line number above the index bits. It is kept at
	// mem.Addr width: truncating it (an earlier revision stored uint32)
	// makes addresses 2^32 lines apart alias silently, and dirty
	// evictions write back to the wrong reconstructed address.
	tag     mem.Addr
	valid   bool
	dirty   bool
	lastUse uint64
	// ready is the cycle the line's fill delivered (or will deliver) its
	// data. The victim slot is installed at miss time while the fill is
	// still in flight, so a later hit must not complete before ready.
	// Kept on the line rather than read from the MSHR: a full MSHR file
	// can reclaim the entry of a still-in-flight fill, but the line's
	// data still only exists once the fill lands.
	ready int64
}

type mshr struct {
	// lineAddr names the line the fill installs; unnamed once the line
	// has left the array (the slot stays occupied until ready).
	lineAddr mem.Addr
	valid    bool
	// ready is the cycle the fill completes; the entry frees then.
	ready int64
}

// unnamed is an MSHR's lineAddr after its line left the array; it is
// not line-aligned, so it never equals a real line address.
const unnamed = ^mem.Addr(0)

type wbEntry struct {
	// retire is the cycle at which the buffered eviction has drained to
	// the next level and the slot frees.
	retire int64
}

// Cache is one level of the hierarchy.
type Cache struct {
	cfg  Config
	next mem.Port

	// Precomputed address-decomposition geometry (the hot path runs once
	// per simulated access; deriving these from cfg every time showed up
	// as ~13% of total simulation time in profiles).
	lineShift uint
	lineMask  mem.Addr
	setMask   mem.Addr
	setShift  uint
	bankMask  int

	// arr owns sets; Release returns it to the pool of its geometry.
	arr      *arrays
	sets     [][]line
	bankFree []int64
	// sramFree is the SRAM partition's private per-bank busy-until
	// clocks (nil unless SRAMWays > 0): the fast ways sit in their own
	// small array, so an SRAM hit never waits behind a long NVM sense
	// occupying the main array's bank.
	sramFree []int64
	mshrs    []mshr
	wbuf     []wbEntry

	// Way-shutdown state (allocated only when ShutdownInterval > 0).
	gated     []bool   // way w is power-gated (holds no lines)
	gateStart []int64  // cycle way w was gated (meaningful while gated)
	wayActive []uint64 // hits+installs per way this interval
	// gatePressure counts valid-line evictions from the gateable
	// partition this interval — the wake signal.
	gatePressure uint64
	// gateHW is the high-water mark of processed interval boundaries.
	// Request timestamps are not globally monotone across kinds (the
	// store drain path runs ahead of loads), so boundary processing
	// only ever moves this mark forward.
	gateHW int64

	useClock uint64
	stats    mem.Stats

	// Extra visibility counters.
	BankConflictCycles int64
	MSHRStallCycles    int64
	WBStallCycles      int64
	// HitUnderFillCycles accumulates cycles hits spent waiting for the
	// in-flight fill of their own line (the causality cap in accessOne).
	HitUnderFillCycles int64
	Evictions          uint64
	DirtyEvictions     uint64
	// SRAMReads/SRAMWrites count array operations served by the SRAM
	// partition of a hybrid cache (hits in SRAM ways, installs into
	// them, and miss probes when the array is all-SRAM); internal/energy
	// prices them at SRAM instead of NVM per-access energies.
	SRAMReads, SRAMWrites uint64
	// PrefetchDrops counts software prefetches dropped because the MSHR
	// file was full: a hint must never stall the port or evict a demand
	// miss's entry.
	PrefetchDrops uint64
	// Way-shutdown visibility counters.
	WayShutdowns, WayWakeups, WayFlushWBs uint64
	// Witness counts functional decisions that read a cycle clock: the
	// MSHR check of a missing prefetch and every way-shutdown boundary
	// check. While it stays 0, the cache's contents are a function of
	// its access sequence alone (DESIGN.md §7.9). Unlike the counters
	// above it survives ResetTiming: it describes the pass that built
	// the contents a timing reset keeps.
	Witness uint64
	// wayOffCycles accumulates gated way-cycles of completed gating
	// episodes; OffCyclesAt adds the still-open ones.
	wayOffCycles int64
}

// New builds a cache in front of next. It panics on an invalid Config:
// configs are produced by our own code and a bad one means a programming
// error, not a runtime condition.
func New(cfg Config, next mem.Port) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if next == nil {
		panic(fmt.Sprintf("cache %s: nil next level", cfg.Name))
	}
	if cfg.WriteBufDepth <= 0 {
		cfg.WriteBufDepth = 4
	}
	if cfg.ReadInterval <= 0 {
		cfg.ReadInterval = cfg.ReadLat
	}
	if cfg.WriteInterval <= 0 {
		cfg.WriteInterval = cfg.WriteLat
	}
	if cfg.SRAMWays > 0 {
		if cfg.SRAMReadLat <= 0 {
			cfg.SRAMReadLat = 1
		}
		if cfg.SRAMWriteLat <= 0 {
			cfg.SRAMWriteLat = 1
		}
	}
	c := &Cache{
		cfg: cfg, next: next,
		lineShift: uint(log2(cfg.LineSize)),
		lineMask:  mem.Addr(cfg.LineSize - 1),
		setMask:   mem.Addr(cfg.Sets() - 1),
		setShift:  uint(log2(cfg.Sets())),
		bankMask:  cfg.Banks - 1,
	}
	c.arr = getArrays(geometry{cfg.Sets(), cfg.Assoc})
	c.sets = c.arr.sets
	c.bankFree = make([]int64, cfg.Banks)
	if cfg.SRAMWays > 0 {
		c.sramFree = make([]int64, cfg.Banks)
	}
	if cfg.ShutdownInterval > 0 {
		c.gated = make([]bool, cfg.Assoc)
		c.gateStart = make([]int64, cfg.Assoc)
		c.wayActive = make([]uint64, cfg.Assoc)
	}
	c.mshrs = make([]mshr, cfg.MSHRs)
	c.wbuf = make([]wbEntry, cfg.WriteBufDepth)
	return c
}

// geometry keys the pools of set storage: caches of one geometry can
// share it whatever their latencies, banks or partitions.
type geometry struct{ sets, assoc int }

// arrays is the set storage of one cache: the line array and the
// per-set slice headers into it. It is the bulk of a cache's memory
// (1 MB of lines for the 2 MB 16-way L2).
type arrays struct {
	lines []line
	sets  [][]line
}

// arrayPools maps a geometry to the *sync.Pool of its released arrays.
var arrayPools sync.Map

func poolOf(g geometry) *sync.Pool {
	if p, ok := arrayPools.Load(g); ok {
		return p.(*sync.Pool)
	}
	p, _ := arrayPools.LoadOrStore(g, new(sync.Pool))
	return p.(*sync.Pool)
}

// getArrays returns zeroed set storage of geometry g: a released one
// cleared, or a fresh allocation.
func getArrays(g geometry) *arrays {
	if a, ok := poolOf(g).Get().(*arrays); ok {
		clear(a.lines)
		return a
	}
	a := &arrays{
		lines: make([]line, g.sets*g.assoc),
		sets:  make([][]line, g.sets),
	}
	for i := range a.sets {
		a.sets[i] = a.lines[i*g.assoc : (i+1)*g.assoc : (i+1)*g.assoc]
	}
	return a
}

// Release returns the cache's set storage for reuse by the next cache
// of the same geometry and drops the cache's references to it, so a
// later access, or a second Release, panics instead of reading another
// cache's lines. Its counters stay readable.
func (c *Cache) Release() {
	poolOf(geometry{len(c.arr.sets), c.cfg.Assoc}).Put(c.arr)
	c.arr, c.sets = nil, nil
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// LineShift returns log2(line size); addr >> LineShift() is the line
// number, which fetch-run callers use to detect leaving the line.
func (c *Cache) LineShift() uint { return c.lineShift }

// Stats returns a copy of the demand/prefetch counters.
func (c *Cache) Stats() mem.Stats { return c.stats }

func (c *Cache) indexOf(addr mem.Addr) (set int, tag mem.Addr) {
	l := addr >> c.lineShift
	return int(l & c.setMask), l >> c.setShift
}

func (c *Cache) bankOf(addr mem.Addr) int {
	return int(addr>>c.lineShift) & c.bankMask
}

func log2(n int) int {
	k := 0
	for 1<<uint(k) < n {
		k++
	}
	return k
}

// lookup returns the way holding addr's line, or -1. Indexing instead of
// ranging matters: a range copies each 32-byte line per probed way, and
// this runs once per simulated access.
func (c *Cache) lookup(set int, tag mem.Addr) int {
	ways := c.sets[set]
	for w := range ways {
		if ways[w].valid && ways[w].tag == tag {
			return w
		}
	}
	return -1
}

// victimWay picks the LRU way of the set (preferring invalid ways).
func (c *Cache) victimWay(set int) int { return c.victimWayIn(set, 0, c.cfg.Assoc) }

// victimWayIn picks the victim within ways [lo, hi): the first invalid
// un-gated way, else the un-gated LRU; -1 when every way of the range
// is gated. With no gating and the full range it reduces exactly to
// the classic invalid-first LRU choice.
func (c *Cache) victimWayIn(set, lo, hi int) int {
	ways := c.sets[set]
	best := -1
	for w := lo; w < hi; w++ {
		if c.gated != nil && c.gated[w] {
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

// fillPartition returns the way range a miss of the given class steers
// its fill into: read-class lines go to the fast SRAM ways, write-class
// lines to the NVM ways. A homogeneous (or all-SRAM) array steers
// nowhere — the whole set is one partition.
func (c *Cache) fillPartition(isWrite bool) (lo, hi int) {
	lo, hi = 0, c.cfg.Assoc
	if k := c.cfg.SRAMWays; k > 0 && k < c.cfg.Assoc {
		if isWrite {
			lo = k
		} else {
			hi = k
		}
	}
	return lo, hi
}

// waitBank advances start past the bank's busy-until clock,
// accumulating BankConflictCycles.
func (c *Cache) waitBank(clocks []int64, bank int, now int64) int64 {
	start := now
	if bf := clocks[bank]; bf > start {
		c.BankConflictCycles += bf - start
		start = bf
	}
	return start
}

// missClocks returns the bank-clock array and the latency/initiation
// interval of the array partition a miss's tag/array probe occupies:
// the main (NVM) partition, unless the array is all-SRAM.
func (c *Cache) missClocks() (clocks []int64, lat, ival int64) {
	if c.cfg.SRAMWays == c.cfg.Assoc && c.sramFree != nil {
		return c.sramFree, c.cfg.SRAMReadLat, 1
	}
	return c.bankFree, c.cfg.ReadLat, c.cfg.ReadInterval
}

// mshrFreeAt reports whether an MSHR entry is (or will be) free at
// cycle at, without mutating the file. The answer reads fill clocks,
// so every call counts in Witness.
func (c *Cache) mshrFreeAt(at int64) bool {
	c.Witness++
	for i := range c.mshrs {
		if !c.mshrs[i].valid || c.mshrs[i].ready <= at {
			return true
		}
	}
	return false
}

// Access implements mem.Port.
//
// Requests that straddle a line boundary are split and serialized, which
// is exactly the penalty the alignment transformation removes.
func (c *Cache) Access(now int64, req mem.Req) int64 {
	if req.Bytes <= 0 {
		req.Bytes = 1
	}
	if req.Addr>>c.lineShift != (req.Addr+mem.Addr(req.Bytes)-1)>>c.lineShift {
		first := int(mem.LineAddr(req.Addr, c.cfg.LineSize)) + c.cfg.LineSize - int(req.Addr)
		d1 := c.accessOne(now, mem.Req{Addr: req.Addr, Bytes: first, Kind: req.Kind})
		rest := mem.Req{Addr: req.Addr + mem.Addr(first), Bytes: req.Bytes - first, Kind: req.Kind}
		// The two halves issue back to back, but the access as a whole
		// completes only when the later half does: a split load needs
		// both words, and a split store retires only once both halves
		// have drained — if the first half stalls on a busy bank longer
		// than the second, its completion dominates.
		d2 := c.accessOne(now+1, rest)
		if d1 > d2 {
			return d1
		}
		return d2
	}
	return c.accessOne(now, req)
}

func (c *Cache) accessOne(now int64, req mem.Req) int64 {
	l := req.Addr >> c.lineShift
	set, tag := int(l&c.setMask), l>>c.setShift
	bank := int(l) & c.bankMask
	lineAddr := req.Addr &^ c.lineMask

	if c.gated != nil {
		c.advanceShutdown(now)
	}

	c.useClock++
	way := c.lookup(set, tag)
	isWrite := req.Kind == mem.Write || req.Kind == mem.WriteBack
	c.stats.Record(req.Kind, way >= 0)

	if way >= 0 { // hit
		sram := way < c.cfg.SRAMWays
		clocks, lat, ival := c.bankFree, c.cfg.ReadLat, c.cfg.ReadInterval
		if sram {
			clocks, lat, ival = c.sramFree, c.cfg.SRAMReadLat, 1
			if isWrite {
				lat = c.cfg.SRAMWriteLat
			}
		} else if isWrite {
			lat, ival = c.cfg.WriteLat, c.cfg.WriteInterval
		}
		start := c.waitBank(clocks, bank, now)
		ln := &c.sets[set][way]
		ln.lastUse = c.useClock
		if isWrite {
			ln.dirty = true
		}
		if c.wayActive != nil {
			c.wayActive[way]++
		}
		if sram {
			if isWrite {
				c.SRAMWrites++
			} else {
				c.SRAMReads++
			}
		}
		done := start + lat
		clocks[bank] = start + ival
		c.stats.BusyCycles += ival
		if req.Kind == mem.Prefetch {
			return start // nothing to do, core does not wait
		}
		// Causality: the victim slot is installed at miss time while the
		// fill is still in flight, so a lookup can hit a line whose data
		// does not exist yet. Such a hit cannot complete before the fill
		// delivers the line — cap it at the line's ready time. A write
		// retires into the freshly filled line (lat is the partition's
		// write latency here).
		avail := ln.ready
		if isWrite {
			avail = ln.ready + lat
		}
		if done < avail {
			c.HitUnderFillCycles += avail - done
			done = avail
		}
		return done
	}

	// Miss: the tag/array probe occupies the main (NVM) partition,
	// unless the array is all-SRAM.
	// A tag miss never merges into an MSHR: a fill still in flight has
	// its line installed (so a second access hits under it), and a line
	// that left the array owes nothing to its old fill.
	clocks, mlat, mival := c.missClocks()
	start := c.waitBank(clocks, bank, now)
	if c.cfg.SRAMWays == c.cfg.Assoc && c.sramFree != nil {
		c.SRAMReads++
	}

	// A software prefetch is a hint: rather than stall on a full MSHR
	// file — or reclaim a demand miss's entry — drop it. The decision
	// uses the request's own timestamp, so it is a pure function of the
	// pre-access MSHR view. The tag probe still occupied the array.
	if req.Kind == mem.Prefetch && !c.mshrFreeAt(now) {
		c.PrefetchDrops++
		clocks[bank] = start + mival
		c.stats.BusyCycles += mival
		return start
	}

	// Allocate an MSHR, stalling if the file is full.
	start = c.allocMSHRTime(start)

	// The miss is detected after the tag/array lookup.
	missAt := start + mlat
	fillDone := c.next.Access(missAt, mem.Req{Addr: lineAddr, Bytes: c.cfg.LineSize, Kind: mem.Fill})
	c.stats.Fills++

	// Choose and evict the victim, steering the fill into the request
	// class's partition; when the preferred partition has no usable way
	// (all gated), fall back to the whole set.
	lo, hi := c.fillPartition(isWrite)
	vw := c.victimWayIn(set, lo, hi)
	if vw < 0 {
		vw = c.victimWayIn(set, 0, c.cfg.Assoc)
	}
	victim := &c.sets[set][vw]
	if victim.valid {
		victimAddr := c.reconstructAddr(set, victim.tag)
		c.unnameMSHR(victimAddr)
		c.Evictions++
		if c.gated != nil && vw >= c.cfg.SRAMWays {
			// Capacity pressure on the gateable partition: wake signal
			// for the next interval boundary.
			c.gatePressure++
		}
		if victim.dirty {
			c.DirtyEvictions++
			fillDone = c.pushWriteback(fillDone, victimAddr)
		}
	}
	*victim = line{tag: tag, valid: true, dirty: isWrite, lastUse: c.useClock, ready: fillDone + 1}
	if c.wayActive != nil {
		c.wayActive[vw]++
	}
	if vw < c.cfg.SRAMWays {
		// The install is an SRAM-partition array write.
		c.SRAMWrites++
	}

	// The bank is busy only for the lookup; the line is fetched through
	// an MSHR while the array keeps serving other requests (the brief
	// install write at fillDone is not modelled as occupancy, like
	// gem5's classic caches). The requested word bypasses to the
	// requester critical-word-first.
	clocks[bank] = start + mival
	c.stats.BusyCycles += mival
	c.setMSHR(lineAddr, fillDone+1)

	switch req.Kind {
	case mem.Prefetch:
		return start
	case mem.Write, mem.WriteBack:
		if vw < c.cfg.SRAMWays {
			return fillDone + c.cfg.SRAMWriteLat
		}
		return fillDone + c.cfg.WriteLat
	default:
		return fillDone + 1
	}
}

// advanceShutdown processes the most recent shutdown-interval boundary
// at or before now, if it has not been processed yet. Whether a
// boundary has passed depends on now, so every call counts in Witness. Request
// timestamps are not globally monotone (the store drain runs ahead of
// loads), so the high-water mark only ever moves forward; a span with
// no accesses is treated as one long interval.
func (c *Cache) advanceShutdown(now int64) {
	c.Witness++
	iv := c.cfg.ShutdownInterval
	b := now - now%iv
	if b <= c.gateHW {
		return
	}
	c.gateHW = b
	c.intervalBoundary(b)
}

// intervalBoundary applies the Mittal-style way-shutdown policy at
// boundary cycle b: under capacity pressure every gated way wakes;
// otherwise every gateable way with no activity over the interval is
// gated, as long as at least one way of the set stays awake. Activity
// and pressure counters restart for the next interval.
func (c *Cache) intervalBoundary(b int64) {
	if c.gatePressure > 0 {
		for w := c.cfg.SRAMWays; w < c.cfg.Assoc; w++ {
			if c.gated[w] {
				c.wakeWay(w, b)
			}
		}
	} else {
		awake := 0
		for w := 0; w < c.cfg.Assoc; w++ {
			if !c.gated[w] {
				awake++
			}
		}
		for w := c.cfg.SRAMWays; w < c.cfg.Assoc; w++ {
			if !c.gated[w] && c.wayActive[w] == 0 && awake > 1 {
				c.gateWay(w, b)
				awake--
			}
		}
	}
	c.gatePressure = 0
	for i := range c.wayActive {
		c.wayActive[i] = 0
	}
}

// gateWay power-gates way w at boundary cycle b: dirty lines drain
// straight to the next level (a dedicated flush path, not the eviction
// write buffer), every resident line is invalidated — a gated way holds
// no lines, so no later read can observe stale contents — and the way
// stops leaking.
func (c *Cache) gateWay(w int, b int64) {
	for set := range c.sets {
		ln := &c.sets[set][w]
		if ln.valid {
			addr := c.reconstructAddr(set, ln.tag)
			c.unnameMSHR(addr)
			if ln.dirty {
				c.next.Access(b, mem.Req{Addr: addr, Bytes: c.cfg.LineSize, Kind: mem.WriteBack})
				c.WayFlushWBs++
			}
			*ln = line{}
		}
	}
	c.gated[w] = true
	c.gateStart[w] = b
	c.WayShutdowns++
}

// wakeWay re-powers way w at boundary cycle b, banking its completed
// off-time.
func (c *Cache) wakeWay(w int, b int64) {
	c.gated[w] = false
	if d := b - c.gateStart[w]; d > 0 {
		c.wayOffCycles += d
	}
	c.WayWakeups++
}

// OffCyclesAt returns the total gated way-cycles as of cycle end:
// completed gating episodes plus the still-open ones. internal/energy
// converts this into a leakage credit.
func (c *Cache) OffCyclesAt(end int64) int64 {
	off := c.wayOffCycles
	for w := range c.gated {
		if c.gated[w] {
			if d := end - c.gateStart[w]; d > 0 {
				off += d
			}
		}
	}
	return off
}

// GatedWays returns a copy of the per-way power-gating flags (nil when
// shutdown is disabled), for the invariant checker and tests.
func (c *Cache) GatedWays() []bool {
	if c.gated == nil {
		return nil
	}
	out := make([]bool, len(c.gated))
	copy(out, c.gated)
	return out
}

// FetchLine is a resident line held open by the replay loop's
// instruction fetch (cpu.ReplayTrace): a fetch that stays on it is a hit
// that needs no lookup, served by FetchHit.
type FetchLine struct {
	ln   *line
	bank *int64
}

// OpenFetch looks up line number lineN for an instruction fetch. On a
// hit it returns the line open, and the caller serves this and every
// further fetch of it through FetchHit until its next Access, which may
// evict the line. On a miss it reports false, and the caller fetches
// through Access, which installs the line.
func (c *Cache) OpenFetch(lineN mem.Addr) (FetchLine, bool) {
	if c.cfg.SRAMWays > 0 || c.cfg.ShutdownInterval > 0 {
		// FetchHit is the homogeneous read hit; hybrid partitioning and
		// way shutdown are DL1-only mechanisms, never configured on the
		// bare IL1 the replay loop fetches from.
		panic(fmt.Sprintf("cache %s: OpenFetch requires a homogeneous, always-on array", c.cfg.Name))
	}
	set, tag := int(lineN&c.setMask), lineN>>c.setShift
	w := c.lookup(set, tag)
	if w < 0 {
		return FetchLine{}, false
	}
	return FetchLine{ln: &c.sets[set][w], bank: &c.bankFree[int(lineN)&c.bankMask]}, true
}

// FetchHit serves an instruction fetch at cycle now that hits the open
// line fl. It is accessOne's read hit without the lookup: the same bank
// wait, counters, LRU stamp and hit-under-fill cap. It must stay within
// the inliner's budget (scripts/check.sh), because the replay loop calls
// it on nearly every record.
func (c *Cache) FetchHit(now int64, fl FetchLine) int64 {
	c.useClock++
	c.stats.Reads++
	c.stats.ReadHits++
	start := max(now, *fl.bank)
	c.BankConflictCycles += start - now
	*fl.bank = start + c.cfg.ReadInterval
	c.stats.BusyCycles += c.cfg.ReadInterval
	fl.ln.lastUse = c.useClock
	hit := start + c.cfg.ReadLat
	done := max(hit, fl.ln.ready)
	c.HitUnderFillCycles += done - hit
	return done
}

func (c *Cache) reconstructAddr(set int, tag mem.Addr) mem.Addr {
	l := mem.Addr(set) | tag<<c.setShift
	return l << c.lineShift
}

// unnameMSHR is called when lineAddr leaves the array: its entry keeps
// occupying the slot until the fill's ready, but names no line.
func (c *Cache) unnameMSHR(lineAddr mem.Addr) {
	for i := range c.mshrs {
		if c.mshrs[i].valid && c.mshrs[i].lineAddr == lineAddr {
			c.mshrs[i].lineAddr = unnamed
		}
	}
}

// allocMSHRTime returns the cycle at which an MSHR slot is available at or
// after start, expiring completed entries along the way.
func (c *Cache) allocMSHRTime(start int64) int64 {
	earliest := int64(-1)
	for i := range c.mshrs {
		m := &c.mshrs[i]
		if !m.valid || m.ready <= start {
			m.valid = false
			return start
		}
		if earliest < 0 || m.ready < earliest {
			earliest = m.ready
		}
	}
	c.MSHRStallCycles += earliest - start
	// One entry frees at `earliest`.
	for i := range c.mshrs {
		if c.mshrs[i].valid && c.mshrs[i].ready == earliest {
			c.mshrs[i].valid = false
			break
		}
	}
	return earliest
}

func (c *Cache) setMSHR(lineAddr mem.Addr, ready int64) {
	for i := range c.mshrs {
		if !c.mshrs[i].valid {
			c.mshrs[i] = mshr{lineAddr: lineAddr, valid: true, ready: ready}
			return
		}
	}
	// allocMSHRTime guaranteed a free slot; reaching here is a bug.
	panic("cache: no free MSHR after allocation")
}

// pushWriteback places a dirty eviction into the write buffer. The fill
// normally proceeds unhindered; only a full buffer back-pressures it.
func (c *Cache) pushWriteback(now int64, victimAddr mem.Addr) int64 {
	slot := -1
	var soonest int64 = -1
	for i := range c.wbuf {
		if c.wbuf[i].retire <= now {
			slot = i
			break
		}
		if soonest < 0 || c.wbuf[i].retire < soonest {
			soonest = c.wbuf[i].retire
			slot = i
		}
	}
	start := now
	if c.wbuf[slot].retire > now {
		c.WBStallCycles += soonest - now
		start = soonest
	}
	retire := c.next.Access(start, mem.Req{Addr: victimAddr, Bytes: c.cfg.LineSize, Kind: mem.WriteBack})
	c.wbuf[slot].retire = retire
	return start
}

// UseClock returns the LRU use counter (one tick per accessOne), so an
// invariant checker attached to a warm cache can continue the recency
// numbering exactly.
func (c *Cache) UseClock() uint64 { return c.useClock }

// Contains reports whether the line holding addr is present (for tests
// and invariant checks; no timing side effects).
func (c *Cache) Contains(addr mem.Addr) bool {
	set, tag := c.indexOf(addr)
	return c.lookup(set, tag) >= 0
}

// Dirty reports whether the line holding addr is present and dirty.
func (c *Cache) Dirty(addr mem.Addr) bool {
	set, tag := c.indexOf(addr)
	w := c.lookup(set, tag)
	return w >= 0 && c.sets[set][w].dirty
}

// LineView is a read-only view of one way of a set, exported for the
// internal/check timing oracle's shadow-state comparison. Addr is the
// reconstructed line-aligned byte address (meaningful only when Valid).
type LineView struct {
	Addr    mem.Addr
	Valid   bool
	Dirty   bool
	LastUse uint64
}

// SetView returns the current contents of one set, way by way (no timing
// side effects).
func (c *Cache) SetView(set int) []LineView { return c.AppendSetView(nil, set) }

// AppendSetView appends the contents of one set to dst and returns the
// extended slice (the allocation-free form of SetView, for the per-access
// checker).
func (c *Cache) AppendSetView(dst []LineView, set int) []LineView {
	for _, ln := range c.sets[set] {
		v := LineView{Valid: ln.valid, Dirty: ln.dirty, LastUse: ln.lastUse}
		if ln.valid {
			v.Addr = c.reconstructAddr(set, ln.tag)
		}
		dst = append(dst, v)
	}
	return dst
}

// MSHRView is a read-only view of one miss-status register, exported for
// the invariant checker's exactly-once occupancy check.
type MSHRView struct {
	LineAddr mem.Addr
	Ready    int64
	Valid    bool
}

// MSHRs returns the current MSHR file contents (no timing side effects).
// Entries whose Ready has passed may linger as Valid: the file expires
// them lazily on the next allocation. A valid entry names a resident
// line, or no line at all once its line has left the array.
func (c *Cache) MSHRs() []MSHRView { return c.AppendMSHRs(nil) }

// AppendMSHRs appends the MSHR file contents to dst and returns the
// extended slice (the allocation-free form of MSHRs).
func (c *Cache) AppendMSHRs(dst []MSHRView) []MSHRView {
	for _, m := range c.mshrs {
		dst = append(dst, MSHRView{LineAddr: m.lineAddr, Ready: m.ready, Valid: m.valid})
	}
	return dst
}

// BusyClocks returns a copy of the per-bank busy-until clocks (the
// SRAM partition's private clocks appended after the main array's, when
// the cache is hybrid). The invariant checker requires each to be
// monotonically non-decreasing across accesses (between timing resets).
func (c *Cache) BusyClocks() []int64 {
	out := make([]int64, 0, len(c.bankFree)+len(c.sramFree))
	out = append(out, c.bankFree...)
	out = append(out, c.sramFree...)
	return out
}

// ResidentLines returns the number of valid lines (for occupancy checks).
func (c *Cache) ResidentLines() int {
	n := 0
	for _, set := range c.sets {
		for _, ln := range set {
			if ln.valid {
				n++
			}
		}
	}
	return n
}

// ResetTiming clears timing state (bank clocks, MSHRs, write buffer) and
// all counters while keeping cache contents — used between a warm-up run
// and the measured run.
func (c *Cache) ResetTiming() {
	for i := range c.bankFree {
		c.bankFree[i] = 0
	}
	// Contents persist across a timing reset but in-flight fill times do
	// not: the measured run's clock restarts at 0.
	for _, set := range c.sets {
		for w := range set {
			set[w].ready = 0
		}
	}
	for i := range c.mshrs {
		c.mshrs[i] = mshr{}
	}
	for i := range c.wbuf {
		c.wbuf[i] = wbEntry{}
	}
	for i := range c.sramFree {
		c.sramFree[i] = 0
	}
	// Gated ways stay gated across a timing reset (they hold no lines,
	// matching the persisting contents), but their episodes restart at
	// cycle 0 with the measured run's clock.
	if c.gated != nil {
		for i := range c.gateStart {
			c.gateStart[i] = 0
		}
		for i := range c.wayActive {
			c.wayActive[i] = 0
		}
		c.gatePressure = 0
		c.gateHW = 0
	}
	c.stats = mem.Stats{}
	c.BankConflictCycles = 0
	c.MSHRStallCycles = 0
	c.WBStallCycles = 0
	c.HitUnderFillCycles = 0
	c.Evictions = 0
	c.DirtyEvictions = 0
	c.SRAMReads, c.SRAMWrites = 0, 0
	c.PrefetchDrops = 0
	c.WayShutdowns, c.WayWakeups, c.WayFlushWBs = 0, 0, 0
	c.wayOffCycles = 0
}

// CopyWarm copies src's persistent state — set contents, the use clock
// and the gated ways — into c. Both must share one geometry and be just
// past ResetTiming, so every clock, MSHR and write-buffer slot is
// already zero on both sides (DESIGN.md §7.9).
func (c *Cache) CopyWarm(src *Cache) {
	for i := range c.sets {
		copy(c.sets[i], src.sets[i])
	}
	c.useClock = src.useClock
	copy(c.gated, src.gated)
}
