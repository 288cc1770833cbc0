package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sttdl1/internal/mem"
)

func cfg64k() Config {
	return Config{
		Name: "t", Size: 64 << 10, Assoc: 2, LineSize: 64, Banks: 4,
		ReadLat: 4, WriteLat: 2, MSHRs: 4, WriteBufDepth: 4,
	}
}

func smallCfg() Config {
	// 4 sets x 2 ways x 64B = 512B: easy to force evictions.
	return Config{
		Name: "small", Size: 512, Assoc: 2, LineSize: 64, Banks: 1,
		ReadLat: 4, WriteLat: 2, MSHRs: 2, WriteBufDepth: 2,
	}
}

func TestConfigValidate(t *testing.T) {
	good := cfg64k()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*Config){
		func(c *Config) { c.Size = 0 },
		func(c *Config) { c.LineSize = 48 }, // not a power of two
		func(c *Config) { c.Banks = 3 },     // not a power of two
		func(c *Config) { c.ReadLat = 0 },
		func(c *Config) { c.MSHRs = 0 },
		func(c *Config) { c.Size = 65 << 10 }, // sets not power of two
		func(c *Config) { c.Assoc = 7 },       // size not divisible
	}
	for i, mutate := range bad {
		c := cfg64k()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestSets(t *testing.T) {
	c := cfg64k()
	if got := c.Sets(); got != 512 {
		t.Errorf("Sets = %d, want 512", got)
	}
}

func TestMissThenHitLatency(t *testing.T) {
	next := &mem.FixedPort{Latency: 10}
	c := New(cfg64k(), next)

	// Cold miss: lookup (4) + next level (10) + critical word (1).
	done := c.Access(0, mem.Req{Addr: 0x100, Bytes: 4, Kind: mem.Read})
	if done != 15 {
		t.Errorf("miss done = %d, want 15", done)
	}
	// Hit on the same line: read latency only.
	done = c.Access(100, mem.Req{Addr: 0x104, Bytes: 4, Kind: mem.Read})
	if done != 104 {
		t.Errorf("hit done = %d, want 104", done)
	}
	// Write hit: write latency.
	done = c.Access(200, mem.Req{Addr: 0x108, Bytes: 4, Kind: mem.Write})
	if done != 202 {
		t.Errorf("write hit done = %d, want 202", done)
	}
	st := c.Stats()
	if st.Reads != 2 || st.ReadHits != 1 || st.Writes != 1 || st.WriteHits != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestBankOccupancyNonPipelined(t *testing.T) {
	next := &mem.FixedPort{Latency: 10}
	c := New(cfg64k(), next)                                  // ReadInterval defaults to ReadLat = 4
	c.Access(0, mem.Req{Addr: 0x0, Bytes: 4, Kind: mem.Read}) // warm line 0

	// Two back-to-back hits to the same bank serialize at the interval.
	d1 := c.Access(100, mem.Req{Addr: 0x0, Bytes: 4, Kind: mem.Read})
	d2 := c.Access(100, mem.Req{Addr: 0x4, Bytes: 4, Kind: mem.Read})
	if d1 != 104 {
		t.Errorf("first hit done = %d, want 104", d1)
	}
	if d2 != 108 {
		t.Errorf("same-bank hit must wait the 4-cycle interval: done = %d, want 108", d2)
	}
	if c.BankConflictCycles == 0 {
		t.Error("conflict cycles not recorded")
	}
}

func TestBankOccupancyPipelined(t *testing.T) {
	cfg := cfg64k()
	cfg.ReadLat, cfg.WriteLat = 1, 1
	cfg.ReadInterval, cfg.WriteInterval = 1, 1
	c := New(cfg, &mem.FixedPort{Latency: 10})
	c.Access(0, mem.Req{Addr: 0x0, Bytes: 4, Kind: mem.Read})

	d1 := c.Access(100, mem.Req{Addr: 0x0, Bytes: 4, Kind: mem.Read})
	d2 := c.Access(100, mem.Req{Addr: 0x4, Bytes: 4, Kind: mem.Read})
	if d1 != 101 || d2 != 102 {
		t.Errorf("pipelined bank: %d, %d; want 101, 102", d1, d2)
	}
}

func TestDifferentBanksNoConflict(t *testing.T) {
	next := &mem.FixedPort{Latency: 10}
	c := New(cfg64k(), next)
	c.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})  // bank 0
	c.Access(0, mem.Req{Addr: 64, Bytes: 4, Kind: mem.Read}) // bank 1
	conf := c.BankConflictCycles
	d1 := c.Access(100, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	d2 := c.Access(100, mem.Req{Addr: 64, Bytes: 4, Kind: mem.Read})
	if d1 != 104 || d2 != 104 {
		t.Errorf("different banks must proceed in parallel: %d, %d", d1, d2)
	}
	if c.BankConflictCycles != conf {
		t.Error("no new conflicts expected")
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(smallCfg(), &mem.FixedPort{Latency: 10})
	// Set 0 holds lines with addr%256 == 0 (4 sets of 64B): lines 0, 256, 512.
	c.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	c.Access(100, mem.Req{Addr: 256, Bytes: 4, Kind: mem.Read})
	// Touch line 0 so 256 becomes LRU.
	c.Access(200, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	// Fill line 512: must evict 256.
	c.Access(300, mem.Req{Addr: 512, Bytes: 4, Kind: mem.Read})
	if !c.Contains(0) {
		t.Error("MRU line 0 evicted")
	}
	if c.Contains(256) {
		t.Error("LRU line 256 not evicted")
	}
	if !c.Contains(512) {
		t.Error("new line 512 not installed")
	}
	if c.Evictions != 1 {
		t.Errorf("evictions = %d", c.Evictions)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	next := &mem.FixedPort{Latency: 10}
	c := New(smallCfg(), next)
	c.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Write}) // allocate + dirty
	if !c.Dirty(0) {
		t.Fatal("line 0 must be dirty")
	}
	c.Access(100, mem.Req{Addr: 256, Bytes: 4, Kind: mem.Read})
	before := next.Count
	c.Access(200, mem.Req{Addr: 512, Bytes: 4, Kind: mem.Read}) // evicts dirty 0... LRU is 0? touched at t=0
	// line 0 was LRU (oldest use), so it is the victim and must write back.
	if c.DirtyEvictions != 1 {
		t.Fatalf("dirty evictions = %d", c.DirtyEvictions)
	}
	if next.Count != before+2 { // fill + writeback
		t.Errorf("next-level accesses = %d, want fill+writeback", next.Count-before)
	}
	if next.Last.Kind != mem.WriteBack && next.Last.Kind != mem.Fill {
		t.Errorf("unexpected last request kind %v", next.Last.Kind)
	}
}

func TestMSHRMerge(t *testing.T) {
	next := &mem.FixedPort{Latency: 50}
	c := New(cfg64k(), next)
	d1 := c.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	// Demand to the same line while the fill is outstanding hits the line
	// installed at miss time and waits for its fill instead of
	// re-fetching.
	before := next.Count
	d2 := c.Access(10, mem.Req{Addr: 4, Bytes: 4, Kind: mem.Read})
	if next.Count != before {
		t.Error("merged access must not re-fetch from next level")
	}
	if d2 > d1+1 {
		t.Errorf("merged access done = %d, first = %d", d2, d1)
	}
}

func TestMSHRExhaustionStalls(t *testing.T) {
	cfg := cfg64k()
	cfg.MSHRs = 1
	next := &mem.FixedPort{Latency: 50}
	c := New(cfg, next)
	c.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	// A miss to a different line with the single MSHR busy must wait.
	c.Access(1, mem.Req{Addr: 4096, Bytes: 4, Kind: mem.Read})
	if c.MSHRStallCycles == 0 {
		t.Error("MSHR stall not recorded")
	}
}

func TestPrefetchNonBlocking(t *testing.T) {
	next := &mem.FixedPort{Latency: 50}
	c := New(cfg64k(), next)
	done := c.Access(10, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Prefetch})
	if done != 10 {
		t.Errorf("prefetch must return immediately, got %d", done)
	}
	if !c.Contains(0) {
		t.Error("prefetch must install the line")
	}
	// A prefetch hit is also free.
	done = c.Access(200, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Prefetch})
	if done != 200 {
		t.Errorf("prefetch hit must return immediately, got %d", done)
	}
	st := c.Stats()
	if st.Prefetches != 2 || st.PrefetchHits != 1 {
		t.Errorf("prefetch stats %+v", st)
	}
}

func TestSplitAccessAcrossLines(t *testing.T) {
	next := &mem.FixedPort{Latency: 10}
	c := New(cfg64k(), next)
	// Warm both lines.
	c.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	c.Access(0, mem.Req{Addr: 64, Bytes: 4, Kind: mem.Read})
	st0 := c.Stats()
	// A 16-byte access at offset 56 spans lines 0 and 64.
	c.Access(100, mem.Req{Addr: 56, Bytes: 16, Kind: mem.Read})
	st1 := c.Stats()
	if st1.Reads-st0.Reads != 2 {
		t.Errorf("split access must count two reads, got %d", st1.Reads-st0.Reads)
	}
	// An aligned 16-byte access counts once.
	c.Access(200, mem.Req{Addr: 0, Bytes: 16, Kind: mem.Read})
	st2 := c.Stats()
	if st2.Reads-st1.Reads != 1 {
		t.Errorf("aligned access must count one read, got %d", st2.Reads-st1.Reads)
	}
}

func TestWriteMissAllocates(t *testing.T) {
	next := &mem.FixedPort{Latency: 10}
	c := New(cfg64k(), next)
	done := c.Access(0, mem.Req{Addr: 128, Bytes: 4, Kind: mem.Write})
	// lookup(4 read) + fill(10) + write install (2).
	if done != 16 {
		t.Errorf("write-allocate miss done = %d, want 16", done)
	}
	if !c.Contains(128) || !c.Dirty(128) {
		t.Error("write miss must allocate a dirty line")
	}
}

func TestResetTimingKeepsContents(t *testing.T) {
	c := New(smallCfg(), &mem.FixedPort{Latency: 10})
	c.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	c.ResetTiming()
	if !c.Contains(0) {
		t.Error("ResetTiming must keep resident lines")
	}
	if c.Stats().Accesses() != 0 {
		t.Error("ResetTiming must clear stats")
	}
	// The bank clock is back at zero: an access at t=0 is unobstructed.
	if done := c.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read}); done != 4 {
		t.Errorf("post-reset hit done = %d, want 4", done)
	}
}

// Property: occupancy never exceeds capacity, and completion times are
// never before the request time, under random access streams.
func TestRandomStreamInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := New(smallCfg(), &mem.FixedPort{Latency: 10})
		capacity := smallCfg().Size / smallCfg().LineSize
		now := int64(0)
		for i := 0; i < 500; i++ {
			now += int64(r.Intn(5))
			kind := mem.Read
			if r.Intn(3) == 0 {
				kind = mem.Write
			}
			addr := mem.Addr(r.Intn(4096)) &^ 3
			done := c.Access(now, mem.Req{Addr: addr, Bytes: 4, Kind: kind})
			if done < now {
				t.Logf("done %d before now %d", done, now)
				return false
			}
			if c.ResidentLines() > capacity {
				t.Logf("occupancy %d > capacity %d", c.ResidentLines(), capacity)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the cache is deterministic — identical streams produce
// identical timing.
func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		r := rand.New(rand.NewSource(7))
		c := New(cfg64k(), &mem.FixedPort{Latency: 12})
		var out []int64
		now := int64(0)
		for i := 0; i < 2000; i++ {
			now += int64(r.Intn(3))
			addr := mem.Addr(r.Intn(1 << 18))
			out = append(out, c.Access(now, mem.Req{Addr: addr, Bytes: 4, Kind: mem.Read}))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at access %d: %d != %d", i, a[i], b[i])
		}
	}
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(Config{Name: "bad"}, &mem.FixedPort{})
}

func TestNewPanicsOnNilNext(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(cfg64k(), nil)
}
