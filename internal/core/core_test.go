package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sttdl1/internal/mem"
)

// nvmPort mimics a 4-cycle-read / 2-cycle-write NVM DL1 with counters.
type nvmPort struct {
	reads, writes, fills, writebacks int
	lastKind                         mem.Kind
}

func (p *nvmPort) Access(now int64, req mem.Req) int64 {
	p.lastKind = req.Kind
	switch req.Kind {
	case mem.Write, mem.WriteBack:
		p.writes++
		if req.Kind == mem.WriteBack {
			p.writebacks++
		}
		return now + 2
	case mem.Fill:
		p.fills++
		return now + 4
	default:
		p.reads++
		return now + 4
	}
}

func vwb4() (*VWB, *nvmPort) {
	p := &nvmPort{}
	return NewVWB(DefaultVWBConfig(), p), p
}

func TestVWBLines(t *testing.T) {
	v, _ := vwb4()
	if v.Lines() != 4 {
		t.Fatalf("2Kbit / 512bit = 4 rows, got %d", v.Lines())
	}
	v2 := NewVWB(VWBConfig{SizeBits: 1024, LineSize: 64, HitLat: 1}, &nvmPort{})
	if v2.Lines() != 2 {
		t.Fatalf("1Kbit = 2 rows, got %d", v2.Lines())
	}
}

func TestVWBLoadPolicy(t *testing.T) {
	v, p := vwb4()
	// Miss: the line is promoted from the DL1 (one wide Fill).
	done := v.Access(0, mem.Req{Addr: 0x100, Bytes: 4, Kind: mem.Read})
	if p.fills != 1 {
		t.Fatalf("fills = %d, want 1", p.fills)
	}
	if done != 0+4+1 { // fill (4) + MUX word (1)
		t.Errorf("miss done = %d, want 5", done)
	}
	if !v.Contains(0x100) {
		t.Error("promoted line must be resident")
	}
	// Hit: 1 cycle, no DL1 traffic.
	done = v.Access(100, mem.Req{Addr: 0x104, Bytes: 4, Kind: mem.Read})
	if done != 101 {
		t.Errorf("hit done = %d, want 101", done)
	}
	if p.fills != 1 || p.reads != 0 {
		t.Error("hit must not touch the DL1")
	}
	st := v.Stats()
	if st.Reads != 2 || st.ReadHits != 1 {
		t.Errorf("stats %+v", st)
	}
}

func TestVWBStorePolicy(t *testing.T) {
	v, p := vwb4()
	// Store miss: no-allocate in the VWB, straight to the DL1.
	done := v.Access(0, mem.Req{Addr: 0x200, Bytes: 4, Kind: mem.Write})
	if done != 2 {
		t.Errorf("store miss done = %d, want DL1 write at 2", done)
	}
	if v.Contains(0x200) {
		t.Error("store miss must not allocate")
	}
	if p.writes != 1 {
		t.Errorf("DL1 writes = %d", p.writes)
	}
	// Promote the line, then a store hits the buffer row.
	v.Access(10, mem.Req{Addr: 0x200, Bytes: 4, Kind: mem.Read})
	done = v.Access(100, mem.Req{Addr: 0x204, Bytes: 4, Kind: mem.Write})
	if done != 101 {
		t.Errorf("store hit done = %d, want 101", done)
	}
	if p.writes != 1 {
		t.Error("store hit must stay in the buffer")
	}
}

func TestVWBDirtyEvictionWritesBack(t *testing.T) {
	v, p := vwb4()
	v.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	v.Access(10, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Write}) // dirty row 0
	// Fill the remaining rows and one more to evict line 0.
	for i := 1; i <= 4; i++ {
		v.Access(int64(100*i), mem.Req{Addr: mem.Addr(i * 64), Bytes: 4, Kind: mem.Read})
	}
	if p.writebacks != 1 {
		t.Errorf("writebacks = %d, want 1 (dirty row 0)", p.writebacks)
	}
	if v.Contains(0) {
		t.Error("line 0 must be evicted")
	}
	if v.WriteBacks != 1 {
		t.Errorf("VWB writeback counter = %d", v.WriteBacks)
	}
}

func TestVWBCleanEvictionSilent(t *testing.T) {
	v, p := vwb4()
	for i := 0; i <= 4; i++ {
		v.Access(int64(100*i), mem.Req{Addr: mem.Addr(i * 64), Bytes: 4, Kind: mem.Read})
	}
	if p.writebacks != 0 {
		t.Errorf("clean evictions must be silent, got %d writebacks", p.writebacks)
	}
}

func TestVWBLRU(t *testing.T) {
	v, _ := vwb4()
	for i := 0; i < 4; i++ {
		v.Access(int64(10*i), mem.Req{Addr: mem.Addr(i * 64), Bytes: 4, Kind: mem.Read})
	}
	// Touch line 0 so line 1 (64) is LRU.
	v.Access(100, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	v.Access(200, mem.Req{Addr: 1024, Bytes: 4, Kind: mem.Read})
	if v.Contains(64) {
		t.Error("LRU line 64 should be evicted")
	}
	if !v.Contains(0) {
		t.Error("MRU line 0 should stay")
	}
}

func TestVWBFIFO(t *testing.T) {
	cfg := DefaultVWBConfig()
	cfg.Policy = EvictFIFO
	v := NewVWB(cfg, &nvmPort{})
	for i := 0; i < 4; i++ {
		v.Access(int64(10*i), mem.Req{Addr: mem.Addr(i * 64), Bytes: 4, Kind: mem.Read})
	}
	v.Access(100, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read}) // touch does not matter for FIFO
	v.Access(200, mem.Req{Addr: 1024, Bytes: 4, Kind: mem.Read})
	if v.Contains(0) {
		t.Error("FIFO must evict the oldest allocation (line 0) despite the touch")
	}
}

func TestVWBPrefetchNonBlockingAndFiltered(t *testing.T) {
	v, p := vwb4()
	done := v.Access(50, mem.Req{Addr: 0x400, Bytes: 4, Kind: mem.Prefetch})
	if done != 50 {
		t.Errorf("prefetch must not block, got %d", done)
	}
	if p.fills != 1 || !v.Contains(0x400) {
		t.Error("prefetch must promote the line")
	}
	// Evict 0x400 with four more prefetches (with every row speculative,
	// the victim policy falls back to plain LRU, so the oldest — 0x400 —
	// goes first).
	for i := 0; i < 4; i++ {
		v.Access(int64(52+i), mem.Req{Addr: mem.Addr(0x1000 + i*64), Bytes: 4, Kind: mem.Prefetch})
	}
	if v.Contains(0x400) {
		t.Fatal("0x400 should be evicted")
	}
	if v.PrefetchWasted == 0 {
		t.Error("evicting an untouched prefetch must count as wasted")
	}
	fills := p.fills
	v.Access(60, mem.Req{Addr: 0x400, Bytes: 4, Kind: mem.Prefetch}) // within 32-cycle window of t=50
	if p.fills != fills {
		t.Error("re-prefetch within the filter window must be dropped")
	}
	v.Access(150, mem.Req{Addr: 0x400, Bytes: 4, Kind: mem.Prefetch}) // window passed
	if p.fills != fills+1 {
		t.Error("prefetch after the window must promote again")
	}
}

func TestVWBPrefetchProtection(t *testing.T) {
	v, _ := vwb4()
	// Fill all four rows with demand lines.
	for i := 0; i < 4; i++ {
		v.Access(int64(i), mem.Req{Addr: mem.Addr(i * 64), Bytes: 4, Kind: mem.Read})
	}
	// Prefetch a new line (evicts the LRU demand line 0)...
	v.Access(20, mem.Req{Addr: 0x800, Bytes: 4, Kind: mem.Prefetch})
	if !v.Contains(0x800) {
		t.Fatal("prefetch must allocate")
	}
	// ...then a demand miss shortly after must NOT evict the protected
	// prefetched row.
	v.Access(25, mem.Req{Addr: 0x900, Bytes: 4, Kind: mem.Read})
	if !v.Contains(0x800) {
		t.Error("freshly prefetched row evicted despite protection")
	}
	if v.PrefetchWasted != 0 {
		t.Errorf("wasted = %d", v.PrefetchWasted)
	}
	// A demand hit consumes the prefetch.
	v.Access(40, mem.Req{Addr: 0x800, Bytes: 4, Kind: mem.Read})
	if v.PrefetchUseful != 1 {
		t.Errorf("useful = %d, want 1", v.PrefetchUseful)
	}
}

func TestVWBReadPortSerializes(t *testing.T) {
	v, _ := vwb4()
	v.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	d1 := v.Access(100, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	d2 := v.Access(100, mem.Req{Addr: 4, Bytes: 4, Kind: mem.Read})
	if d1 != 101 || d2 != 102 {
		t.Errorf("read port must serialize 1/cycle: %d, %d", d1, d2)
	}
	// Writes use the other port and proceed concurrently.
	v.Access(100, mem.Req{Addr: 8, Bytes: 4, Kind: mem.Write})
	d3 := v.Access(100, mem.Req{Addr: 12, Bytes: 4, Kind: mem.Write})
	if d3 != 102 {
		t.Errorf("write port independent of reads but serial with writes: %d", d3)
	}
}

func TestVWBResetAndResetTiming(t *testing.T) {
	v, _ := vwb4()
	v.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	v.ResetTiming()
	if !v.Contains(0) {
		t.Error("ResetTiming must keep rows")
	}
	if v.Stats().Reads != 0 || v.Promotions != 0 {
		t.Error("ResetTiming must clear counters")
	}
	v.Reset()
	if v.Contains(0) {
		t.Error("Reset must drop rows")
	}
}

func TestL0RefillBlocksPort(t *testing.T) {
	p := &nvmPort{}
	l := NewL0(DefaultL0Config(), p)
	// Miss: critical word at fill time, then the port streams beats.
	done := l.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	if done != 4 {
		t.Errorf("critical word at %d, want 4", done)
	}
	// A hit to another resident line right after the refill waits for
	// the beats (64B / 32B = 2 beats after critical).
	l.Access(100, mem.Req{Addr: 64, Bytes: 4, Kind: mem.Read}) // second line: miss at 100, crit 104, port to 106
	d := l.Access(105, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	if d <= 106 {
		t.Errorf("hit during refill beats must wait: done = %d", d)
	}
	if l.PortStallCycles == 0 {
		t.Error("port stalls not recorded")
	}
}

func TestL0StorePolicy(t *testing.T) {
	p := &nvmPort{}
	l := NewL0(DefaultL0Config(), p)
	l.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	// Store hit updates the L0 (write-back).
	l.Access(50, mem.Req{Addr: 4, Bytes: 4, Kind: mem.Write})
	if p.writes != 0 {
		t.Error("store hit must stay in L0")
	}
	// Store miss goes to the DL1.
	l.Access(60, mem.Req{Addr: 4096, Bytes: 4, Kind: mem.Write})
	if p.writes != 1 {
		t.Error("store miss must go to DL1")
	}
	// Evicting the dirty line writes it back.
	for i := 1; i <= 4; i++ {
		l.Access(int64(100*i), mem.Req{Addr: mem.Addr(i * 64), Bytes: 4, Kind: mem.Read})
	}
	if p.writebacks != 1 {
		t.Errorf("dirty castout writebacks = %d", p.writebacks)
	}
}

func TestEMSHRStoreInvalidates(t *testing.T) {
	p := &nvmPort{}
	m := NewEMSHR(DefaultEMSHRConfig(), p)
	m.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	if !m.Contains(0) {
		t.Fatal("line must be retained after the fill")
	}
	m.Access(50, mem.Req{Addr: 4, Bytes: 4, Kind: mem.Write})
	if m.Contains(0) {
		t.Error("a store must invalidate the retained line")
	}
	if m.Invalidations != 1 {
		t.Errorf("invalidations = %d", m.Invalidations)
	}
	if p.writes != 1 {
		t.Error("the store itself must reach the DL1")
	}
}

func TestEMSHRServesRetainedLines(t *testing.T) {
	p := &nvmPort{}
	m := NewEMSHR(DefaultEMSHRConfig(), p)
	m.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	fills := p.fills
	done := m.Access(100, mem.Req{Addr: 8, Bytes: 4, Kind: mem.Read})
	if p.fills != fills {
		t.Error("retained line must serve without re-fetch")
	}
	if done != 101 {
		t.Errorf("retained hit done = %d, want 101", done)
	}
}

func TestDirectPassThrough(t *testing.T) {
	p := &nvmPort{}
	d := NewDirect(p)
	if done := d.Access(7, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read}); done != 11 {
		t.Errorf("done = %d, want 11", done)
	}
	if d.Name() != "direct" {
		t.Error("name")
	}
	if d.Stats().Reads != 1 {
		t.Error("stats must count")
	}
	d.Reset()
	if d.Stats().Reads != 0 {
		t.Error("reset")
	}
}

func TestFrontEndNames(t *testing.T) {
	p := &nvmPort{}
	if NewVWB(DefaultVWBConfig(), p).Name() != "vwb" {
		t.Error("vwb name")
	}
	if NewL0(DefaultL0Config(), p).Name() != "l0" {
		t.Error("l0 name")
	}
	if NewEMSHR(DefaultEMSHRConfig(), p).Name() != "emshr" {
		t.Error("emshr name")
	}
}

func TestCheckSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-multiple size")
		}
	}()
	NewVWB(VWBConfig{SizeBits: 100, LineSize: 64}, &nvmPort{})
}

// Property: occupancy never exceeds rows; completion never precedes
// issue; every resident line is 64B-aligned.
func TestVWBRandomInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v, _ := vwb4()
		now := int64(0)
		for i := 0; i < 400; i++ {
			now += int64(r.Intn(4))
			kind := mem.Read
			switch r.Intn(4) {
			case 0:
				kind = mem.Write
			case 1:
				kind = mem.Prefetch
			}
			addr := mem.Addr(r.Intn(2048)) &^ 3
			done := v.Access(now, mem.Req{Addr: addr, Bytes: 4, Kind: kind})
			if done < now {
				return false
			}
			resident := 0
			for _, e := range v.buf.entries {
				if e.valid {
					resident++
					if e.lineAddr%64 != 0 {
						return false
					}
				}
			}
			if resident > v.Lines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the three buffer structures are deterministic.
func TestFrontEndDeterminism(t *testing.T) {
	mkSeq := func(fe FrontEnd) []int64 {
		r := rand.New(rand.NewSource(3))
		var out []int64
		now := int64(0)
		for i := 0; i < 1000; i++ {
			now += int64(r.Intn(3))
			addr := mem.Addr(r.Intn(4096))
			kind := mem.Read
			if r.Intn(3) == 0 {
				kind = mem.Write
			}
			out = append(out, fe.Access(now, mem.Req{Addr: addr, Bytes: 4, Kind: kind}))
		}
		return out
	}
	builders := []func() FrontEnd{
		func() FrontEnd { return NewVWB(DefaultVWBConfig(), &nvmPort{}) },
		func() FrontEnd { return NewL0(DefaultL0Config(), &nvmPort{}) },
		func() FrontEnd { return NewEMSHR(DefaultEMSHRConfig(), &nvmPort{}) },
	}
	for _, mk := range builders {
		a, b := mkSeq(mk()), mkSeq(mk())
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: divergence at %d", mk().Name(), i)
			}
		}
	}
}

func TestEvictPolicyString(t *testing.T) {
	if EvictLRU.String() != "lru" || EvictFIFO.String() != "fifo" {
		t.Error("policy names")
	}
}

func TestL0AndEMSHRLifecycle(t *testing.T) {
	p := &nvmPort{}
	l := NewL0(DefaultL0Config(), p)
	l.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	if l.Stats().Reads != 1 {
		t.Error("l0 stats")
	}
	if !l.Contains(0) {
		t.Error("l0 contains")
	}
	l.ResetTiming()
	if !l.Contains(0) || l.Stats().Reads != 0 {
		t.Error("l0 ResetTiming must keep lines, clear counters")
	}
	l.Reset()
	if l.Contains(0) {
		t.Error("l0 Reset must drop lines")
	}

	m := NewEMSHR(DefaultEMSHRConfig(), p)
	m.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	if m.Stats().Reads != 1 {
		t.Error("emshr stats")
	}
	m.ResetTiming()
	if !m.Contains(0) || m.Stats().Reads != 0 {
		t.Error("emshr ResetTiming")
	}
	m.Reset()
	if m.Contains(0) {
		t.Error("emshr Reset")
	}

	d := NewDirect(p)
	d.Access(0, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	d.ResetTiming()
	if d.Stats().Reads != 0 {
		t.Error("direct ResetTiming")
	}
}

func TestDefaultConfigsValid(t *testing.T) {
	if c := DefaultVWBConfig(); c.SizeBits != 2048 || c.LineSize != 64 {
		t.Error("vwb defaults")
	}
	if c := DefaultL0Config(); c.BeatBytes != 32 {
		t.Error("l0 defaults")
	}
	if c := DefaultEMSHRConfig(); c.BeatBytes != 32 {
		t.Error("emshr defaults")
	}
	// Zero-valued optional fields get sane defaults.
	v := NewVWB(VWBConfig{SizeBits: 1024, LineSize: 64}, &nvmPort{})
	if v.hitLat != 1 {
		t.Error("hit latency default")
	}
	l := NewL0(L0Config{SizeBits: 1024, LineSize: 64}, &nvmPort{})
	if l.beats != 2 {
		t.Errorf("l0 default beats = %d", l.beats)
	}
	m := NewEMSHR(EMSHRConfig{SizeBits: 1024, LineSize: 64}, &nvmPort{})
	if m.beats != 2 {
		t.Errorf("emshr default beats = %d", m.beats)
	}
}

func TestEMSHRFetchBypassesPort(t *testing.T) {
	p := &nvmPort{}
	m := NewEMSHR(DefaultEMSHRConfig(), p)
	m.Access(0, mem.Req{Addr: 0, Bytes: 8, Kind: mem.Fetch}) // allocate
	// Two same-cycle fetch hits both complete next cycle: the row read
	// feeds the whole fetch group.
	d1 := m.Access(100, mem.Req{Addr: 0, Bytes: 8, Kind: mem.Fetch})
	d2 := m.Access(100, mem.Req{Addr: 8, Bytes: 8, Kind: mem.Fetch})
	if d1 != 101 || d2 != 101 {
		t.Errorf("fetch hits %d, %d; want 101, 101", d1, d2)
	}
	// Data reads do serialize.
	d3 := m.Access(200, mem.Req{Addr: 0, Bytes: 4, Kind: mem.Read})
	d4 := m.Access(200, mem.Req{Addr: 4, Bytes: 4, Kind: mem.Read})
	if d3 != 201 || d4 != 202 {
		t.Errorf("data reads %d, %d; want 201, 202", d3, d4)
	}
}

// slowLinePort serves line 0 in 20 cycles and every other line in 4:
// an IL1 whose first miss goes to L2 while the next one hits.
type slowLinePort struct{}

func (slowLinePort) Access(now int64, req mem.Req) int64 {
	if req.Addr < 64 {
		return now + 20
	}
	return now + 4
}

// TestEMSHRFetchBusyClockMonotone overlaps two fetch misses: the second
// line's refill completes before the first's, and the port's busy clock
// must stay at the later of the two instead of moving backward.
func TestEMSHRFetchBusyClockMonotone(t *testing.T) {
	m := NewEMSHR(DefaultEMSHRConfig(), slowLinePort{})
	last := m.BusyClocks()[0]
	for _, f := range []struct {
		now  int64
		addr mem.Addr
	}{{10, 0}, {11, 64}, {12, 128}} {
		m.Access(f.now, mem.Req{Addr: f.addr, Bytes: 8, Kind: mem.Fetch})
		if b := m.BusyClocks()[0]; b < last {
			t.Fatalf("fetch %#x at %d: busy clock moved backward %d -> %d", f.addr, f.now, last, b)
		} else {
			last = b
		}
	}
	if last != 32 {
		t.Errorf("busy clock %d, want 32 (the first refill's end)", last)
	}
}

func TestWriteBackKindPassesThrough(t *testing.T) {
	// Kinds the front-ends do not special-case flow to the DL1.
	p := &nvmPort{}
	for _, fe := range []FrontEnd{
		NewVWB(DefaultVWBConfig(), p),
		NewL0(DefaultL0Config(), p),
		NewEMSHR(DefaultEMSHRConfig(), p),
	} {
		before := p.writebacks
		fe.Access(0, mem.Req{Addr: 0, Bytes: 64, Kind: mem.WriteBack})
		if p.writebacks != before+1 {
			t.Errorf("%s: WriteBack must pass through", fe.Name())
		}
	}
}
