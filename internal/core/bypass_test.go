package core

import (
	"testing"

	"sttdl1/internal/mem"
)

func bypass16() (*Bypass, *nvmPort) {
	p := &nvmPort{}
	return NewBypass(DefaultBypassConfig(), p), p
}

// read issues a demand read of addr at now and returns its completion.
func bpRead(b *Bypass, now int64, addr mem.Addr) int64 {
	return b.Access(now, mem.Req{Addr: addr, Bytes: 4, Kind: mem.Read})
}

func TestBypassPredictsStride(t *testing.T) {
	b, p := bypass16()
	// Two unit strides raise confidence to 2: the third read triggers a
	// pre-read of the next line.
	bpRead(b, 0, 0x000)
	bpRead(b, 10, 0x040)
	if p.fills != 0 {
		t.Fatalf("pre-read before confidence: fills = %d", p.fills)
	}
	bpRead(b, 20, 0x080) // conf=2: pre-reads 0x0c0
	if p.fills != 1 || b.PredFills != 1 {
		t.Fatalf("fills = %d, PredFills = %d, want 1/1", p.fills, b.PredFills)
	}
	if !b.Contains(0x0c0) {
		t.Fatal("predicted line not resident")
	}
	// The predicted read bypasses the array: no new DL1 read, hit
	// latency only (the pre-read from t=20 finishes at 24+transfer=25).
	reads := p.reads
	done := bpRead(b, 40, 0x0c4)
	if p.reads != reads {
		t.Error("bypass hit touched the NVM array")
	}
	if b.BypassHits != 1 {
		t.Errorf("BypassHits = %d, want 1", b.BypassHits)
	}
	if done != 41 {
		t.Errorf("bypass hit done = %d, want 41", done)
	}
}

func TestBypassHitWaitsForInFlightPreRead(t *testing.T) {
	b, _ := bypass16()
	bpRead(b, 0, 0x000)
	bpRead(b, 1, 0x040)
	bpRead(b, 2, 0x080) // pre-read of 0x0c0 issued at t=2, ready 2+4+1=7
	done := bpRead(b, 3, 0x0c0)
	if done != 8 { // waits to 7, +1 hit
		t.Errorf("done = %d, want 8", done)
	}
	if b.PredWaitCycles == 0 {
		t.Error("in-flight wait not accounted")
	}
}

func TestBypassMissPaysFullArrayLatency(t *testing.T) {
	b, p := bypass16()
	done := bpRead(b, 0, 0x2000)
	if done != 4 || p.reads != 1 {
		t.Errorf("unpredicted read done=%d reads=%d, want 4/1", done, p.reads)
	}
	if b.stats.ReadHits != 0 || b.stats.Reads != 1 {
		t.Errorf("stats %d/%d", b.stats.ReadHits, b.stats.Reads)
	}
}

func TestBypassStoreInvalidatesResidentLine(t *testing.T) {
	b, p := bypass16()
	bpRead(b, 0, 0x000)
	bpRead(b, 1, 0x040)
	bpRead(b, 2, 0x080) // 0x0c0 now resident (speculative)
	writes := p.writes
	b.Access(10, mem.Req{Addr: 0x0c8, Bytes: 4, Kind: mem.Write})
	if p.writes != writes+1 {
		t.Error("store must go to the DL1")
	}
	if b.Contains(0x0c0) {
		t.Error("stored-to line still resident in the read-only buffer")
	}
	if b.Invalidations != 1 {
		t.Errorf("Invalidations = %d, want 1", b.Invalidations)
	}
	// Never demanded before the kill: counts as a mispredict.
	if b.Mispredicts != 1 {
		t.Errorf("Mispredicts = %d, want 1", b.Mispredicts)
	}
}

// TestBypassStoreFreedSlotTakesNextPreRead fills all four rows, drops
// one with a store, and checks that the next pre-read lands in the freed
// slot instead of evicting a valid row.
func TestBypassStoreFreedSlotTakesNextPreRead(t *testing.T) {
	b, _ := bypass16()
	if b.Lines() != 4 {
		t.Fatalf("side buffer has %d rows, want 4", b.Lines())
	}
	// A unit-stride stream, 100 cycles apart so no pre-read is still
	// protected: from the third read on, each read pre-reads the next
	// line. The fifth pre-read (0x1c0) finds every row valid and evicts
	// the LRU row (0x0c0).
	for i := 0; i < 7; i++ {
		bpRead(b, int64(100*i), mem.Addr(0x40*i))
	}
	for _, a := range []mem.Addr{0x100, 0x140, 0x180, 0x1c0} {
		if !b.Contains(a) {
			t.Fatalf("line %#x not resident before the store", a)
		}
	}
	b.Access(800, mem.Req{Addr: 0x1c0, Bytes: 4, Kind: mem.Write})
	if b.Contains(0x1c0) {
		t.Fatal("stored-to line still resident")
	}
	// The read of the dropped line misses and pre-reads 0x200, which
	// must take the free slot: every other row stays resident.
	bpRead(b, 900, 0x1c0)
	for _, a := range []mem.Addr{0x100, 0x140, 0x180, 0x200} {
		if !b.Contains(a) {
			t.Errorf("line %#x not resident after the pre-read into the freed slot", a)
		}
	}
}

func TestBypassPrefetchPassesThrough(t *testing.T) {
	b, p := bypass16()
	done := b.Access(5, mem.Req{Addr: 0x3000, Bytes: 4, Kind: mem.Prefetch})
	if done != 5+4 { // forwarded verbatim; nvmPort read path
		t.Errorf("done = %d, want 9", done)
	}
	if p.reads != 1 {
		t.Error("prefetch must forward to the DL1")
	}
	if b.Contains(0x3000) {
		t.Error("pass-through prefetch must not install into the side buffer")
	}
	if b.stats.Prefetches != 1 || b.stats.Reads != 0 {
		t.Errorf("prefetch recorded %d/%d reads, want exactly one prefetch", b.stats.Prefetches, b.stats.Reads)
	}
}

// TestBypassDisabledIsPassThrough pins the degenerate mode the
// metamorphic sim test relies on: with the predictor disabled
// (PredEntries < 0) every access forwards verbatim.
func TestBypassDisabledIsPassThrough(t *testing.T) {
	cfg := DefaultBypassConfig()
	cfg.PredEntries = -1
	p := &nvmPort{}
	b := NewBypass(cfg, p)
	for i := 0; i < 20; i++ {
		addr := mem.Addr(i * 64)
		done := bpRead(b, int64(i), addr)
		if done != int64(i)+4 {
			t.Fatalf("read %d: done = %d, want %d", i, done, int64(i)+4)
		}
	}
	if p.fills != 0 || b.PredFills != 0 || b.BypassHits != 0 {
		t.Error("disabled predictor still pre-read")
	}
}

func TestBypassLifecycle(t *testing.T) {
	b, _ := bypass16()
	bpRead(b, 0, 0x000)
	bpRead(b, 1, 0x040)
	bpRead(b, 2, 0x080)
	b.ResetTiming()
	if b.BypassHits != 0 || b.PredFills != 0 || b.readFree != 0 {
		t.Error("ResetTiming must zero counters and clocks")
	}
	if !b.Contains(0x0c0) {
		t.Error("ResetTiming must keep resident lines")
	}
}

// Prefetch-kind regressions across the front-ends (the bugfix sweep):
// a software prefetch is a hint — it must never block the core, never
// charge core-visible stall counters, and never move a port's busy
// clock backward.

func TestL0PrefetchDoesNotChargePortStall(t *testing.T) {
	p := &nvmPort{}
	l := NewL0(DefaultL0Config(), p)
	// A refill leaves the narrow port busy until critical+beats.
	l.Access(0, mem.Req{Addr: 0x000, Bytes: 4, Kind: mem.Read})
	stalls := l.PortStallCycles
	done := l.Access(1, mem.Req{Addr: 0x1000, Bytes: 4, Kind: mem.Prefetch})
	if done != 1 {
		t.Fatalf("prefetch blocked the core: done = %d", done)
	}
	if l.PortStallCycles != stalls {
		t.Errorf("prefetch charged PortStallCycles (%d -> %d); only core-visible waits may",
			stalls, l.PortStallCycles)
	}
	// A demand read DOES charge the counter for the same wait.
	l.Access(2, mem.Req{Addr: 0x2000, Bytes: 4, Kind: mem.Read})
	if l.PortStallCycles == stalls {
		t.Error("demand read should have charged the port wait")
	}
}

func TestEMSHRPrefetchKeepsPortMonotone(t *testing.T) {
	p := &nvmPort{}
	m := NewEMSHR(DefaultEMSHRConfig(), p)
	// The read's refill holds the port to critical+beats = 4+2 = 6.
	m.Access(0, mem.Req{Addr: 0x000, Bytes: 4, Kind: mem.Read})
	before := m.portFree
	if before != 6 {
		t.Fatalf("portFree = %d, want 6", before)
	}
	done := m.Access(1, mem.Req{Addr: 0x1000, Bytes: 4, Kind: mem.Prefetch})
	if done != 1 {
		t.Fatalf("prefetch blocked the core: done = %d", done)
	}
	if m.portFree < before {
		t.Errorf("prefetch moved the busy clock backward: %d -> %d", before, m.portFree)
	}
}

func TestPrefetchRecordedOncePerFrontEnd(t *testing.T) {
	for _, tc := range []struct {
		name string
		fe   FrontEnd
	}{
		{"vwb", NewVWB(DefaultVWBConfig(), &nvmPort{})},
		{"l0", NewL0(DefaultL0Config(), &nvmPort{})},
		{"emshr", NewEMSHR(DefaultEMSHRConfig(), &nvmPort{})},
		{"bypass", NewBypass(DefaultBypassConfig(), &nvmPort{})},
	} {
		tc.fe.Access(0, mem.Req{Addr: 0x5000, Bytes: 4, Kind: mem.Prefetch})
		st := tc.fe.Stats()
		if st.Prefetches != 1 {
			t.Errorf("%s: Prefetches = %d, want 1", tc.name, st.Prefetches)
		}
		if st.Reads != 0 || st.Writes != 0 {
			t.Errorf("%s: prefetch double-counted as a demand access (%d reads, %d writes)",
				tc.name, st.Reads, st.Writes)
		}
	}
}
