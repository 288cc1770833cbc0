package cache

import (
	"testing"

	"sttdl1/internal/mem"
)

// Regression tests for the three timing bugs the internal/check oracle
// flagged (ISSUE 2). Each test fails on the pre-fix code.

// recPort is a FixedPort that also keeps every request it saw.
type recPort struct {
	mem.FixedPort
	reqs []mem.Req
}

func (r *recPort) Access(now int64, req mem.Req) int64 {
	r.reqs = append(r.reqs, req)
	return r.FixedPort.Access(now, req)
}

// TestHitCappedAtInFlightFill: accessOne installs the victim line at
// miss time while the fill completes at the MSHR's ready, so a second
// access to the same line used to take the full-speed hit path and
// complete before its data existed. A hit under an in-flight fill must
// not complete before the fill.
func TestHitCappedAtInFlightFill(t *testing.T) {
	next := &mem.FixedPort{Latency: 100}
	c := New(cfg64k(), next)

	// Miss at t=0: lookup (4) + fill (100) + 1 => data exists at 105.
	d1 := c.Access(0, mem.Req{Addr: 0x1000, Bytes: 4, Kind: mem.Read})
	if d1 != 105 {
		t.Fatalf("miss done = %d, want 105", d1)
	}
	ms := c.MSHRs()
	if !ms[0].Valid || ms[0].Ready != 105 {
		t.Fatalf("MSHR after miss = %+v, want line in flight until 105", ms[0])
	}

	// Same line again at t=1, long before the fill arrives. Pre-fix this
	// returned 1+ReadLat = 5 — a load completing 100 cycles before the
	// line exists.
	d2 := c.Access(1, mem.Req{Addr: 0x1008, Bytes: 4, Kind: mem.Read})
	if d2 < 105 {
		t.Errorf("hit under in-flight fill done = %d, want >= fill ready 105", d2)
	}
	if c.HitUnderFillCycles == 0 {
		t.Error("HitUnderFillCycles not accounted")
	}

	// A write to the in-flight line retires into the filled line: ready
	// plus the array write.
	d3 := c.Access(2, mem.Req{Addr: 0x1010, Bytes: 4, Kind: mem.Write})
	if want := int64(105 + 2); d3 < want {
		t.Errorf("write under in-flight fill done = %d, want >= %d", d3, want)
	}

	// Once the fill has landed, hits run at full speed again.
	d4 := c.Access(200, mem.Req{Addr: 0x1000, Bytes: 4, Kind: mem.Read})
	if d4 != 204 {
		t.Errorf("post-fill hit done = %d, want 204", d4)
	}
}

// TestSplitStoreReturnsSlowerHalf: a line-straddling write used to
// report only the second half's completion, under-stating the store's
// drain time whenever the first half stalled on a busy bank longer than
// the second.
func TestSplitStoreReturnsSlowerHalf(t *testing.T) {
	cfg := cfg64k()
	cfg.Banks = 2
	// Non-pipelined banks: an access parks its bank for the full latency.
	cfg.ReadLat, cfg.ReadInterval = 40, 40
	cfg.WriteLat, cfg.WriteInterval = 2, 2
	next := &mem.FixedPort{Latency: 10}
	c := New(cfg, next)

	// Warm both lines of the split so the store hits.
	c.Access(0, mem.Req{Addr: 0x0, Bytes: 4, Kind: mem.Read})
	c.Access(200, mem.Req{Addr: 0x40, Bytes: 4, Kind: mem.Read})

	// Park bank 0 (even lines) behind a long read finishing at 1040.
	c.Access(1000, mem.Req{Addr: 0x0, Bytes: 4, Kind: mem.Read})

	// Split store at 1001: first half (line 0x0, bank 0) stalls until
	// 1040 and retires at 1042; second half (line 0x40, bank 1) retires
	// at 1004. Pre-fix Access returned 1004.
	done := c.Access(1001, mem.Req{Addr: 0x3c, Bytes: 8, Kind: mem.Write})
	if done != 1042 {
		t.Errorf("split store done = %d, want 1042 (the stalled first half)", done)
	}
}

// TestNoAliasingAcross32BitLines: indexOf/reconstructAddr used to
// truncate line numbers to uint32, so two addresses 2^32 lines apart
// aliased silently — the second access hit the first's line, and a dirty
// eviction of either wrote back to the wrong address.
func TestNoAliasingAcross32BitLines(t *testing.T) {
	next := &recPort{FixedPort: mem.FixedPort{Latency: 10}}
	c := New(cfg64k(), next)

	lo := mem.Addr(0x1000)
	hi := lo + (mem.Addr(1)<<32)*64 // same line number mod 2^32

	c.Access(0, mem.Req{Addr: lo, Bytes: 4, Kind: mem.Write})
	if got := c.Stats().Writes - c.Stats().WriteHits; got != 1 {
		t.Fatalf("first access: %d write misses, want 1", got)
	}

	// The high address is a different line; with truncated tags it
	// falsely hit the low line.
	c.Access(100, mem.Req{Addr: hi, Bytes: 4, Kind: mem.Write})
	if c.Stats().WriteHits != 0 {
		t.Errorf("access 2^32 lines apart hit (tag truncation aliasing); want miss")
	}
	if !c.Contains(lo) || !c.Contains(hi) {
		t.Errorf("Contains(lo)=%t Contains(hi)=%t, want both resident", c.Contains(lo), c.Contains(hi))
	}

	// Evict both dirty lines (2-way set, two more conflicting lines; LRU
	// takes lo first, then hi) and check each writeback reconstructs the
	// original address, not a truncated one. Pre-widening, hi's writeback
	// went to lo's address.
	cc := c.Config()
	setStride := mem.Addr(cc.Sets() * cc.LineSize)
	c.Access(200, mem.Req{Addr: lo + setStride, Bytes: 4, Kind: mem.Read})
	c.Access(300, mem.Req{Addr: lo + 2*setStride, Bytes: 4, Kind: mem.Read})
	var wbs []mem.Addr
	for _, req := range next.reqs {
		if req.Kind == mem.WriteBack {
			wbs = append(wbs, req.Addr)
		}
	}
	if len(wbs) != 2 {
		t.Fatalf("got %d writebacks, want 2 (both dirty lines evicted)", len(wbs))
	}
	if wbs[0] != mem.LineAddr(lo, 64) || wbs[1] != mem.LineAddr(hi, 64) {
		t.Errorf("writebacks to %#x, %#x; want %#x, %#x", wbs[0], wbs[1], mem.LineAddr(lo, 64), mem.LineAddr(hi, 64))
	}
}

// TestRereadOfEvictedLineRefetches: MSHR entries expire lazily, so an
// entry whose fill had long delivered could still name its line after
// the line was evicted. A later read of that line used to "merge" into
// the dead fill: it completed at probe latency and was never
// reinstalled. A line that left the array must miss and come back.
func TestRereadOfEvictedLineRefetches(t *testing.T) {
	next := &mem.FixedPort{Latency: 10}
	c := New(hybridCfg(), next) // 4 sets, 2 MSHRs, way 0 is SRAM
	rd := func(at int64, addr mem.Addr) int64 {
		return c.Access(at, mem.Req{Addr: addr, Bytes: 4, Kind: mem.Read})
	}
	rd(0, 0x040) // set 1: takes MSHR 0
	rd(1, 0x000) // set 0: MSHR 0 still in flight, takes MSHR 1
	// Read-class fills steer into the SRAM way, so 0x100 evicts 0x000.
	// Allocation expires MSHR 0 and leaves 0x000's delivered entry valid.
	rd(1000, 0x100)
	if c.Contains(0x000) {
		t.Fatal("setup: 0x000 still resident")
	}
	fills := c.Stats().Fills
	done := rd(2000, 0x000)
	if c.Stats().Fills != fills+1 {
		t.Errorf("re-read of an evicted line did not miss: fills %d -> %d", fills, c.Stats().Fills)
	}
	if !c.Contains(0x000) {
		t.Error("re-read of an evicted line did not reinstall it")
	}
	if min := int64(2000 + 4 + 10); done < min {
		t.Errorf("re-read done at %d, before a refetch could deliver (%d)", done, min)
	}
}
