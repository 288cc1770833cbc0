package cache

import (
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sttdl1/internal/mem"
)

// timedReq is one access of a driving stream.
type timedReq struct {
	at  int64
	req mem.Req
}

// releaseStream is a deterministic mix of reads, writes and prefetches
// over 1 MB — sixteen times cfg64k's capacity, so lines are evicted,
// many of them dirty.
func releaseStream(seed int64, n int) []timedReq {
	rng := rand.New(rand.NewSource(seed))
	kinds := []mem.Kind{mem.Read, mem.Read, mem.Write, mem.Prefetch}
	out := make([]timedReq, n)
	var at int64
	for i := range out {
		at += int64(rng.Intn(6))
		out[i] = timedReq{at, mem.Req{
			Addr:  mem.Addr(rng.Intn(1<<20)) &^ 3,
			Bytes: 4,
			Kind:  kinds[rng.Intn(len(kinds))],
		}}
	}
	return out
}

// counters is every counter a stream leaves in a cache.
type counters struct {
	stats                   mem.Stats
	evictions, dirty        uint64
	bankConflict, mshrStall int64
	resident                int
	prefetchDrops, useClock uint64
}

// drive runs stream through c and returns each access's completion
// time and the counters it left.
func drive(c *Cache, stream []timedReq) ([]int64, counters) {
	done := make([]int64, len(stream))
	for i, r := range stream {
		done[i] = c.Access(r.at, r.req)
	}
	return done, counters{
		stats:     c.Stats(),
		evictions: c.Evictions, dirty: c.DirtyEvictions,
		bankConflict: c.BankConflictCycles, mshrStall: c.MSHRStallCycles,
		resident:      c.ResidentLines(),
		prefetchDrops: c.PrefetchDrops, useClock: c.UseClock(),
	}
}

// TestReleasedArraysReplayLikeFresh builds a cache on the set storage a
// driven, dirty cache of the same geometry released, and demands the
// completion time of every access and every counter a fresh cache
// reports on the same stream. The released cache must refuse further
// use.
func TestReleasedArraysReplayLikeFresh(t *testing.T) {
	stream := releaseStream(1, 20000)
	wantDone, want := drive(New(cfg64k(), &mem.FixedPort{Latency: 10}), stream)

	reused := false
	for try := 0; try < 20 && !reused; try++ {
		a := New(cfg64k(), &mem.FixedPort{Latency: 10})
		drive(a, stream)
		arr := a.arr
		a.Release()
		b := New(cfg64k(), &mem.FixedPort{Latency: 10})
		reused = b.arr == arr
		done, got := drive(b, stream)
		b.Release()
		for i := range done {
			if done[i] != wantDone[i] {
				t.Fatalf("access %d completes at %d, on a fresh cache at %d", i, done[i], wantDone[i])
			}
		}
		if got != want {
			t.Fatalf("counters %+v, on a fresh cache %+v", got, want)
		}
	}
	if !reused {
		t.Fatal("no cache was built on a released array in 20 tries")
	}

	c := New(cfg64k(), &mem.FixedPort{Latency: 10})
	c.Release()
	for name, use := range map[string]func(){
		"Access":  func() { c.Access(0, mem.Req{Addr: 0x40, Bytes: 4, Kind: mem.Read}) },
		"Release": c.Release,
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a released cache did not panic", name)
				}
			}()
			use()
		}()
	}
}

// TestConcurrentRelease has several goroutines build, drive and
// release caches of one geometry at once, so storage moves between
// goroutines through the pool while others still drive theirs. Every
// run must match a fresh cache's; under -race the detector also checks
// that no two live caches ever share storage.
func TestConcurrentRelease(t *testing.T) {
	const workers, rounds = 4, 8
	cfg := smallCfg()
	cfg.Size = 8 << 10
	stream := releaseStream(2, 2000)
	wantDone, want := drive(New(cfg, &mem.FixedPort{Latency: 10}), stream)

	var wg sync.WaitGroup
	errs := make(chan string, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				c := New(cfg, &mem.FixedPort{Latency: 10})
				done, got := drive(c, stream)
				c.Release()
				if !slices.Equal(done, wantDone) || got != want {
					errs <- "a recycled cache diverged from a fresh one"
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
