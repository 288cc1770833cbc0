package replay_test

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"sttdl1/internal/dse"
	"sttdl1/internal/polybench"
	"sttdl1/internal/replay"
	"sttdl1/internal/sim"
)

// TestRunGroupRecyclesCaches replays one smoke warm group on atax twice
// and measures the second replay's allocations: every system of the
// first returned its cache arrays on release, so the second must build
// its hierarchies on them and allocate less than one 2 MB/16-way L2's
// line array (1 MB) in total, where building fresh caches costs about
// 1.15 MB per member. GC stays off so the pool keeps what the first
// replay released, and one P keeps every released array on the P that
// asks for it next.
func TestRunGroupRecyclesCaches(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	b, ok := polybench.ByName("atax")
	if !ok {
		t.Fatal("unknown benchmark atax")
	}
	smoke, ok := dse.ByName("smoke")
	if !ok {
		t.Fatal("smoke space not registered")
	}
	pts := smoke.Enumerate()
	var group []sim.Config
	for _, p := range pts {
		if sim.WarmKey(p.Config) == sim.WarmKey(pts[0].Config) {
			group = append(group, p.Config)
		}
	}
	if len(group) < 2 {
		t.Fatalf("smoke's first warm group has %d member(s), want at least 2", len(group))
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	traces := replay.NewCache()
	ctx := context.Background()
	first, _, err := replay.RunGroup(ctx, traces, b, group, nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	second, _, err := replay.RunGroup(ctx, traces, b, group, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	for i := range group {
		mustEqualResults(t, group[i].Name, first[i], second[i])
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("second replay allocated %d bytes", got)
	if got >= 1<<20 {
		t.Errorf("second replay of a %d-member warm group allocated %d bytes, want < 1 MB", len(group), got)
	}
}
