// Warm-state sharing (DESIGN.md §7.9): a warm group runs one warm-up
// and copies the representative's post-warm-up state into its other
// members, which is exact only while the representative's witness of
// clock-reading decisions stays 0.
package replay_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sttdl1/internal/compile"
	"sttdl1/internal/cpu"
	"sttdl1/internal/dse"
	"sttdl1/internal/polybench"
	"sttdl1/internal/replay"
	"sttdl1/internal/sim"
)

// warmBenches are two small kernels with different access shapes: a
// matrix-vector pair (atax) and a rank-2 update chain (gemver).
func warmBenches(t *testing.T) []polybench.Bench {
	t.Helper()
	var out []polybench.Bench
	for _, name := range []string{"atax", "gemver"} {
		b, ok := polybench.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		out = append(out, b)
	}
	return out
}

// samplePoints draws up to n distinct points of sp (every point when
// the space is smaller), deterministically.
func samplePoints(sp dse.Space, n int) []sim.Config {
	if sp.CountUpTo(n+1) <= n {
		var out []sim.Config
		for _, p := range sp.Enumerate() {
			out = append(out, p.Config)
		}
		return out
	}
	rng := rand.New(rand.NewSource(1))
	seen := make(map[string]bool)
	var out []sim.Config
	idx := make([]int, len(sp.Axes))
	for tries := 0; len(out) < n && tries < 100*n; tries++ {
		for i, a := range sp.Axes {
			idx[i] = rng.Intn(len(a.Values))
		}
		p, ok := sp.At(idx)
		if !ok || seen[p.Label] {
			continue
		}
		seen[p.Label] = true
		out = append(out, p.Config)
	}
	return out
}

// timingVariant moves every timing-only field of cfg, keeping its warm
// key: a synthetic member for groups the space itself leaves singleton.
func timingVariant(cfg sim.Config) sim.Config {
	c := sim.Canonical(cfg)
	c.DL1ReadLat += 3
	c.DL1WriteLat++
	c.DL1Banks = 8 / c.DL1Banks
	c.VWBTransfer++
	c.CPU.StoreBufDepth = 1
	return c
}

// TestWarmStateSharedAcrossSpaces is the witness-completeness test: for
// every built-in space, a sample of points per warm group (plus a
// synthetic timing variant of each representative) warm up on their
// own, and whenever the representative ends its warm-up with a witness
// of 0 every member must hold exactly its persistent state.
func TestWarmStateSharedAcrossSpaces(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine sweep over every space; it runs without the race detector in go test ./...")
	}
	traces := replay.NewCache()
	ctx := context.Background()
	type trKey struct {
		bench string
		opts  compile.Options
	}
	type compiled struct {
		ck *compile.Compiled
		tr *cpu.Trace
	}
	cache := make(map[trKey]compiled)
	traceFor := func(b polybench.Bench, cfg sim.Config) compiled {
		k := trKey{b.Name, sim.CompileOptions(cfg)}
		if c, ok := cache[k]; ok {
			return c
		}
		ck, tr, err := traces.Trace(ctx, b, k.opts)
		if err != nil {
			t.Fatal(err)
		}
		cache[k] = compiled{ck, tr}
		return cache[k]
	}
	warm := func(b polybench.Bench, cfg sim.Config) *sim.System {
		sys, err := sim.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := traceFor(b, cfg)
		if err := sys.WarmUp(c.ck, c.tr); err != nil {
			t.Fatal(err)
		}
		return sys
	}
	const perGroup = 3
	for _, sp := range dse.Spaces() {
		groups := make(map[sim.Config][]sim.Config)
		var order []sim.Config
		for _, cfg := range samplePoints(sp, 400) {
			k := sim.WarmKey(cfg)
			if _, ok := groups[k]; !ok {
				order = append(order, k)
			}
			if len(groups[k]) < perGroup {
				groups[k] = append(groups[k], cfg)
			}
		}
		shared, fallback := 0, 0
		for _, b := range warmBenches(t) {
			for _, k := range order {
				members := append(append([]sim.Config(nil), groups[k]...), timingVariant(groups[k][0]))
				rep := warm(b, members[0])
				if rep.Witness() > 0 {
					fallback++
					continue
				}
				shared++
				for _, cfg := range members[1:] {
					if sim.WarmKey(cfg) != k {
						t.Fatalf("%s: %s left its warm group", sp.Name, sim.CanonicalKey(cfg))
					}
					if err := warm(b, cfg).WarmDiff(rep); err != nil {
						t.Errorf("%s on %s: %s vs representative %s: %v",
							sp.Name, b.Name, sim.CanonicalKey(cfg), sim.CanonicalKey(members[0]), err)
					}
				}
			}
		}
		t.Logf("%s: %d warm groups, %d shared and %d fallback warm-ups over %d kernels",
			sp.Name, len(order), shared, fallback, len(warmBenches(t)))
		if sp.Name == "proposal" && fallback > 0 {
			t.Errorf("proposal: %d groups fell back; every proposal group should share its warm-up", fallback)
		}
	}
}

// sameResult reports whether two results carry identical counters (the
// final architectural state aside).
func sameResult(a, b *sim.RunResult) bool {
	ac, bc := *a.CPU, *b.CPU
	ac.State, bc.State = nil, nil
	x, y := *a, *b
	x.CPU, y.CPU = &ac, &bc
	return reflect.DeepEqual(x, y)
}

// groupReplay assembles one system per configuration and replays them
// as a warm group at the given gang width.
func groupReplay(t *testing.T, traces *replay.Cache, b polybench.Bench, cfgs []sim.Config, width int) ([]*sim.RunResult, []*sim.System) {
	t.Helper()
	ck, tr, err := traces.Trace(context.Background(), b, sim.CompileOptions(cfgs[0]))
	if err != nil {
		t.Fatal(err)
	}
	systems := make([]*sim.System, len(cfgs))
	for i, cfg := range cfgs {
		if systems[i], err = sim.New(cfg); err != nil {
			t.Fatal(err)
		}
	}
	rs, _, err := sim.ReplayGroup(systems, width, ck, tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rs, systems
}

// TestPositiveWitnessFallsBack: VWB points with compiled two-stream
// prefetching consult the prefetch filter's cycle window during the
// warm-up, so a read-latency pair must not share it — each member warms
// up itself — and both results stay byte-identical to serial replay.
func TestPositiveWitnessFallsBack(t *testing.T) {
	b, _ := polybench.ByName("atax")
	traces := replay.NewCache()
	var cfgs []sim.Config
	for _, rl := range []int64{2, 6} {
		cfg := sim.ProposalVWB()
		cfg.Compile = compile.Options{Prefetch: true, PrefetchStreams: 2}
		cfg.DL1ReadLat = rl
		cfgs = append(cfgs, cfg)
	}
	rs, systems := groupReplay(t, traces, b, cfgs, 0)
	if systems[0].Witness() == 0 {
		t.Fatal("representative read no clock: the fallback path is not exercised")
	}
	for i, sys := range systems {
		if sys.WarmUps() != 1 {
			t.Errorf("member %d ran %d warm-ups, want its own", i, sys.WarmUps())
		}
		serial, err := replay.Run(context.Background(), traces, b, cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		if !sameResult(serial, rs[i]) {
			t.Errorf("member %d (read %d cy): group result differs from serial replay", i, cfgs[i].DL1ReadLat)
		}
	}
}

// TestSharedWarmUpMatchesSerial: a cold-slice-shaped warm group (one
// front end and buffer size, four bank counts × two read latencies)
// runs one warm-up, its members copy it, the measured passes run in
// walks of three, and every result equals the member's serial replay.
func TestSharedWarmUpMatchesSerial(t *testing.T) {
	traces := replay.NewCache()
	for _, b := range warmBenches(t) {
		var cfgs []sim.Config
		for _, banks := range []int{1, 2, 4, 8} {
			for _, rl := range []int64{2, 6} {
				cfg := sim.ProposalVWB()
				cfg.DL1Banks, cfg.DL1ReadLat = banks, rl
				cfgs = append(cfgs, cfg)
			}
		}
		rs, systems := groupReplay(t, traces, b, cfgs, 3)
		for i, sys := range systems {
			want := 0
			if i == 0 {
				want = 1
			}
			if sys.WarmUps() != want {
				t.Errorf("%s member %d ran %d warm-ups, want %d", b.Name, i, sys.WarmUps(), want)
			}
			serial, err := replay.Run(context.Background(), traces, b, cfgs[i])
			if err != nil {
				t.Fatal(err)
			}
			if !sameResult(serial, rs[i]) {
				t.Errorf("%s member %d: shared warm-up result differs from serial replay", b.Name, i)
			}
		}
	}
}

// TestCheckedGroupVerifiesInsteadOfSharing: under Check every member
// warms up itself (the oracle must see every access) and the group
// still matches unchecked serial replay.
func TestCheckedGroupVerifiesInsteadOfSharing(t *testing.T) {
	b := warmBenches(t)[0]
	traces := replay.NewCache()
	var cfgs []sim.Config
	for _, rl := range []int64{2, 4, 6} {
		cfg := sim.ProposalVWB()
		cfg.DL1ReadLat, cfg.Check = rl, true
		cfgs = append(cfgs, cfg)
	}
	rs, systems := groupReplay(t, traces, b, cfgs, 0)
	for i, sys := range systems {
		if sys.WarmUps() != 1 {
			t.Errorf("checked member %d ran %d warm-ups, want its own", i, sys.WarmUps())
		}
		plain := cfgs[i]
		plain.Check = false
		serial, err := replay.Run(context.Background(), traces, b, plain)
		if err != nil {
			t.Fatal(err)
		}
		rs[i].Config.Check = false
		if !sameResult(serial, rs[i]) {
			t.Errorf("checked member %d differs from unchecked serial replay", i)
		}
	}
}
