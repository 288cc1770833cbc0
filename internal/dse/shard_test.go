package dse

import (
	"fmt"
	"slices"
	"testing"

	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
)

func TestParseShard(t *testing.T) {
	good := map[string]Shard{
		"":    {},
		"0/1": {Index: 0, Count: 1},
		"0/2": {Index: 0, Count: 2},
		"1/2": {Index: 1, Count: 2},
		"7/8": {Index: 7, Count: 8},
	}
	for in, want := range good {
		got, err := ParseShard(in)
		if err != nil || got != want {
			t.Errorf("ParseShard(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, in := range []string{"2/2", "-1/2", "1/0", "1/-3", "a/b", "1", "1/2/3", "/2", "1/"} {
		if _, err := ParseShard(in); err == nil {
			t.Errorf("ParseShard(%q) accepted invalid input", in)
		}
	}
	if (Shard{}).Enabled() {
		t.Error("zero shard reports enabled")
	}
	if got := (Shard{Index: 1, Count: 4}).String(); got != "1/4" {
		t.Errorf("String() = %q", got)
	}
}

// shardable lists the built-in spaces small enough to enumerate, which
// is every one but the guided-search mega space.
func shardable() []Space {
	var out []Space
	for _, sp := range Spaces() {
		if sp.Name != "mega" {
			out = append(out, sp)
		}
	}
	return out
}

// passes prices a work list the way the engine replays one kernel: a
// measured pass per distinct configuration plus a warm-up per distinct
// warm group.
func passes(cfgs []sim.Config) int {
	designs := make(map[sim.Config]bool)
	groups := make(map[sim.Config]bool)
	for _, cfg := range cfgs {
		designs[sim.Canonical(cfg)] = true
		groups[sim.WarmKey(cfg)] = true
	}
	return len(designs) + len(groups)
}

// sweepConfigs is everything an unsharded sweep simulates: each point
// and its penalty baseline.
func sweepConfigs(sp Space, pts []Point) []sim.Config {
	var cfgs []sim.Config
	for _, pt := range pts {
		cfgs = append(cfgs, pt.Config, sp.BaselineFor(pt.Config))
	}
	return cfgs
}

// TestShardsPartitionExactly pins the coordination-free contract and
// what it costs: for every shardable space and shard count, the shards'
// work lists hold each distinct configuration of the sweep exactly once
// and their points add up to the space, splitting warm groups adds at
// most one pass per block boundary, and the largest shard is no larger
// than under the index-mod-n rule the block layout replaced.
func TestShardsPartitionExactly(t *testing.T) {
	for _, sp := range shardable() {
		pts := sp.Enumerate()
		sweep := sweepConfigs(sp, pts)
		want := make(map[sim.Config]bool)
		for _, cfg := range sweep {
			want[sim.Canonical(cfg)] = true
		}
		whole := passes(sweep)
		for n := 1; n <= 8; n++ {
			owner := make(map[sim.Config]int)
			points, total, largest, modLargest := 0, 0, 0, 0
			for i := 0; i < n; i++ {
				plan, err := PlanShard(sp, Shard{Index: i, Count: n})
				if err != nil {
					t.Fatal(err)
				}
				if plan.SpacePoints != len(pts) {
					t.Errorf("%s %d/%d: SpacePoints %d, want %d", sp.Name, i, n, plan.SpacePoints, len(pts))
				}
				points += plan.Points
				for _, cfg := range plan.Configs {
					c := sim.Canonical(cfg)
					if j, dup := owner[c]; dup {
						t.Errorf("%s n=%d: shards %d and %d both own %s", sp.Name, n, j, i, cfg.Name)
					}
					owner[c] = i
				}
				p := passes(plan.Configs)
				total += p
				largest = max(largest, p)

				// The replaced rule: shard i took the points whose
				// enumeration index ≡ i (mod n), with their baselines.
				var mod []Point
				for _, pt := range pts {
					if pt.Index%n == i {
						mod = append(mod, pt)
					}
				}
				modLargest = max(modLargest, passes(sweepConfigs(sp, mod)))
			}
			if len(owner) != len(want) {
				t.Errorf("%s n=%d: shards own %d distinct configurations, the sweep has %d", sp.Name, n, len(owner), len(want))
			}
			for c := range want {
				if _, ok := owner[c]; !ok {
					t.Errorf("%s n=%d: no shard owns %s", sp.Name, n, sim.CanonicalKey(c))
				}
			}
			if points != len(pts) {
				t.Errorf("%s n=%d: shards own %d points, want %d", sp.Name, n, points, len(pts))
			}
			if total > whole+n-1 {
				t.Errorf("%s n=%d: shards replay %d passes, unsharded %d (+%d boundaries at most)", sp.Name, n, total, whole, n-1)
			}
			if largest > modLargest {
				t.Errorf("%s n=%d: largest shard %d passes, index-mod-n %d", sp.Name, n, largest, modLargest)
			}
		}
	}
}

// TestSmokeShardsKeepWarmGroups pins the smoke partition the sweep
// service serves: shard 0 takes the direct points and both VWB groups,
// shard 1 both EMSHR groups and the SRAM reference.
func TestSmokeShardsKeepWarmGroups(t *testing.T) {
	sp := Smoke()
	for i, want := range []struct{ points, configs, passes int }{{6, 6, 9}, {4, 5, 8}} {
		plan, err := PlanShard(sp, Shard{Index: i, Count: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := passes(plan.Configs); plan.Points != want.points || len(plan.Configs) != want.configs || got != want.passes {
			t.Errorf("shard %d/2: %d points, %d configs, %d passes; want %d, %d, %d",
				i, plan.Points, len(plan.Configs), got, want.points, want.configs, want.passes)
		}
	}
}

// recordEngine records what a shard prefetches.
type recordEngine struct{ cfgs []sim.Config }

func (e *recordEngine) Run(polybench.Bench, sim.Config) (*sim.RunResult, error) {
	return nil, fmt.Errorf("recordEngine: Run called")
}

func (e *recordEngine) Prefetch(_ []polybench.Bench, cfgs ...sim.Config) error {
	e.cfgs = append(e.cfgs, cfgs...)
	return nil
}

// TestPlanShardMatchesEvaluateShard pins the plan as the single source
// of a shard's work: EvaluateShard prefetches exactly the plan's
// configurations and reports its point accounting.
func TestPlanShardMatchesEvaluateShard(t *testing.T) {
	sp := Smoke()
	const n = 3
	for i := 0; i < n; i++ {
		sh := Shard{Index: i, Count: n}
		plan, err := PlanShard(sp, sh)
		if err != nil {
			t.Fatal(err)
		}
		var eng recordEngine
		res, err := EvaluateShard(&eng, nil, sp, sh)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(eng.cfgs, plan.Configs) {
			t.Errorf("shard %s prefetched %d configs, plan lists %d", sh, len(eng.cfgs), len(plan.Configs))
		}
		if res.Points != plan.Points || res.SpacePoints != plan.SpacePoints {
			t.Errorf("shard %s: result %d of %d points, plan %d of %d", sh, res.Points, res.SpacePoints, plan.Points, plan.SpacePoints)
		}
	}
	if _, err := PlanShard(sp, Shard{}); err == nil {
		t.Error("disabled shard: want error")
	}
}
