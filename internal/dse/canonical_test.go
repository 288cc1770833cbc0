package dse

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sttdl1/internal/sim"
)

// TestCanonicalKeyInjectiveWithinSpaces walks every enumerable built-in
// space and checks the persistent store's addressing invariant point by
// point: two design points share a canonical key exactly when their
// canonical configurations are equal. A collision between distinct
// designs would silently serve one point's stored counters as the
// other's; a split between equal designs would merely lose warmth, but
// both directions are pinned because dse's proposal detection relies on
// the same equivalence.
func TestCanonicalKeyInjectiveWithinSpaces(t *testing.T) {
	const enumCap = 4096 // the mega space is quick-sampled below instead
	for _, sp := range Spaces() {
		if sp.CountUpTo(enumCap+1) > enumCap {
			continue
		}
		seen := make(map[string]sim.Config)
		for _, pt := range sp.Enumerate() {
			key := sim.CanonicalKey(pt.Config)
			if prev, dup := seen[key]; dup {
				if sim.Canonical(prev) != sim.Canonical(pt.Config) {
					t.Errorf("space %s: distinct designs collide on key %q:\n  %+v\n  %+v",
						sp.Name, key, prev, pt.Config)
				}
				continue
			}
			seen[key] = pt.Config
		}
		if t.Failed() {
			return
		}
	}
}

// megaGenome derives a deterministic random genome of the mega space
// from a seed; ok is false when the constraints prune it.
func megaGenome(t *testing.T, sp Space, seed uint64) (genome []int, cfg sim.Config, ok bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(seed)))
	genome = make([]int, len(sp.Axes))
	for i, a := range sp.Axes {
		genome[i] = rng.Intn(len(a.Values))
	}
	pt, ok := sp.At(genome)
	return genome, pt.Config, ok
}

// TestCanonicalKeyQuickPairs is the testing/quick form of the
// injectivity property over the ~144k-point mega space (too large to
// enumerate): for random point pairs, key equality must coincide with
// canonical-config equality in both directions.
func TestCanonicalKeyQuickPairs(t *testing.T) {
	sp, ok := ByName("mega")
	if !ok {
		t.Fatal("mega space not registered")
	}
	prop := func(s1, s2 uint64) bool {
		_, c1, ok1 := megaGenome(t, sp, s1)
		_, c2, ok2 := megaGenome(t, sp, s2)
		if !ok1 || !ok2 {
			return true // pruned genome: nothing to compare
		}
		return (sim.CanonicalKey(c1) == sim.CanonicalKey(c2)) ==
			(sim.Canonical(c1) == sim.Canonical(c2))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestCanonicalKeyQuickNeighbors stresses the collision-prone
// neighborhoods random pairs never reach: a point and a one-axis
// mutation of it. If the mutated design is canonically distinct its key
// must differ; if the mutation lands on a canonically identical design
// (e.g. a buffer-size change behind a bufferless front-end that the
// constraints didn't prune) the keys must agree.
func TestCanonicalKeyQuickNeighbors(t *testing.T) {
	sp, ok := ByName("mega")
	if !ok {
		t.Fatal("mega space not registered")
	}
	prop := func(seed uint64, axis, delta uint8) bool {
		genome, c1, ok := megaGenome(t, sp, seed)
		if !ok {
			return true
		}
		ai := int(axis) % len(sp.Axes)
		vals := len(sp.Axes[ai].Values)
		if vals < 2 {
			return true
		}
		g2 := append([]int{}, genome...)
		g2[ai] = (genome[ai] + 1 + int(delta)%(vals-1)) % vals
		pt2, ok := sp.At(g2)
		if !ok {
			return true
		}
		c2 := pt2.Config
		return (sim.CanonicalKey(c1) == sim.CanonicalKey(c2)) ==
			(sim.Canonical(c1) == sim.Canonical(c2))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestCanonicalKeySeparatesCheck pins the -check addressing rule: the
// canonical key keeps checked and unchecked runs apart (a checked cold
// run must really run the oracle), while Canonical strips the flag
// (checking never changes the simulated design).
func TestCanonicalKeySeparatesCheck(t *testing.T) {
	cfg := sim.ProposalVWB()
	checked := cfg
	checked.Check = true
	if sim.CanonicalKey(cfg) == sim.CanonicalKey(checked) {
		t.Error("canonical key ignores Check; a checked run could be served unchecked counters")
	}
	if sim.Canonical(cfg) != sim.Canonical(checked) {
		t.Error("Canonical keeps Check; checking must not split design equality")
	}
}

// TestSpacesValidate checks that sim.New accepts every point of every
// built-in space and its penalty baseline: enumerable spaces point by
// point, the mega space by a fixed-seed sample.
func TestSpacesValidate(t *testing.T) {
	const enumCap = 4096
	check := func(sp Space, cfg sim.Config) {
		for _, c := range []sim.Config{cfg, sp.BaselineFor(cfg)} {
			if err := sim.Validate(c); err != nil {
				t.Fatalf("space %s: %s: %v", sp.Name, c.Name, err)
			}
		}
	}
	for _, sp := range Spaces() {
		if sp.CountUpTo(enumCap+1) <= enumCap {
			for _, pt := range sp.Enumerate() {
				check(sp, pt.Config)
			}
			continue
		}
		for seed := uint64(0); seed < 2000; seed++ {
			if _, cfg, ok := megaGenome(t, sp, seed); ok {
				check(sp, cfg)
			}
		}
	}
}
