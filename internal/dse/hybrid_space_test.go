package dse_test

import (
	"reflect"
	"testing"

	"sttdl1/internal/dse"
	"sttdl1/internal/experiments"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
)

// hybridBenches is the small two-kernel slice the hybrid-space
// determinism tests run on (the same slice scripts/check.sh smokes).
func hybridBenches(t *testing.T) []polybench.Bench {
	t.Helper()
	var out []polybench.Bench
	for _, name := range []string{"atax", "gemver"} {
		b, ok := polybench.ByName(name)
		if !ok {
			t.Fatalf("unknown benchmark %s", name)
		}
		if b.Default > 24 {
			b.Default = 24
		}
		out = append(out, b)
	}
	return out
}

// TestHybridSpaceShape pins the latency-hiding space's structure: both
// constraints prune, the paper's proposal appears exactly once, and
// every point is a valid simulator configuration.
func TestHybridSpaceShape(t *testing.T) {
	sp, ok := dse.ByName("hybrid")
	if !ok {
		t.Fatal("hybrid space not registered")
	}
	pts := sp.Enumerate()
	// 2 front-ends × 2 predictor sizes × 3 partitions × 3 intervals = 36,
	// minus 9 vwb×pred=4 duplicates, minus 6 all-SRAM×shutdown points.
	if len(pts) != 21 {
		t.Errorf("hybrid space has %d points, want 21", len(pts))
	}
	if len(pts) >= sp.Size() {
		t.Errorf("constraints pruned nothing: %d of %d", len(pts), sp.Size())
	}
	proposals := 0
	for _, pt := range pts {
		c := pt.Config
		if dse.IsProposal(c) {
			proposals++
		}
		if c.FrontEnd != sim.FEBypass && c.BypassPredEntries != 16 {
			t.Errorf("unpruned predictor point %q (pred=%d on %s)", pt.Label, c.BypassPredEntries, c.FrontEnd)
		}
		if c.SRAMWays == sim.DL1Assoc && c.ShutdownInterval != 0 {
			t.Errorf("unpruned all-SRAM shutdown point %q", pt.Label)
		}
		if _, err := sim.New(c); err != nil {
			t.Errorf("point %q does not build: %v", pt.Label, err)
		}
	}
	if proposals != 1 {
		t.Errorf("space contains the paper proposal %d times, want exactly once", proposals)
	}
}

// liveEngine is a dse.Engine that runs every simulation live through
// sim.Run, with no memo, store or replay: the independent reference the
// suite's replay engine is checked against.
type liveEngine struct{ check bool }

func (e liveEngine) Run(b polybench.Bench, cfg sim.Config) (*sim.RunResult, error) {
	cfg.Check = e.check
	return sim.Run(b.Kernel(), cfg)
}

func (liveEngine) Prefetch([]polybench.Bench, ...sim.Config) error { return nil }

// hybridEval evaluates the full hybrid space on the small bench slice.
func hybridEval(t *testing.T, eng dse.Engine) *dse.Evaluation {
	t.Helper()
	sp, _ := dse.ByName("hybrid")
	ev, err := dse.Evaluate(eng, hybridBenches(t), sp)
	if err != nil {
		t.Fatalf("evaluate hybrid: %v", err)
	}
	return ev
}

// checkedSuite is a replaying suite over the hybrid bench slice with the
// timing oracle on.
func checkedSuite(t *testing.T, jobs int) *experiments.Suite {
	return experiments.NewSuiteJobs(hybridBenches(t), jobs).WithCheck(true)
}

// TestHybridSpaceLiveVsReplayAndWorkers is the hybrid determinism
// requirement, under the timing oracle: the evaluation must be
// identical between live execution and trace replay, and between -j 1
// and -j 8.
func TestHybridSpaceLiveVsReplayAndWorkers(t *testing.T) {
	live1 := hybridEval(t, liveEngine{check: true})
	rep1 := hybridEval(t, checkedSuite(t, 1))
	rep8 := hybridEval(t, checkedSuite(t, 8))
	if !reflect.DeepEqual(live1.Benches, rep1.Benches) || !reflect.DeepEqual(live1.Points, rep1.Points) {
		t.Errorf("hybrid evaluation diverged between live and replay:\nlive   %+v\nreplay %+v",
			live1.Points, rep1.Points)
	}
	if !reflect.DeepEqual(rep1.Benches, rep8.Benches) || !reflect.DeepEqual(rep1.Points, rep8.Points) {
		t.Errorf("hybrid evaluation differs between -j 1 and -j 8:\nj1 %+v\nj8 %+v",
			rep1.Points, rep8.Points)
	}
	if live1.PointsTable().CSV() != rep8.PointsTable().CSV() {
		t.Error("hybrid points CSV not byte-identical across modes")
	}
}

// TestHybridGuidedSearchDeterministic forces the guided path (budget
// below the 21-point space) and demands byte-identical output at any
// worker count — the search determinism contract over the new axes.
func TestHybridGuidedSearchDeterministic(t *testing.T) {
	sp, _ := dse.ByName("hybrid")
	search := func(jobs int) *dse.SearchResult {
		benches := hybridBenches(t)
		s := experiments.NewSuiteJobs(benches, jobs)
		res, err := dse.Search(s, benches, sp, dse.SearchOptions{Budget: 8, Seed: 1})
		if err != nil {
			t.Fatalf("guided hybrid search (jobs=%d): %v", jobs, err)
		}
		return res
	}
	r1, r8 := search(1), search(8)
	if r1.Exhaustive || r8.Exhaustive {
		t.Fatal("budget 8 must force the guided path over 21 points")
	}
	if !reflect.DeepEqual(r1.Points, r8.Points) {
		t.Errorf("guided hybrid search differs between -j 1 and -j 8:\nj1 %+v\nj8 %+v", r1.Points, r8.Points)
	}
	if r1.FrontierTable(0).Render() != r8.FrontierTable(0).Render() {
		t.Error("guided hybrid frontier table not byte-identical across worker counts")
	}
}
