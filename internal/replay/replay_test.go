// Replay/live equivalence regression suite (DESIGN.md §7.4): trace
// replay is a pure performance mode, so every number a simulation
// produces — cycles, each stall counter, every per-level cache
// statistic — must be identical to live execution, not merely close.
// These tests pin that contract against live execution (sim.Run, the
// functional interpreter stepping the timing model) over the full Fig. 3
// configuration matrix plus random mega-space points and the
// wrapped-IL1 configurations, over the smoke design space, and for
// worker-count determinism.
package replay_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sttdl1/internal/compile"
	"sttdl1/internal/dse"
	"sttdl1/internal/experiments"
	"sttdl1/internal/polybench"
	"sttdl1/internal/replay"
	"sttdl1/internal/sim"
	"sttdl1/internal/tech"
)

// matrixConfigs is the full Fig. 3 configuration matrix: the SRAM
// baseline, the drop-in STT-MRAM cache, and the VWB proposal — each
// with the untransformed and the fully transformed code.
func matrixConfigs() []sim.Config {
	var out []sim.Config
	for _, mk := range []func() sim.Config{sim.BaselineSRAM, sim.DropInSTT, sim.ProposalVWB} {
		plain := mk()
		out = append(out, plain)
		opt := mk()
		opt.Compile = compile.AllOptimizations()
		out = append(out, opt)
	}
	return out
}

// matrixBenches returns the benchmark set for the matrix test: the whole
// suite, trimmed under -short.
func matrixBenches(t *testing.T) []polybench.Bench {
	all := polybench.All()
	if testing.Short() {
		return all[:4]
	}
	return all
}

// mustEqualResults fails the test unless the two runs agree on every
// number: the complete CPU result (cycles, instruction-class counters,
// all four stall counters) and each memory level's statistics. The final
// architectural state is excluded — replay deliberately reuses the
// capture's state object.
func mustEqualResults(t *testing.T, label string, live, rep *sim.RunResult) {
	t.Helper()
	lc, rc := *live.CPU, *rep.CPU
	lc.State, rc.State = nil, nil
	if lc != rc {
		t.Errorf("%s: CPU result diverged:\nlive   %+v\nreplay %+v", label, lc, rc)
	}
	if live.FEStats != rep.FEStats {
		t.Errorf("%s: front-end stats diverged:\nlive   %+v\nreplay %+v", label, live.FEStats, rep.FEStats)
	}
	if live.DL1Stats != rep.DL1Stats {
		t.Errorf("%s: DL1 stats diverged:\nlive   %+v\nreplay %+v", label, live.DL1Stats, rep.DL1Stats)
	}
	if live.L2Stats != rep.L2Stats {
		t.Errorf("%s: L2 stats diverged:\nlive   %+v\nreplay %+v", label, live.L2Stats, rep.L2Stats)
	}
	if live.IL1Stats != rep.IL1Stats {
		t.Errorf("%s: IL1 stats diverged:\nlive   %+v\nreplay %+v", label, live.IL1Stats, rep.IL1Stats)
	}
	if live.DL1BankConflictCycles != rep.DL1BankConflictCycles {
		t.Errorf("%s: DL1 bank conflict cycles diverged: live %d, replay %d",
			label, live.DL1BankConflictCycles, rep.DL1BankConflictCycles)
	}
}

// megaConfig derives a deterministic random configuration of the mega
// design space from a seed (the same construction as dse's canonical-key
// quick tests); ok is false when the space's constraints prune the
// genome.
func megaConfig(sp dse.Space, seed uint64) (sim.Config, bool) {
	rng := rand.New(rand.NewSource(int64(seed)))
	genome := make([]int, len(sp.Axes))
	for i, a := range sp.Axes {
		genome[i] = rng.Intn(len(a.Values))
	}
	pt, ok := sp.At(genome)
	return pt.Config, ok
}

// extraConfigs are the configurations the matrix test adds beyond
// Fig. 3: deterministic random mega-space points (the exotic port
// stacks), and the two ways the instruction port stops being a bare
// cache — the ablation-icache EMSHR in front of an STT-MRAM IL1, and a
// checked run, whose oracle wraps every port.
func extraConfigs(t *testing.T) []sim.Config {
	t.Helper()
	sp, ok := dse.ByName("mega")
	if !ok {
		t.Fatal("mega space not registered")
	}
	var out []sim.Config
	for seed := uint64(1); seed <= 8; seed++ {
		if cfg, ok := megaConfig(sp, seed); ok {
			out = append(out, cfg)
		}
	}
	emshrI := sim.BaselineSRAM()
	emshrI.Name = "stt-il1-emshr"
	emshrI.IL1Cell = tech.STT2T2MTJ
	emshrI.IL1FrontEnd = sim.FEEMSHR
	checked := sim.ProposalVWB()
	checked.Check = true
	return append(out, emshrI, checked)
}

// TestReplayMatchesLiveFig3Matrix replays every benchmark under the full
// Fig. 3 configuration matrix, and the smoke benchmarks under the extra
// configurations, and demands exact equality with live execution on
// every counter.
func TestReplayMatchesLiveFig3Matrix(t *testing.T) {
	traces := replay.NewCache()
	ctx := context.Background()
	check := func(cfg sim.Config, benches []polybench.Bench) {
		for _, b := range benches {
			live, err := sim.Run(b.Kernel(), cfg)
			if err != nil {
				t.Fatalf("live %s on %s: %v", b.Name, cfg.Name, err)
			}
			rep, err := replay.Run(ctx, traces, b, cfg)
			if err != nil {
				t.Fatalf("replay %s on %s: %v", b.Name, cfg.Name, err)
			}
			mustEqualResults(t, b.Name+" on "+cfg.Name, live, rep)
		}
	}
	for _, cfg := range matrixConfigs() {
		check(cfg, matrixBenches(t))
	}
	for _, cfg := range extraConfigs(t) {
		check(cfg, smokeBenches(t))
	}
}

// smokeBenches is the design-space slice used by the smoke-space tests
// (the same slice scripts/check.sh exercises).
func smokeBenches(t *testing.T) []polybench.Bench {
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

// liveEngine is a dse.Engine that runs every simulation live through
// sim.Run, with no memo, store or replay: the independent reference the
// suite's replay engine is checked against.
type liveEngine struct{ check bool }

func (e liveEngine) Run(b polybench.Bench, cfg sim.Config) (*sim.RunResult, error) {
	cfg.Check = e.check
	return sim.Run(b.Kernel(), cfg)
}

func (liveEngine) Prefetch([]polybench.Bench, ...sim.Config) error { return nil }

// evalSmoke evaluates the smoke space on eng.
func evalSmoke(t *testing.T, eng dse.Engine) *dse.Evaluation {
	t.Helper()
	sp, ok := dse.ByName("smoke")
	if !ok {
		t.Fatal("smoke space not registered")
	}
	ev, err := dse.Evaluate(eng, smokeBenches(t), sp)
	if err != nil {
		t.Fatalf("evaluate smoke: %v", err)
	}
	return ev
}

// smokeEval evaluates the smoke space on a replaying suite with the
// given worker count, checked or not.
func smokeEval(t *testing.T, jobs int, check bool) *dse.Evaluation {
	t.Helper()
	return evalSmoke(t, experiments.NewSuiteJobs(smokeBenches(t), jobs).WithCheck(check))
}

// TestSmokeSpaceReplayMatchesLive runs the smoke design space live and
// through the replaying suite, both under the timing oracle, and demands
// identical evaluations: every point's objectives, ranks and ordering.
func TestSmokeSpaceReplayMatchesLive(t *testing.T) {
	live := evalSmoke(t, liveEngine{check: true})
	rep := smokeEval(t, 1, true)
	// The Space itself holds axis-apply closures (func values never
	// compare equal); the evaluation's substance is Benches + Points.
	if !reflect.DeepEqual(live.Benches, rep.Benches) || !reflect.DeepEqual(live.Points, rep.Points) {
		t.Errorf("smoke evaluation diverged between live and replay:\nlive   %+v\nreplay %+v", live.Points, rep.Points)
	}
}

// TestReplayDeterministicAcrossWorkers pins the engine's determinism
// contract: the smoke evaluation is identical at any worker count.
func TestReplayDeterministicAcrossWorkers(t *testing.T) {
	serial := smokeEval(t, 1, false)
	parallel := smokeEval(t, 8, false)
	if !reflect.DeepEqual(serial.Benches, parallel.Benches) || !reflect.DeepEqual(serial.Points, parallel.Points) {
		t.Errorf("replay evaluation differs between -j 1 and -j 8:\nserial   %+v\nparallel %+v", serial.Points, parallel.Points)
	}
}
