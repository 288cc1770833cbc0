package dse

import (
	"fmt"

	"sttdl1/internal/energy"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
	"sttdl1/internal/stats"
)

// Engine is the slice of the experiment suite the exploration engine
// needs: memoized, deduplicated simulation with parallel fan-out.
// *experiments.Suite satisfies it; dse stays importable from
// experiments (the ablation figures are defined as spaces) because the
// dependency points this way only.
type Engine interface {
	Run(b polybench.Bench, cfg sim.Config) (*sim.RunResult, error)
	Prefetch(benches []polybench.Bench, cfgs ...sim.Config) error
}

// Objectives is one design point's score vector. All three are
// minimized.
type Objectives struct {
	// PenaltyPct is the suite-average performance penalty (%) against
	// the point's SRAM baseline — the paper's primary metric.
	PenaltyPct float64
	// EnergyUJ is the suite-average DL1-subsystem energy per run (µJ):
	// array leakage + array dynamic + front-end buffer.
	EnergyUJ float64
	// AreaMM2 is the DL1 array area plus the front-end buffer's.
	AreaMM2 float64
}

// Vector returns the objectives as a minimization vector for the
// dominance computation, in (penalty, energy, area) order.
func (o Objectives) Vector() []float64 {
	return []float64{o.PenaltyPct, o.EnergyUJ, o.AreaMM2}
}

// PointResult is one evaluated design point.
type PointResult struct {
	Point Point
	Obj   Objectives
	// Rank is the dominance rank: 0 = on the exact Pareto frontier,
	// rank r is the frontier after ranks < r are removed.
	Rank int
	// Proposal marks the point whose configuration is the paper's VWB
	// proposal (STT-MRAM DL1 behind a 2 Kbit VWB, default banking and
	// model latencies).
	Proposal bool
	// Reference marks the shared SRAM baseline, included as a real
	// design alternative (penalty 0 by construction).
	Reference bool
}

// Evaluation is the outcome of exploring one space over one benchmark
// suite.
type Evaluation struct {
	Space   Space
	Benches []string
	// Points holds every evaluated point in enumeration order, the SRAM
	// reference (when the space has a single shared baseline) last.
	Points []PointResult
}

// Evaluate enumerates the space, fans every (benchmark × configuration)
// simulation — design points and their SRAM baselines — out over the
// engine's worker pool in one batch, then scores each point and
// computes dominance ranks. Results are consumed from the memo in
// enumeration order, so the evaluation is bit-identical at any worker
// count; a second Evaluate over an overlapping space on the same engine
// re-simulates nothing.
func Evaluate(eng Engine, benches []polybench.Bench, sp Space) (*Evaluation, error) {
	if benches == nil {
		benches = polybench.All()
	}
	pts := sp.Enumerate()
	if len(pts) == 0 {
		return nil, fmt.Errorf("dse: space %q enumerates no points", sp.Name)
	}

	// One fan-out over everything the scoring loop will consume.
	cfgs := make([]sim.Config, 0, 2*len(pts))
	for _, pt := range pts {
		cfgs = append(cfgs, pt.Config, sp.BaselineFor(pt.Config))
	}
	if err := eng.Prefetch(benches, cfgs...); err != nil {
		return nil, fmt.Errorf("dse: %s: %w", sp.Name, err)
	}

	scored := make([]PointResult, 0, len(pts)+1)
	for _, pt := range pts {
		obj, err := score(eng, benches, pt.Config, sp.BaselineFor(pt.Config))
		if err != nil {
			return nil, fmt.Errorf("dse: %s: point %s: %w", sp.Name, pt.Label, err)
		}
		scored = append(scored, PointResult{Point: pt, Obj: obj})
	}
	ev, err := rankEvaluation(eng, benches, sp, scored)
	if err != nil {
		return nil, fmt.Errorf("dse: %s: baseline: %w", sp.Name, err)
	}
	return &ev, nil
}

// rankEvaluation assembles the Evaluation of the scored points and
// marks the proposal points. The shared SRAM baseline is itself a
// design alternative — penalty 0 at SRAM leakage and area — so when
// every point measures against one baseline, that baseline is scored
// and appended as the reference point. Every point, the reference
// included, then gets its dominance rank. An error is the baseline's
// scoring error.
func rankEvaluation(eng Engine, benches []polybench.Bench, sp Space, points []PointResult) (Evaluation, error) {
	ev := Evaluation{Space: sp, Benches: benchNames(benches), Points: points}
	base0 := sp.BaselineFor(points[0].Point.Config)
	shared := true
	for i := range points {
		cfg := points[i].Point.Config
		points[i].Proposal = IsProposal(cfg)
		if sp.BaselineFor(cfg) != base0 {
			shared = false
		}
	}
	if shared {
		obj, err := score(eng, benches, base0, base0)
		if err != nil {
			return Evaluation{}, err
		}
		ev.Points = append(ev.Points, PointResult{
			Point:     Point{Index: len(points), Label: base0.Name, Config: base0},
			Obj:       obj,
			Reference: true,
		})
	}
	objs := make([][]float64, len(ev.Points))
	for i, p := range ev.Points {
		objs[i] = p.Obj.Vector()
	}
	for i, r := range Ranks(objs) {
		ev.Points[i].Rank = r
	}
	return ev, nil
}

// score computes one configuration's objectives against its baseline.
// Every simulation it consumes is already memoized by the batch
// fan-out.
func score(eng Engine, benches []polybench.Bench, cfg, base sim.Config) (Objectives, error) {
	model, err := energy.ModelFor(cfg)
	if err != nil {
		return Objectives{}, err
	}
	pens := make([]float64, len(benches))
	var totalUJ float64
	for i, b := range benches {
		br, err := eng.Run(b, base)
		if err != nil {
			return Objectives{}, err
		}
		pr, err := eng.Run(b, cfg)
		if err != nil {
			return Objectives{}, err
		}
		pens[i] = stats.Penalty(br.CPU.Cycles, pr.CPU.Cycles)
		totalUJ += energy.TotalUJ(pr, cfg, model)
	}
	return Objectives{
		PenaltyPct: stats.Mean(pens),
		EnergyUJ:   totalUJ / float64(len(benches)),
		AreaMM2:    areaOf(cfg, model),
	}, nil
}

// IsProposal reports whether cfg is the paper's VWB proposal design
// point, normalizing the knobs a sweep sets explicitly against the
// defaults the named sim.ProposalVWB configuration leaves implicit
// (bank count, buffer size, core config, model latencies).
func IsProposal(cfg sim.Config) bool {
	want := sim.ProposalVWB()
	if cfg.DL1Cell != want.DL1Cell || cfg.FrontEnd != want.FrontEnd {
		return false
	}
	return normalize(cfg) == normalize(want)
}

// normalize resolves a configuration's defaulted knobs to their
// effective values and strips fields that don't change the simulated
// design (Name, Check), so two configs compare equal exactly when they
// key the same simulation. The resolution lives in sim.Canonical — one
// canonical form shared with the persistent store's content addressing.
func normalize(cfg sim.Config) sim.Config { return sim.Canonical(cfg) }

func benchNames(benches []polybench.Bench) []string {
	out := make([]string, len(benches))
	for i, b := range benches {
		out[i] = b.Name
	}
	return out
}
