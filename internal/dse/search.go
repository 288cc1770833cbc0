package dse

// Frontier-guided metaheuristic search over design spaces too large to
// enumerate (DESIGN.md §7.5). The search keeps a Pareto archive of
// fully evaluated points, proposes new candidates by mutating and
// crossing the archive's current frontier (plus annealed random
// exploration), and pushes them through a successive-halving ladder:
// a cheap rung — a benchmark-prefix subset replayed for a truncated
// record count — scores every candidate, only the rung's non-dominated
// survivors are promoted to the full suite, and each promoted full
// evaluation may abort early as soon as its partial objective vector is
// provably dominated by the archive frontier.
//
// Determinism contract: the seeded RNG is consumed only in the serial
// proposal step, never during evaluation; parallel rung and full
// evaluations write results by candidate index; and abort decisions
// compare against a frontier snapshot fixed before the generation's
// evaluations start. The search is therefore bit-identical at any
// worker count, and bit-identical with early abort on or off (an
// aborted candidate is provably dominated, so it could never have
// joined the frontier that seeds the next generation — see
// search_test.go's metamorphic checks).

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"sync"

	"sttdl1/internal/cpu"
	"sttdl1/internal/energy"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
	"sttdl1/internal/stats"
	"sttdl1/internal/tech"
)

// CtlEngine is the engine slice the guided search needs: the memoized
// full-suite evaluation of Engine, plus non-memoized partial timing
// replay (truncation and early abort) and the worker bound for the
// search's own deterministic fan-out. *experiments.Suite satisfies it.
type CtlEngine interface {
	Engine
	Jobs() int
	ReplayCtl(b polybench.Bench, cfg sim.Config, ctl *sim.ReplayCtl) (*sim.RunResult, bool, error)
}

// storedChecker is the optional engine capability the search's warm
// start probes: whether a (benchmark, configuration) full-suite result
// is already present in the engine's persistent evaluation store
// (internal/store). *experiments.Suite implements it when a store is
// attached.
type storedChecker interface {
	Stored(b polybench.Bench, cfg sim.Config) bool
}

// RungSpec configures the halving ladder's cheap rung: score each
// candidate on a prefix of the benchmark suite, with every measured
// replay truncated to a fixed record count. Rung scores are heuristic —
// they order candidates, they are not the real objectives — so they are
// computed outside the engine's memo and never mixed with full results.
type RungSpec struct {
	// Benches is the suite prefix scored on the rung (0 = min(2, all)).
	Benches int
	// MaxRecords truncates each measured replay (0 = 50000 records).
	MaxRecords int
}

func (r RungSpec) withDefaults(totalBenches int) RungSpec {
	if r.Benches <= 0 {
		r.Benches = 2
	}
	if r.Benches > totalBenches {
		r.Benches = totalBenches
	}
	if r.MaxRecords <= 0 {
		r.MaxRecords = 50000
	}
	return r
}

// Score computes cfg's rung objectives within sp: the penalty of the
// truncated replay against the equally truncated baseline replay on the
// rung's benchmark prefix, the truncated run's energy, and the exact
// area. Exported so the metamorphic tests can pin rung-score behavior
// (e.g. monotonicity under latency dilation) directly.
func (r RungSpec) Score(eng CtlEngine, benches []polybench.Bench, sp Space, cfg sim.Config) (Objectives, error) {
	if benches == nil {
		benches = polybench.All()
	}
	r = r.withDefaults(len(benches))
	base := sp.BaselineFor(cfg)
	model, err := energy.ModelFor(cfg)
	if err != nil {
		return Objectives{}, err
	}
	ctl := &sim.ReplayCtl{MaxRecords: r.MaxRecords}
	rb := benches[:r.Benches]
	pens := make([]float64, len(rb))
	var totalUJ float64
	for i, b := range rb {
		br, _, err := eng.ReplayCtl(b, base, ctl)
		if err != nil {
			return Objectives{}, err
		}
		pr, _, err := eng.ReplayCtl(b, cfg, ctl)
		if err != nil {
			return Objectives{}, err
		}
		pens[i] = stats.Penalty(br.CPU.Cycles, pr.CPU.Cycles)
		totalUJ += energy.TotalUJ(pr, cfg, model)
	}
	return Objectives{
		PenaltyPct: stats.Mean(pens),
		EnergyUJ:   totalUJ / float64(len(rb)),
		AreaMM2:    areaOf(cfg, model),
	}, nil
}

// areaOf is the exact area objective: the DL1 array plus the front-end
// buffer when the configuration has one. Both score (evaluate.go) and
// the rung use it, and the early-abort lower bound relies on it being
// exact before any simulation runs.
func areaOf(cfg sim.Config, model tech.Model) float64 {
	area := model.AreaMM2
	if energy.Buffered(cfg) {
		bits := cfg.BufferBits
		if bits <= 0 {
			bits = 2048
		}
		area += energy.BufferAreaMM2(bits)
	}
	return area
}

// SearchOptions configures a guided search.
type SearchOptions struct {
	// Budget bounds the full-suite evaluations (aborted ones included:
	// an abort is a shortcut through a budgeted evaluation, not a free
	// extra probe — that keeps the search trajectory identical with
	// abort on or off).
	Budget int
	// Seed seeds the proposal RNG. Equal seeds give bit-identical
	// results at any worker count.
	Seed int64
	// Rung configures the cheap rung (zero value = defaults).
	Rung RungSpec
	// DisableAbort turns the early-abort replay off: every promoted
	// candidate runs the full suite through the memoized engine. The
	// frontier is identical either way; only wall-clock and the set of
	// dominated points that reach the archive change.
	DisableAbort bool
	// Progress observes one event per completed generation.
	Progress stats.SearchProgressFunc
}

// SearchResult is a guided search's outcome: an Evaluation over the
// archive (so all the report/CSV machinery applies) plus the search's
// own accounting.
type SearchResult struct {
	Evaluation
	Seed   int64
	Budget int
	// FullEvals is the budget actually consumed (Aborted included).
	FullEvals int
	// Aborted counts full evaluations stopped early by the archive.
	Aborted int
	// RungEvals counts cheap-rung scorings.
	RungEvals int
	// Generations counts proposal generations run.
	Generations int
	// Exhaustive reports that the space fit inside the budget, so the
	// search degenerated to an exact exhaustive Evaluate.
	Exhaustive bool
	// SpacePoints is the space's kept-point count.
	SpacePoints int
}

// Search tuning knobs. Fixed rather than exported: the determinism
// tests pin outputs for given (space, seed, budget), and every knob
// here is covered by that pin.
const (
	searchBatch    = 16   // candidate proposals per generation
	exploreStart   = 0.9  // generation-0 random-exploration probability
	exploreDecay   = 0.7  // per-generation exploration decay
	exploreMin     = 0.15 // annealing floor
	crossMutate    = 0.3  // post-crossover mutation probability
	abortCheckEach = 8192 // records between early-abort probes
)

// Search runs the frontier-guided metaheuristic over sp. When the
// space's kept-point count fits within the budget the search
// short-circuits to the exact exhaustive Evaluate — which makes "a full
// budget recovers exactly the exhaustive frontier" structural rather
// than probabilistic. Results are bit-identical for equal
// (space, benches, seed, budget) at any engine worker count.
func Search(eng CtlEngine, benches []polybench.Bench, sp Space, opts SearchOptions) (*SearchResult, error) {
	if benches == nil {
		benches = polybench.All()
	}
	if opts.Budget <= 0 {
		return nil, fmt.Errorf("dse: search budget must be positive (got %d)", opts.Budget)
	}
	if len(sp.Axes) == 0 || sp.CountUpTo(1) == 0 {
		return nil, fmt.Errorf("dse: space %q enumerates no points", sp.Name)
	}
	if n := sp.CountUpTo(opts.Budget + 1); n <= opts.Budget {
		ev, err := Evaluate(eng, benches, sp)
		if err != nil {
			return nil, err
		}
		return &SearchResult{
			Evaluation: *ev, Seed: opts.Seed, Budget: opts.Budget,
			FullEvals: len(ev.Points), Exhaustive: true, SpacePoints: n,
		}, nil
	}

	g := &guided{
		eng: eng, benches: benches, sp: sp, opts: opts,
		rng:  rand.New(rand.NewSource(opts.Seed)),
		rung: opts.Rung.withDefaults(len(benches)),
		seen: make(map[string]bool),
	}
	if err := g.run(); err != nil {
		return nil, fmt.Errorf("dse: search %s: %w", sp.Name, err)
	}
	return g.result()
}

// evaluated is one archive entry: a completed full-suite evaluation.
type evaluated struct {
	genome []int
	pt     Point
	obj    Objectives
}

// candidate is one proposed, not yet evaluated genome.
type candidate struct {
	genome []int
	pt     Point
}

type guided struct {
	eng     CtlEngine
	benches []polybench.Bench
	sp      Space
	opts    SearchOptions
	rng     *rand.Rand
	rung    RungSpec
	seen    map[string]bool

	archive  []evaluated
	frontier []int // archive indices of the current non-dominated set

	full, aborted, rungEvals, generations int
}

func (g *guided) run() error {
	for g.full < g.opts.Budget {
		cands := g.propose(g.generations, min(searchBatch, g.opts.Budget-g.full))
		if len(cands) == 0 {
			break // no unseen valid genome found: the space is mined out
		}

		// Cheap rung, in parallel, results by candidate index.
		rungObjs := make([]Objectives, len(cands))
		err := forEachIndexed(len(cands), g.eng.Jobs(), func(i int) error {
			o, err := g.rung.Score(g.eng, g.benches, g.sp, cands[i].pt.Config)
			rungObjs[i] = o
			return err
		})
		if err != nil {
			return err
		}
		g.rungEvals += len(cands)

		// Promote the rung's non-dominated survivors (candidate order),
		// capped by the remaining budget.
		vecs := make([][]float64, len(cands))
		for i, o := range rungObjs {
			vecs[i] = o.Vector()
		}
		prom := Frontier(vecs)
		if rem := g.opts.Budget - g.full; len(prom) > rem {
			prom = prom[:rem]
		}

		// Full-suite evaluations against a frontier snapshot fixed for
		// the whole generation (candidates must not see each other —
		// that is what makes parallel evaluation deterministic).
		snapshot := g.frontierVectors()
		if err := g.prefetch(cands, prom); err != nil {
			return err
		}
		type outcome struct {
			obj     Objectives
			aborted bool
		}
		outs := make([]outcome, len(prom))
		err = forEachIndexed(len(prom), g.eng.Jobs(), func(i int) error {
			obj, ab, err := g.fullEval(cands[prom[i]].pt, snapshot)
			outs[i] = outcome{obj, ab}
			return err
		})
		if err != nil {
			return err
		}

		genAborted := 0
		for i, pi := range prom {
			g.full++
			if outs[i].aborted {
				g.aborted++
				genAborted++
				continue
			}
			c := cands[pi]
			c.pt.Index = len(g.archive)
			g.archive = append(g.archive, evaluated{genome: c.genome, pt: c.pt, obj: outs[i].obj})
		}
		g.refront()
		g.generations++
		if g.opts.Progress != nil {
			g.opts.Progress(stats.SearchEvent{
				Generation: g.generations - 1,
				Candidates: len(cands),
				Promoted:   len(prom),
				Aborted:    genAborted,
				FullEvals:  g.full,
				Budget:     g.opts.Budget,
				Archive:    len(g.archive),
				Frontier:   len(g.frontier),
			})
		}
	}
	if len(g.archive) == 0 {
		return fmt.Errorf("no candidate survived to a completed full evaluation")
	}
	return nil
}

// propose draws up to want new genomes: annealed random exploration,
// else mutation or uniform crossover of current frontier members. All
// RNG consumption happens here, serially. Pruned and duplicate genomes
// are skipped (and remembered, so they are never drawn again).
func (g *guided) propose(gen, want int) []candidate {
	explore := exploreMin + (exploreStart-exploreMin)*math.Pow(exploreDecay, float64(gen))
	var out []candidate
	for tries := 0; len(out) < want && tries < 400*want; tries++ {
		var genome []int
		switch {
		case len(g.frontier) == 0 || g.rng.Float64() < explore:
			genome = g.randomGenome()
		case g.rng.Float64() < 0.5:
			genome = g.mutate(g.archive[g.frontier[g.rng.Intn(len(g.frontier))]].genome)
		default:
			a := g.archive[g.frontier[g.rng.Intn(len(g.frontier))]].genome
			b := g.archive[g.frontier[g.rng.Intn(len(g.frontier))]].genome
			genome = g.crossover(a, b)
		}
		key := genomeKey(genome)
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		pt, ok := g.sp.At(genome)
		if !ok {
			continue
		}
		out = append(out, candidate{genome: genome, pt: pt})
	}
	return out
}

func (g *guided) randomGenome() []int {
	genome := make([]int, len(g.sp.Axes))
	for ai, a := range g.sp.Axes {
		genome[ai] = g.rng.Intn(len(a.Values))
	}
	return genome
}

// mutate flips each gene with probability 1/len, re-rolling one random
// gene if nothing changed.
func (g *guided) mutate(parent []int) []int {
	genome := append([]int{}, parent...)
	changed := false
	for ai, a := range g.sp.Axes {
		if g.rng.Float64() < 1/float64(len(genome)) {
			genome[ai] = g.rng.Intn(len(a.Values))
			changed = changed || genome[ai] != parent[ai]
		}
	}
	if !changed {
		ai := g.rng.Intn(len(genome))
		genome[ai] = g.rng.Intn(len(g.sp.Axes[ai].Values))
	}
	return genome
}

// crossover mixes two parents gene-wise, with a chance of one follow-up
// mutation so identical parents still move.
func (g *guided) crossover(a, b []int) []int {
	genome := make([]int, len(a))
	for i := range genome {
		if g.rng.Float64() < 0.5 {
			genome[i] = a[i]
		} else {
			genome[i] = b[i]
		}
	}
	if g.rng.Float64() < crossMutate {
		ai := g.rng.Intn(len(genome))
		genome[ai] = g.rng.Intn(len(g.sp.Axes[ai].Values))
	}
	return genome
}

func genomeKey(genome []int) string {
	var b strings.Builder
	for i, v := range genome {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(v))
	}
	return b.String()
}

// refront recomputes the archive's non-dominated set.
func (g *guided) refront() {
	objs := make([][]float64, len(g.archive))
	for i, e := range g.archive {
		objs[i] = e.obj.Vector()
	}
	g.frontier = Frontier(objs)
}

func (g *guided) frontierVectors() [][]float64 {
	out := make([][]float64, len(g.frontier))
	for i, ai := range g.frontier {
		out[i] = g.archive[ai].obj.Vector()
	}
	return out
}

// prefetch warms the memo with everything the generation's full
// evaluations consume through the memoized path: every promoted
// candidate's baseline always, and the candidate configurations
// themselves when they will take the memoized score path — early abort
// off, or the candidate fully present in the persistent store (with
// abort on, the remaining candidate runs go through the non-memoized
// abortable replay instead).
func (g *guided) prefetch(cands []candidate, prom []int) error {
	var cfgs []sim.Config
	for _, pi := range prom {
		cfg := cands[pi].pt.Config
		cfgs = append(cfgs, g.sp.BaselineFor(cfg))
		if g.opts.DisableAbort || g.stored(cfg) {
			cfgs = append(cfgs, cfg)
		}
	}
	if len(cfgs) == 0 {
		return nil
	}
	return g.eng.Prefetch(g.benches, cfgs...)
}

// stored reports whether every benchmark's full-suite result for cfg is
// already in the engine's persistent evaluation store, so the memoized
// path will serve the whole evaluation from disk.
func (g *guided) stored(cfg sim.Config) bool {
	sc, ok := g.eng.(storedChecker)
	if !ok {
		return false
	}
	for _, b := range g.benches {
		if !sc.Stored(b, cfg) {
			return false
		}
	}
	return true
}

// fullEval scores one promoted candidate over the full suite. With
// abort enabled, each bench's measured replay probes the candidate's
// partial objective lower bound against the generation's frontier
// snapshot and stops the evaluation as soon as it is provably
// dominated; see lowerBound for the soundness argument. A completed
// evaluation produces exactly the objectives score() would (replay and
// live execution are byte-identical, DESIGN.md §7.4).
func (g *guided) fullEval(pt Point, snapshot [][]float64) (Objectives, bool, error) {
	cfg := pt.Config
	base := g.sp.BaselineFor(cfg)
	model, err := energy.ModelFor(cfg)
	if err != nil {
		return Objectives{}, false, err
	}
	// Warm start: when every benchmark's full result for this candidate
	// is already in the persistent store, the memoized score path serves
	// the evaluation without ever running the timing model — strictly
	// cheaper than abortable replay. Per candidate this is the same
	// switch as DisableAbort: the frontier is identical either way (an
	// aborted candidate is provably dominated and could never have
	// joined it), only the set of dominated points reaching the archive
	// can grow.
	if g.opts.DisableAbort || len(snapshot) == 0 || g.stored(cfg) {
		obj, err := score(g.eng, g.benches, cfg, base)
		return obj, false, err
	}

	area := areaOf(cfg, model)
	// With dynamic way shutdown the run's effective leakage power can be
	// lower than the model's nominal figure; the abort bound must use the
	// provable floor or it could kill a candidate whose shutdown credit
	// would have carried it onto the frontier.
	leakFloorMW := energy.LeakFloorMW(cfg, model)
	width := cfg.CPU.IssueWidth
	if width <= 0 {
		width = cpu.DefaultConfig().IssueWidth
	}
	n := len(g.benches)
	baseCycles := make([]int64, n)
	// floor[j] is a sound lower bound on any configuration's measured
	// cycles for bench j: the retired record count is a property of the
	// trace (identical for the candidate and its baseline — same kernel,
	// same compile options), and a width-issue in-order core cannot
	// retire more than width records per cycle.
	floor := make([]float64, n)
	for j, b := range g.benches {
		br, err := g.eng.Run(b, base)
		if err != nil {
			return Objectives{}, false, err
		}
		baseCycles[j] = br.CPU.Cycles
		floor[j] = float64(br.CPU.Insts) / float64(width)
	}

	pens := make([]float64, n)
	var doneUJ float64
	for j, b := range g.benches {
		j := j
		ctl := &sim.ReplayCtl{
			CheckEvery: abortCheckEach,
			Abort: func(cyclesSoFar int64) bool {
				lb := g.lowerBound(j, cyclesSoFar, pens, doneUJ, baseCycles, floor, leakFloorMW, area)
				return dominatedBy(snapshot, lb)
			},
		}
		r, aborted, err := g.eng.ReplayCtl(b, cfg, ctl)
		if err != nil {
			return Objectives{}, false, err
		}
		if aborted {
			return Objectives{}, true, nil
		}
		pens[j] = stats.Penalty(baseCycles[j], r.CPU.Cycles)
		doneUJ += energy.TotalUJ(r, cfg, model)
	}
	return Objectives{
		PenaltyPct: stats.Mean(pens),
		EnergyUJ:   doneUJ / float64(n),
		AreaMM2:    area,
	}, false, nil
}

// lowerBound builds a pointwise lower bound of the candidate's final
// objective vector, mid-way through bench j at cyclesSoFar:
//
//   - completed benches contribute their exact penalty and energy;
//   - the in-flight bench's cycles are at least max(cyclesSoFar,
//     floor[j]) — replay cycle counts only grow — so its penalty is
//     bounded below by the penalty of that cycle count, and its energy
//     by leakage alone over it (dynamic and buffer energy are >= 0);
//   - unstarted benches are bounded the same way at floor[k];
//   - area is exact.
//
// Every final objective is therefore >= its bound, so a frontier member
// dominating the bound also dominates the final vector (dominance is
// transitive through the pointwise order) and the abort never kills a
// candidate that full evaluation would have kept.
func (g *guided) lowerBound(j int, cyclesSoFar int64, pens []float64, doneUJ float64,
	baseCycles []int64, floor []float64, leakMW, area float64) []float64 {
	penSum := 0.0
	leakUJ := 0.0
	for k := range g.benches {
		switch {
		case k < j:
			penSum += pens[k]
		default:
			cyc := floor[k]
			if k == j && float64(cyclesSoFar) > cyc {
				cyc = float64(cyclesSoFar)
			}
			if baseCycles[k] > 0 {
				penSum += 100 * (cyc - float64(baseCycles[k])) / float64(baseCycles[k])
			}
			leakUJ += leakMW * cyc / 1e6
		}
	}
	n := float64(len(g.benches))
	return []float64{penSum / n, (doneUJ + leakUJ) / n, area}
}

// dominatedBy reports whether any frontier vector dominates v.
func dominatedBy(frontier [][]float64, v []float64) bool {
	for _, f := range frontier {
		if Dominates(f, v) {
			return true
		}
	}
	return false
}

// result assembles the archive into an Evaluation (reference point and
// dominance ranks exactly as Evaluate builds them) plus the search
// accounting.
func (g *guided) result() (*SearchResult, error) {
	scored := make([]PointResult, 0, len(g.archive)+1)
	for _, e := range g.archive {
		scored = append(scored, PointResult{Point: e.pt, Obj: e.obj})
	}
	ev, err := rankEvaluation(g.eng, g.benches, g.sp, scored)
	if err != nil {
		return nil, fmt.Errorf("dse: search %s: baseline: %w", g.sp.Name, err)
	}
	return &SearchResult{
		Evaluation:  ev,
		Seed:        g.opts.Seed,
		Budget:      g.opts.Budget,
		FullEvals:   g.full,
		Aborted:     g.aborted,
		RungEvals:   g.rungEvals,
		Generations: g.generations,
		SpacePoints: g.sp.CountUpTo(0),
	}, nil
}

// forEachIndexed runs f(0..n-1) over at most workers goroutines,
// collecting each call's error by index; the first error in index order
// is returned. Results land in caller-owned slices by index, so the
// outcome is independent of scheduling.
func forEachIndexed(n, workers int, f func(i int) error) error {
	if n == 0 {
		return nil
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			errs[i] = f(i)
		}
	} else {
		sem := make(chan struct{}, workers)
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				errs[i] = f(i)
			}(i)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
