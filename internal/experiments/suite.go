// Package experiments reproduces every table and figure of the paper's
// evaluation, plus the extension ablations listed in DESIGN.md §6. Each
// runner returns structured data (stats.Figure / stats.Table) that the
// sttexplore CLI and the benchmark harness render.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"sttdl1/internal/compile"
	"sttdl1/internal/energy"
	"sttdl1/internal/polybench"
	"sttdl1/internal/replay"
	"sttdl1/internal/runner"
	"sttdl1/internal/sim"
	"sttdl1/internal/stats"
	"sttdl1/internal/store"
)

// Suite runs kernels on configurations through a shared parallel run
// engine (internal/runner): several figures need the same underlying
// simulations (e.g. the unoptimized SRAM baseline appears in Figs. 1, 3,
// 5 and 9), so results are memoized by (bench, config) key and
// concurrent requests for one key share a single execution. All
// suite methods are safe for concurrent use; figure output is
// deterministic at any worker count because results are consumed by key
// in figure order, never in completion order.
type Suite struct {
	Benches []polybench.Bench
	pool    *runner.Pool[string, *sim.RunResult]
	// ctx is the base context runs derive from (Background by default;
	// see WithContext).
	ctx context.Context
	// check runs every simulation under the internal/check timing
	// oracle (sim.Config.Check); a contract violation fails the run.
	check bool
	// traces is the shared compile+capture cache: every simulation is a
	// trace replay (capture the functional stream once per kernel
	// variant, re-run only the timing model per design point; DESIGN.md
	// §7.4).
	traces *replay.Cache
	// store is the optional persistent evaluation cache (DESIGN.md
	// §7.7): a second memo tier behind the in-memory pool, addressed by
	// the content of the evaluation (functional digest + canonical
	// config + model params + schema version). A warm hit skips the
	// capture and the entire timing model; results are byte-identical
	// either way, so the memo key does not include it.
	store *store.Store
}

// NewSuite builds a suite over the given benchmarks (nil = all) with the
// default worker count (GOMAXPROCS).
func NewSuite(benches []polybench.Bench) *Suite { return NewSuiteJobs(benches, 0) }

// NewSuiteJobs builds a suite running at most jobs simulations
// concurrently; jobs <= 0 means GOMAXPROCS. jobs == 1 degrades to the
// fully serial engine and, by the determinism contract (DESIGN.md §7),
// produces bit-identical figures to any other worker count.
func NewSuiteJobs(benches []polybench.Bench, jobs int) *Suite {
	if benches == nil {
		benches = polybench.All()
	}
	return &Suite{
		Benches: benches,
		pool:    runner.New[string, *sim.RunResult](jobs),
		ctx:     context.Background(),
		traces:  replay.NewCache(),
	}
}

// Jobs returns the suite's concurrency bound.
func (s *Suite) Jobs() int { return s.pool.Workers() }

// SetProgress installs a per-completed-simulation observer (see
// stats.RunEvent). Install it before running experiments.
func (s *Suite) SetProgress(fn stats.ProgressFunc) { s.pool.SetProgress(fn) }

// SetCheck turns the timing oracle on or off for every simulation the
// suite runs from now on (the sttexplore -check flag). Checked and
// unchecked runs are memoized separately; install it before running
// experiments.
func (s *Suite) SetCheck(on bool) { s.check = on }

// gangWidthFor is the gang-replay width for one benchmark (DESIGN.md
// §7.9): wide batches amortize the trace walk, but every member carries
// a private DL1+L2 model whose hot lines compete in the host cache, so
// large problem sizes (bigger live sets per member) gang narrower.
func gangWidthFor(b polybench.Bench) int {
	if b.Default > 48 {
		return 4
	}
	return 8
}

// SetStore installs a persistent evaluation store as a second memo tier
// behind the in-memory pool (the sttexplore -store flag; off by
// default). Results are byte-identical with or without it — a stored
// record holds the exact counter set a fresh simulation produces — so
// figures never change; only wall-clock does. Install it before running
// experiments.
func (s *Suite) SetStore(st *store.Store) { s.store = st }

// StoreStats returns the persistent store's counters (zero Stats when
// no store is installed).
func (s *Suite) StoreStats() store.Stats {
	if s.store == nil {
		return store.Stats{}
	}
	return s.store.Stats()
}

// Captures returns how many functional trace captures the suite has
// performed. A sweep served entirely from the persistent store performs
// none: its keys come from compiles alone.
func (s *Suite) Captures() int { return s.traces.Captures() }

// WarmUps returns how many warm-up passes the suite's simulations have
// run. A warm group shares one (DESIGN.md §7.9), so a sweep over
// timing-only variants runs fewer warm-ups than simulations.
func (s *Suite) WarmUps() int { return s.traces.WarmUps() }

// storeKey derives the content address of (b, cfg) under the persistent
// store: the kernel variant's functional digest (memoized compile,
// shared with replay — never a capture), the canonical configuration
// key canon (sim.CanonicalKey of cfg), and the energy model parameters.
// ok is false when the store is off or the configuration has no valid
// model or does not compile — those runs simply skip the store tier.
func (s *Suite) storeKey(ctx context.Context, b polybench.Bench, cfg sim.Config, canon string) (store.Key, bool) {
	if s.store == nil {
		return store.Key{}, false
	}
	modelKey, err := energy.ModelKey(cfg)
	if err != nil {
		return store.Key{}, false
	}
	digest, err := s.traces.Digest(ctx, b, sim.CompileOptions(cfg))
	if err != nil {
		return store.Key{}, false
	}
	return store.KeyFor(benchKey(b), digest, canon, modelKey), true
}

// Stored reports whether a valid persistent-store entry exists for
// (b, cfg) — without simulating or capturing, though it may trigger the
// variant's (memoized) compile to derive the key. The guided search
// uses it to warm-start: an already-stored point routes through the
// memoized store-hitting path instead of abortable replay.
func (s *Suite) Stored(b polybench.Bench, cfg sim.Config) bool {
	cfg = s.applyCheck(cfg)
	key, ok := s.storeKey(s.ctx, b, cfg, sim.CanonicalKey(cfg))
	return ok && s.store.Contains(key)
}

// execute performs one simulation: the persistent store tier first
// (when installed), then trace replay. The returned bool reports a
// store hit — the timing model never ran. canon is sim.CanonicalKey of
// cfg.
func (s *Suite) execute(ctx context.Context, b polybench.Bench, cfg sim.Config, canon string) (*sim.RunResult, bool, error) {
	key, useStore := s.storeKey(ctx, b, cfg, canon)
	if useStore {
		if rec, ok := s.store.Get(key); ok {
			// A fresh run reports the defaults-resolved requested config
			// (sim.New applies them); mirror that so a hit is
			// indistinguishable downstream. The record is freshly decoded,
			// never shared, so the rewrite is safe.
			rec.Result.Config = sim.ApplyDefaults(cfg)
			return rec.Result, true, nil
		}
	}
	r, err := replay.Run(ctx, s.traces, b, cfg)
	if err == nil && useStore {
		// Best-effort publish: a failed write (full disk, permissions)
		// costs future warmth, never correctness — and failures are never
		// stored at all.
		_ = s.store.Put(key, store.NewRecord(b.Name, b.Default, r))
	}
	return r, false, err
}

// applyCheck folds the suite's checking mode into a run configuration.
func (s *Suite) applyCheck(cfg sim.Config) sim.Config {
	if s.check {
		cfg.Check = true
	}
	return cfg
}

// SimsRun returns how many simulations have actually executed (memoized
// and deduplicated requests not counted).
func (s *Suite) SimsRun() int { return s.pool.Done() }

// WithContext returns a shallow copy of the suite whose runs derive from
// ctx — the pool, memo cache and benchmark set stay shared. Cancel ctx
// to abandon queued work submitted through the copy.
func (s *Suite) WithContext(ctx context.Context) *Suite {
	c := *s
	c.ctx = ctx
	return &c
}

// benchKey names a benchmark at its problem size. The size must be
// part of every key: tests rebind Bench.Default, and a suite mixing
// sizes of one bench would otherwise serve the wrong result.
func benchKey(b polybench.Bench) string { return b.Name + "@" + strconv.Itoa(b.Default) }

// runKey returns the memo key of bench b under cfg and its suffix
// canon, sim.CanonicalKey(cfg). Configurations that simulate the same
// design share the key; every field the simulator reads, and the Check
// flag, tell two keys apart. Both strings share one allocation: the
// memo hit path builds a key on every lookup.
func runKey(b polybench.Bench, cfg sim.Config) (key, canon string) {
	var sb strings.Builder
	sb.Grow(320)
	sb.WriteString(benchKey(b))
	sb.WriteByte('|')
	n := sb.Len()
	sim.WriteCanonicalKey(&sb, cfg)
	key = sb.String()
	return key, key[n:]
}

func runLabel(b polybench.Bench, cfg sim.Config) string {
	return b.Name + " on " + cfg.Name + "/" + sim.CompileKey(cfg.Compile)
}

// Run executes bench b under cfg (memoized, deduplicated).
func (s *Suite) Run(b polybench.Bench, cfg sim.Config) (*sim.RunResult, error) {
	return s.RunContext(s.ctx, b, cfg)
}

// RunContext is Run under an explicit context: cancellation abandons the
// request (and the execution, if this caller is its leader and it has
// not started yet).
func (s *Suite) RunContext(ctx context.Context, b polybench.Bench, cfg sim.Config) (*sim.RunResult, error) {
	cfg = s.applyCheck(cfg)
	key, canon := runKey(b, cfg)
	r, err := s.pool.DoLabeled(ctx, key, runLabel(b, cfg),
		func(ctx context.Context) (*sim.RunResult, error) {
			r, cached, err := s.execute(ctx, b, cfg, canon)
			if cached {
				s.pool.NoteCached(key)
			}
			return r, err
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", b.Name, cfg.Name, err)
	}
	return r, nil
}

// ReplayCtl executes bench b under cfg by partial timing replay
// (truncation and/or early abort; DESIGN.md §7.5). Partial results
// describe a prefix of the run, so they bypass the suite's memo entirely
// — only the underlying compile+capture is shared through the trace
// cache. The returned bool reports whether the measured pass aborted.
func (s *Suite) ReplayCtl(b polybench.Bench, cfg sim.Config, ctl *sim.ReplayCtl) (*sim.RunResult, bool, error) {
	cfg = s.applyCheck(cfg)
	r, aborted, err := replay.RunCtl(s.ctx, s.traces, b, cfg, ctl)
	if err != nil {
		return nil, false, fmt.Errorf("experiments: %s on %s: %w", b.Name, cfg.Name, err)
	}
	return r, aborted, nil
}

// Cycles is Run reduced to the cycle count.
func (s *Suite) Cycles(b polybench.Bench, cfg sim.Config) (int64, error) {
	r, err := s.Run(b, cfg)
	if err != nil {
		return 0, err
	}
	return r.CPU.Cycles, nil
}

// Spec names one (benchmark, configuration) simulation of a batch.
type Spec struct {
	Bench  polybench.Bench
	Config sim.Config
}

// Prefetch fans the benches × cfgs cross product out over the worker
// pool and blocks until every simulation is memoized (or the first error
// cancels the remaining queued work). Figures call it before consuming
// results serially, which is where the parallel speedup comes from.
func (s *Suite) Prefetch(benches []polybench.Bench, cfgs ...sim.Config) error {
	specs := make([]Spec, 0, len(benches)*len(cfgs))
	for _, cfg := range cfgs {
		for _, b := range benches {
			specs = append(specs, Spec{Bench: b, Config: cfg})
		}
	}
	return s.PrefetchSpecs(specs)
}

// gangMember is one configuration of a gang batch with its memo
// identity.
type gangMember struct {
	key, label string
	canon      string // sim.CanonicalKey(cfg)
	cfg        sim.Config
}

// PrefetchSpecs fans an explicit batch out over the worker pool. Specs
// are deduplicated by run key, already-memoized (or in-flight) keys are
// dropped, and the rest are grouped by warm group: the trace they
// replay (same benchmark, problem size and compile options) and their
// sim.WarmKey, so a group differs only in timing-only fields. Each
// group of two or more runs as one pool task keyed by its first member
// (DESIGN.md §7.9): one warm-up for the whole group where the
// representative's witness proves sharing exact, then the measured
// passes ganged in walks of the benchmark's gang width. The other
// members' results are published into the memo as the task completes,
// so the engine's accounting still sees exactly one completion per
// unique simulation. Singleton groups take the ordinary serial path.
// Tasks are submitted in sorted key order so the engine's schedule —
// and therefore its progress stream — is reproducible run to run.
func (s *Suite) PrefetchSpecs(specs []Spec) error {
	seen := make(map[string]bool, len(specs))
	type groupKey struct {
		bench string
		warm  sim.Config
	}
	type group struct {
		bench   polybench.Bench
		members []gangMember
	}
	groups := make(map[groupKey]*group)
	var order []groupKey
	for _, sp := range specs {
		cfg := s.applyCheck(sp.Config)
		key, canon := runKey(sp.Bench, cfg)
		if seen[key] {
			continue
		}
		seen[key] = true
		if _, done, inflight := s.pool.Peek(key); done || inflight {
			continue
		}
		// The warm key includes the compile options, so the bench and
		// its problem size complete the trace identity.
		gk := groupKey{benchKey(sp.Bench), sim.WarmKey(cfg)}
		g := groups[gk]
		if g == nil {
			g = &group{bench: sp.Bench}
			groups[gk] = g
			order = append(order, gk)
		}
		g.members = append(g.members, gangMember{key: key, label: runLabel(sp.Bench, cfg), canon: canon, cfg: cfg})
	}

	tasks := make([]runner.Task[string, *sim.RunResult], 0, len(order))
	for _, gk := range order {
		g := groups[gk]
		// Members in sorted key order: the representative is then a pure
		// function of the spec set, never of map iteration or submission
		// order.
		sort.Slice(g.members, func(i, j int) bool { return g.members[i].key < g.members[j].key })
		bench, members, leader := g.bench, g.members, g.members[0]
		run := func(ctx context.Context) (*sim.RunResult, error) {
			return s.executeGang(ctx, bench, members)
		}
		if len(members) == 1 {
			run = func(ctx context.Context) (*sim.RunResult, error) {
				r, cached, err := s.execute(ctx, bench, leader.cfg, leader.canon)
				if cached {
					s.pool.NoteCached(leader.key)
				}
				return r, err
			}
		}
		tasks = append(tasks, runner.Task[string, *sim.RunResult]{Key: leader.key, Label: leader.label, Run: run})
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].Key < tasks[j].Key })
	if _, err := s.pool.Run(s.ctx, tasks); err != nil {
		return fmt.Errorf("experiments: prefetch: %w", err)
	}
	return nil
}

// executeGang runs one warm group under the leader's worker slot: the
// persistent store tier first per member, one group replay for the
// misses (shared warm-up, measured passes ganged at the benchmark's
// gang width), then a serial per-member fallback if the group path
// fails. Members beyond the leader are published into the memo; the
// leader's result is returned as the task's value.
func (s *Suite) executeGang(ctx context.Context, b polybench.Bench, members []gangMember) (*sim.RunResult, error) {
	results := make([]*sim.RunResult, len(members))
	cached := make([]bool, len(members))
	var miss []int
	for i, m := range members {
		if key, ok := s.storeKey(ctx, b, m.cfg, m.canon); ok {
			if rec, hit := s.store.Get(key); hit {
				rec.Result.Config = sim.ApplyDefaults(m.cfg)
				results[i] = rec.Result
				cached[i] = true
				continue
			}
		}
		miss = append(miss, i)
	}
	if len(miss) > 0 {
		cfgs := make([]sim.Config, len(miss))
		for j, i := range miss {
			cfgs[j] = members[i].cfg
		}
		rs, err := replay.RunGang(ctx, s.traces, b, cfgs, gangWidthFor(b))
		switch {
		case err == nil:
			for j, i := range miss {
				results[i] = rs[j]
			}
			if s.store != nil {
				for _, i := range miss {
					if key, ok := s.storeKey(ctx, b, members[i].cfg, members[i].canon); ok {
						_ = s.store.Put(key, store.NewRecord(b.Name, b.Default, results[i]))
					}
				}
			}
		case ctx.Err() != nil:
			return nil, ctx.Err()
		case errors.Is(err, sim.ErrWarmState):
			// A checked group whose members disagree after their own
			// warm-ups: serial replays would hide it, so it fails the run.
			return nil, err
		default:
			// Group path failed (e.g. a functional fault, an instruction
			// budget overrun, an assembly error): fall back to the serial
			// per-member path, which reproduces the canonical error for the
			// failing member while the healthy members still complete.
			for _, i := range miss {
				r, c, err := s.execute(ctx, b, members[i].cfg, members[i].canon)
				if err != nil {
					s.publishGang(members, results, cached, i)
					return nil, err
				}
				results[i], cached[i] = r, c
			}
		}
	}
	s.publishGang(members, results, cached, -1)
	if cached[0] {
		s.pool.NoteCached(members[0].key)
	}
	return results[0], nil
}

// publishGang pushes every non-leader member with a result into the
// memo (skip < 0 publishes all; otherwise member skip and later ones
// without results are omitted — the fallback stopped there).
func (s *Suite) publishGang(members []gangMember, results []*sim.RunResult, cached []bool, skip int) {
	for i := 1; i < len(members); i++ {
		if i == skip || results[i] == nil {
			continue
		}
		s.pool.Publish(members[i].key, members[i].label, results[i], cached[i])
	}
}

// penaltySeries computes per-bench penalties of cfg against base. The
// full matrix is prefetched in parallel first; the serial consumption
// loop below then reads memoized results in bench order.
func (s *Suite) penaltySeries(base, cfg sim.Config) ([]float64, error) {
	if err := s.Prefetch(s.Benches, base, cfg); err != nil {
		return nil, err
	}
	out := make([]float64, len(s.Benches))
	for i, b := range s.Benches {
		bc, err := s.Cycles(b, base)
		if err != nil {
			return nil, err
		}
		vc, err := s.Cycles(b, cfg)
		if err != nil {
			return nil, err
		}
		out[i] = stats.Penalty(bc, vc)
	}
	return out, nil
}

func (s *Suite) benchNames() []string {
	out := make([]string, len(s.Benches))
	for i, b := range s.Benches {
		out[i] = b.Name
	}
	return out
}

// withOpts returns cfg with the given compile options and an adjusted
// name.
func withOpts(cfg sim.Config, opts compile.Options) sim.Config {
	cfg.Compile = opts
	return cfg
}

// allOpts is the paper's full transformation set.
func allOpts() compile.Options { return compile.AllOptimizations() }
