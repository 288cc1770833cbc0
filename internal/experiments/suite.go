// Package experiments reproduces every table and figure of the paper's
// evaluation, plus the extension ablations listed in DESIGN.md §6. Each
// runner returns structured data (stats.Figure / stats.Table) that the
// sttexplore CLI and the benchmark harness render.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"

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
	// keys renders each configuration's canonical and model keys once;
	// shared by WithContext copies.
	keys *keyMemo
}

// configKeys is one configuration's rendered keys.
type configKeys struct {
	canon string // sim.CanonicalKey(cfg)
	// model is energy.ModelKey(cfg); modelOK is false when cfg has no
	// valid energy model, and such runs skip the store tier.
	model   string
	modelOK bool
}

// keyMemo memoizes configKeys by configuration. A warm sweep asks for
// the keys of a few configurations hundreds of times (Prefetch, then
// every Run of the scoring loop), and rendering them is most of a warm
// memo hit's cost. It is the suite's only caller of sim.CanonicalKey and
// energy.ModelKey. A plain map under a mutex, not a sync.Map: the typed
// map hashes the Config struct directly, where sync.Map's interface
// keys go through the runtime's generic type hash.
type keyMemo struct {
	mu sync.Mutex
	m  map[sim.Config]configKeys
}

// get returns cfg's keys, rendering them on first use. Two callers
// racing on a new configuration may both render it; they store equal
// values.
func (km *keyMemo) get(cfg sim.Config) configKeys {
	km.mu.Lock()
	k, ok := km.m[cfg]
	km.mu.Unlock()
	if ok {
		return k
	}
	k.canon = sim.CanonicalKey(cfg)
	model, err := energy.ModelKey(cfg)
	k.model, k.modelOK = model, err == nil
	km.mu.Lock()
	km.m[cfg] = k
	km.mu.Unlock()
	return k
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
		keys:    &keyMemo{m: make(map[sim.Config]configKeys)},
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
// shared with replay — never a capture), and cfg's memoized keys k: the
// canonical configuration key and the energy model parameters. ok is
// false when the store is off or the configuration has no valid model
// or does not compile — those runs simply skip the store tier.
func (s *Suite) storeKey(ctx context.Context, b polybench.Bench, cfg sim.Config, k configKeys) (store.Key, bool) {
	if s.store == nil || !k.modelOK {
		return store.Key{}, false
	}
	digest, err := s.traces.Digest(ctx, b, sim.CompileOptions(cfg))
	if err != nil {
		return store.Key{}, false
	}
	return store.KeyFor(benchKey(b), digest, k.canon, k.model), true
}

// Stored reports whether a valid persistent-store entry exists for
// (b, cfg) — without simulating or capturing, though it may trigger the
// variant's (memoized) compile to derive the key. The guided search
// uses it to warm-start: an already-stored point routes through the
// memoized store-hitting path instead of abortable replay.
func (s *Suite) Stored(b polybench.Bench, cfg sim.Config) bool {
	cfg = s.applyCheck(cfg)
	key, ok := s.storeKey(s.ctx, b, cfg, s.keys.get(cfg))
	return ok && s.store.Contains(key)
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

// runKey returns the memo key of bench b under cfg, and cfg's memoized
// keys. Configurations that simulate the same design share the key;
// every field the simulator reads, and the Check flag, tell two keys
// apart.
func (s *Suite) runKey(b polybench.Bench, cfg sim.Config) (string, configKeys) {
	k := s.keys.get(cfg)
	return benchKey(b) + "|" + k.canon, k
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
	key, k := s.runKey(b, cfg)
	if r, done, _ := s.pool.Peek(key); done {
		return r, nil
	}
	m := gangMember{key: key, label: runLabel(b, cfg), keys: k, cfg: cfg}
	r, err := s.pool.DoLabeled(ctx, key, m.label,
		func(ctx context.Context) (*sim.RunResult, error) {
			r, _, err := s.execute(ctx, b, []gangMember{m}, nil)
			return r, err
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s on %s: %w", b.Name, cfg.Name, err)
	}
	return r, nil
}

// ReplayCtl executes bench b under cfg by partial timing replay
// (truncation and/or early abort; DESIGN.md §7.5). Partial results
// describe a prefix of the run, so they bypass the suite's memo and the
// persistent store entirely — only the underlying compile+capture is
// shared through the trace cache. The returned bool reports whether the
// measured pass aborted.
func (s *Suite) ReplayCtl(b polybench.Bench, cfg sim.Config, ctl *sim.ReplayCtl) (*sim.RunResult, bool, error) {
	cfg = s.applyCheck(cfg)
	r, aborted, err := s.execute(s.ctx, b, []gangMember{{cfg: cfg}}, ctl)
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

// gangMember is one configuration of a warm group with its memo
// identity.
type gangMember struct {
	key, label string
	keys       configKeys
	cfg        sim.Config
}

// PrefetchSpecs fans an explicit batch out over the worker pool. Specs
// are deduplicated by run key, already-memoized (or in-flight) keys are
// dropped, and the rest are grouped by warm group: the trace they
// replay (same benchmark, problem size and compile options) and their
// sim.WarmKey, so a group differs only in timing-only fields. Each
// group, of one member or more, runs as one pool task keyed by its
// first member (execute, DESIGN.md §7.9): one warm-up for the whole
// group where the representative's witness proves sharing exact, then
// each member's measured pass.
// The other members' results are published into the memo as the task
// completes, so the engine's accounting still sees exactly one
// completion per unique simulation. Tasks are submitted in sorted key
// order so the engine's schedule — and therefore its progress stream —
// is reproducible run to run.
//
// With a store installed, the functional digest of every kernel variant
// the tasks need starts resolving concurrently before the tasks run
// (resolveDigests): sorted key order is kernel-major, and otherwise
// every worker slot would start on one kernel's groups and wait on the
// compile one of them leads.
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
		key, k := s.runKey(sp.Bench, cfg)
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
		g.members = append(g.members, gangMember{key: key, label: runLabel(sp.Bench, cfg), keys: k, cfg: cfg})
	}

	tasks := make([]runner.Task[string, *sim.RunResult], 0, len(order))
	for _, gk := range order {
		g := groups[gk]
		// Members in sorted key order: the representative is then a pure
		// function of the spec set, never of map iteration or submission
		// order.
		sort.Slice(g.members, func(i, j int) bool { return g.members[i].key < g.members[j].key })
		bench, members := g.bench, g.members
		tasks = append(tasks, runner.Task[string, *sim.RunResult]{
			Key: members[0].key, Label: members[0].label,
			Run: func(ctx context.Context) (*sim.RunResult, error) {
				r, _, err := s.execute(ctx, bench, members, nil)
				return r, err
			},
		})
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].Key < tasks[j].Key })
	if s.store != nil {
		variants := make([]Spec, 0, len(order))
		for _, gk := range order {
			variants = append(variants, Spec{Bench: groups[gk].bench, Config: gk.warm})
		}
		defer s.resolveDigests(variants)()
	}
	if _, err := s.pool.Run(s.ctx, tasks); err != nil {
		return fmt.Errorf("experiments: prefetch: %w", err)
	}
	return nil
}

// resolveDigests starts the functional digest (the memoized compile) of
// each distinct kernel variant of specs, one goroutine each, and returns
// a function that waits for all of them. The compiles run over the trace
// cache's own pool, so they keep every CPU busy while the suite's worker
// slots wait on the variants they need; a task that asks for a digest
// still in flight joins its compile. Errors are dropped here: a failed
// compile is not memoized, and the task that needs it fails on its own.
func (s *Suite) resolveDigests(specs []Spec) (wait func()) {
	type variantKey struct {
		bench string
		opts  compile.Options
	}
	seen := make(map[variantKey]bool, len(specs))
	var wg sync.WaitGroup
	for _, sp := range specs {
		opts := sim.CompileOptions(sp.Config)
		vk := variantKey{benchKey(sp.Bench), opts}
		if seen[vk] {
			continue
		}
		seen[vk] = true
		wg.Add(1)
		go func(b polybench.Bench) {
			defer wg.Done()
			_, _ = s.traces.Digest(s.ctx, b, opts)
		}(sp.Bench)
	}
	return wg.Wait
}

// execute runs members, one warm group of b, under the caller's worker
// slot and returns the first member's result; it is the suite's only
// path to a simulation. A full run (nil ctl) takes each member from the
// persistent store when it holds one, replays the misses as one group
// (replay.RunGang: shared warm-up, then each member's measured pass)
// and publishes them to the store under the key it looked up, then
// publishes every member but the first into the memo (the first is the
// caller's task). A member that fails gets no result
// and its error fails the call once the others are published. A partial
// run (non-nil ctl) describes a prefix, so it skips the store and the
// memo; the returned bool reports whether its measured pass aborted.
func (s *Suite) execute(ctx context.Context, b polybench.Bench, members []gangMember, ctl *sim.ReplayCtl) (*sim.RunResult, bool, error) {
	results := make([]*sim.RunResult, len(members))
	cached := make([]bool, len(members))
	keys := make([]store.Key, len(members)) // zero: the member skips the store
	var miss []int
	var cfgs []sim.Config
	for i, m := range members {
		if ctl == nil {
			if key, ok := s.storeKey(ctx, b, m.cfg, m.keys); ok {
				if rec, hit := s.store.Get(key); hit {
					// A record stores no config (store.Record). A fresh run
					// reports the defaults-resolved requested config
					// (sim.New applies them); set that so a hit is
					// indistinguishable downstream. The record is freshly
					// decoded, never shared, so the write is safe.
					rec.Result.Config = sim.ApplyDefaults(m.cfg)
					results[i], cached[i] = rec.Result, true
					continue
				}
				keys[i] = key
			}
		}
		miss = append(miss, i)
		cfgs = append(cfgs, m.cfg)
	}
	var aborted bool
	var err error
	if len(miss) > 0 {
		var rs []*sim.RunResult
		rs, aborted, err = replay.RunGang(ctx, s.traces, b, cfgs, ctl)
		for j, r := range rs {
			if r == nil {
				continue
			}
			i := miss[j]
			results[i] = r
			if keys[i] != (store.Key{}) {
				// Best-effort publish: a failed write (full disk,
				// permissions) costs future warmth, never correctness —
				// and failures are never stored at all.
				_ = s.store.Put(keys[i], store.NewRecord(b.Name, b.Default, r))
			}
		}
	}
	if ctl == nil {
		for i := 1; i < len(members); i++ {
			if results[i] != nil {
				s.pool.Publish(members[i].key, members[i].label, results[i], cached[i])
			}
		}
	}
	if err != nil {
		return nil, false, err
	}
	if cached[0] {
		s.pool.NoteCached(members[0].key)
	}
	return results[0], aborted, nil
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
