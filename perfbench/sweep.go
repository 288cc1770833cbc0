package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"sttdl1/internal/compile"
	"sttdl1/internal/dse"
	"sttdl1/internal/experiments"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
	"sttdl1/internal/stats"
	"sttdl1/internal/store"
)

// evalCSV renders an exhaustive evaluation exactly as
// `sttexplore dse -csv` (and `submit -format csv`) print it.
func evalCSV(ev *dse.Evaluation) []byte {
	return []byte(fmt.Sprintf("# dse-%s\n%s\n", ev.Space.Name, ev.PointsTable().CSV()))
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// coldLabels are the proposal space's write-latency values; sweep-cold's
// seed picks one, and its third of the space keeps reads at 2 and 6
// cycles. A slice by read latency would make the instances unequal:
// replay cost grows with read latency, so the 6-cycle third takes ~15%
// longer than the 2-cycle one, while the write latency moves it little.
var coldLabels = []string{"write=1cy", "write=2cy"}

func coldInstance(seed int64) string {
	return coldLabels[int(uint64(seed)%uint64(len(coldLabels)))]
}

func coldSpace(label string) (dse.Space, error) {
	return dse.Restrict(dse.Proposal(), map[string][]string{
		"read-latency":  {"read=2cy", "read=6cy"},
		"write-latency": {label},
	})
}

// warmBenches drops 4 kernels the seed picks, keeping suite order. The
// kernels are ranked by trace length; the 4 longest always stay, and the
// seed drops one from each of 4 groups of 3 neighbours in the ranking of
// the rest, so every instance carries the same capture work within ~2%
// (a free pick of 4 moves it by ±15%: the longest trace is 16 times the
// shortest).
func warmBenches(seed int64) ([]polybench.Bench, error) {
	all := polybench.All()
	rank := make([]int, len(all))
	records := make([]int, len(all))
	for i, b := range all {
		f, err := factsOf(b, compile.Options{LineSize: 64})
		if err != nil {
			return nil, err
		}
		rank[i], records[i] = i, f.records
	}
	sort.SliceStable(rank, func(a, b int) bool { return records[rank[a]] < records[rank[b]] })
	rng := rand.New(rand.NewSource(seed))
	drop := make(map[int]bool)
	const groups, size = 4, 3
	for g := 0; g < groups; g++ {
		drop[rank[g*size+rng.Intn(size)]] = true
	}
	var out []polybench.Bench
	for i, b := range all {
		if !drop[i] {
			out = append(out, b)
		}
	}
	return out, nil
}

// sweepOp is one traced-or-not exhaustive sweep on a fresh Suite: the
// dse layer over the experiments layer, then the CSV rendering. With a
// tracer the calls into each layer are spans under one op root, and the
// suite's counters are kept for the per-layer report.
type sweepOp struct {
	benches []polybench.Bench
	space   dse.Space
	st      *store.Store // nil = no store

	counters stats.Counters
	wallNS   float64
	rt       runtimeCost
}

func (o *sweepOp) run(t *tracer) ([]byte, error) {
	s := experiments.NewSuiteJobs(o.benches, jobs)
	s.SetStore(o.st)
	o.counters = stats.Counters{}
	if t != nil {
		s.SetProgress(o.counters.Observe)
	}
	start, rt := time.Now(), runtimeNow()
	root := t.begin("op", 0)
	id := t.begin("dse.Evaluate", root)
	var eng dse.Engine = s
	if t != nil {
		eng = &tracedEngine{eng: s, t: t, parent: id}
	}
	ev, err := dse.Evaluate(eng, o.benches, o.space)
	t.end(id)
	if err != nil {
		t.end(root)
		return nil, err
	}
	id = t.begin("dse.render", root)
	out := evalCSV(ev)
	t.end(id)
	t.end(root)
	o.wallNS, o.rt = float64(time.Since(start)), rt.since()
	return out, nil
}

// checker compares each op's output with the golden digest for the
// instance (when the benchmark ships one) and with the run's first
// output.
type checker struct {
	r      *runCtx
	golden string
	first  []byte
}

func (c *checker) check(what string, out []byte) {
	if c.golden != "" && digest(out) != c.golden {
		c.r.fail("%s: output digest %s, golden %s", what, digest(out)[:16], c.golden[:16])
	}
	if c.first == nil {
		c.first = out
	} else if !bytes.Equal(out, c.first) {
		c.r.fail("%s: output differs from the run's first op", what)
	}
}

func sweepCold(r *runCtx) error {
	label := coldInstance(r.seed)
	benches := polybench.All()
	var sp dse.Space
	for i := 0; i < setupReps; i++ {
		if err := r.timeSetup(func() (err error) {
			if sp, err = coldSpace(label); err != nil {
				return err
			}
			return kernelSetup(benches, sim.CompileOptions(sp.Enumerate()[0].Config))
		}); err != nil {
			return err
		}
	}
	r.logf("sweep-cold: proposal slice %s, %d points + reference, %d kernels", label, len(sp.Enumerate()), len(benches))
	chk := &checker{r: r, golden: goldens["sweep-cold/"+label]}
	var insts uint64
	var last *sweepOp
	t := newTracer()
	r.phases(func(i int, tr *tracer) (opSample, error) {
		dir, err := r.freshDir("cold")
		if err != nil {
			return opSample{}, err
		}
		st, err := store.Open(dir)
		if err != nil {
			return opSample{}, err
		}
		op := &sweepOp{benches: benches, space: sp, st: st}
		var out []byte
		s, err := measure("", func() (uint64, error) {
			out, err = op.run(tr)
			return insts, err
		})
		if err != nil {
			return s, err
		}
		chk.check(fmt.Sprintf("sweep-cold op %d", i), out)
		if insts == 0 {
			if s.insts, err = csvInsts(sp, benches); err != nil {
				return s, err
			}
			insts = s.insts
		}
		if tr != nil {
			last = op
		}
		return s, nil
	}, t)
	if !r.traced || last == nil {
		return nil
	}
	return r.sweepLayers(t, last, benches, sp)
}

// csvInsts is the simulated instructions behind an exhaustive sweep of
// sp: every point and the reference, both passes.
func csvInsts(sp dse.Space, benches []polybench.Bench) (uint64, error) {
	var n uint64
	for _, cfg := range configsOf(sp) {
		for _, b := range benches {
			i, err := instsOf(b, cfg)
			if err != nil {
				return 0, err
			}
			n += i
		}
	}
	return n, nil
}

// configsOf lists the configurations an exhaustive sweep of sp
// simulates per kernel: every point and the distinct baselines.
func configsOf(sp dse.Space) []sim.Config {
	var out []sim.Config
	seen := make(map[sim.Config]bool)
	for _, pt := range sp.Enumerate() {
		out = append(out, pt.Config)
		if b := sp.BaselineFor(pt.Config); !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out
}

func sweepWarm(r *runCtx) error {
	benches, err := warmBenches(r.seed)
	if err != nil {
		return err
	}
	sp := dse.Smoke()
	var names []string
	for _, b := range benches {
		names = append(names, b.Name)
	}
	// Set-up: populate a fresh store with the sweep, as a first
	// `sttexplore dse -store` process would. Repeated; the last store is
	// the one the ops read.
	var st *store.Store
	var cold []byte
	for i := 0; i < setupReps; i++ {
		if err := r.timeSetup(func() error {
			dir, err := r.freshDir("warm-store")
			if err != nil {
				return err
			}
			if st, err = store.Open(dir); err != nil {
				return err
			}
			cold, err = (&sweepOp{benches: benches, space: sp, st: st}).run(nil)
			return err
		}); err != nil {
			return err
		}
	}
	r.logf("sweep-warm: smoke over %d kernels %v, store populated in set-up", len(benches), names)
	// Cross-path identity: a store-less evaluation of the same sweep.
	ref, err := (&sweepOp{benches: benches, space: sp}).run(nil)
	if err != nil {
		return err
	}
	chk := &checker{r: r, golden: goldens[fmt.Sprintf("sweep-warm/%d", r.seed)], first: ref}
	chk.check("sweep-warm populating sweep", cold)
	insts, err := csvInsts(sp, benches)
	if err != nil {
		return err
	}
	var last *sweepOp
	var statsBefore, statsAfter store.Stats
	t := newTracer()
	r.phases(func(i int, tr *tracer) (opSample, error) {
		op := &sweepOp{benches: benches, space: sp, st: st}
		var out []byte
		before := st.Stats()
		s, err := measure("", func() (uint64, error) {
			out, err = op.run(tr)
			return insts, err
		})
		if err != nil {
			return s, err
		}
		chk.check(fmt.Sprintf("sweep-warm op %d", i), out)
		if tr != nil {
			last, statsBefore, statsAfter = op, before, st.Stats()
		}
		return s, nil
	}, t)
	if !r.traced || last == nil {
		return nil
	}
	r.layers["store.hits"] = float64(statsAfter.Hits - statsBefore.Hits)
	r.layers["store.misses"] = float64(statsAfter.Misses - statsBefore.Misses)
	r.layers["store.writes"] = float64(statsAfter.Writes - statsBefore.Writes)
	return r.sweepLayers(t, last, benches, sp)
}
