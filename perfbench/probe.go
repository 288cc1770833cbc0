package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"sync"
	"time"

	"sttdl1/internal/compile"
	"sttdl1/internal/cpu"
	"sttdl1/internal/dse"
	"sttdl1/internal/energy"
	"sttdl1/internal/polybench"
	"sttdl1/internal/replay"
	"sttdl1/internal/sim"
	"sttdl1/internal/store"
	"sttdl1/internal/trace"
)

// feKinds are the proposal space's front-end families, which the
// per-layer replay and hierarchy costs are broken down by.
var feKinds = []struct {
	name string
	kind sim.FrontEndKind
}{{"direct", sim.FEDirect}, {"vwb", sim.FEVWB}, {"l0", sim.FEL0}, {"emshr", sim.FEEMSHR}}

// feName names a configuration's front-end family (the SRAM baseline's
// is direct).
func feName(cfg sim.Config) string {
	for _, fe := range feKinds {
		if fe.kind == cfg.FrontEnd {
			return fe.name
		}
	}
	return "direct"
}

// feConfig is the proposal space's model-latency point of one family.
func feConfig(kind sim.FrontEndKind) sim.Config {
	cfg := sim.DropInSTT()
	cfg.DL1Banks = 4
	cfg.FrontEnd = kind
	if kind != sim.FEDirect {
		cfg.BufferBits = 2048
	}
	return cfg
}

// kernelFacts are one kernel variant's trace-derived sizes and the
// measured cost of producing its trace.
type kernelFacts struct {
	records  int // retired instructions = trace records per pass
	accesses int // DL1 front-end accesses per pass
	bytes    int // encoded trace size

	// One compile, one capture, and one encode into the trace digest.
	compileNS, captureNS, encodeNS float64
}

// probes holds the unit costs measured on a workload's own kernels.
type probes struct {
	compileNS, captureNSPerRecord, encodeBytesPerNS float64
	simNewNS, simNewBytes                           float64
	replayNS, hierNS                                map[string]float64 // per record / per access, by family
	gangNS, ctlNS                                   float64
	storeGetNS, storePutNS, storeMissNS             float64
	recordBytes                                     float64
	energyNS, rankNS                                float64
}

// factsCache memoizes kernel sizes across the run: counting records
// needs a capture, which the benchmark does outside every timed op.
var factsCache = struct {
	sync.Mutex
	m map[string]kernelFacts
}{m: make(map[string]kernelFacts)}

// factsOf returns b's sizes under opts (the front-end access count is
// filled by the hierarchy probe and is 0 before it runs).
func factsOf(b polybench.Bench, opts compile.Options) (kernelFacts, error) {
	k := variantKey(b, opts)
	factsCache.Lock()
	f, ok := factsCache.m[k]
	factsCache.Unlock()
	if ok {
		return f, nil
	}
	f, err := measureFacts(b, opts)
	if err != nil {
		return f, err
	}
	factsCache.Lock()
	factsCache.m[k] = f
	factsCache.Unlock()
	return f, nil
}

// kernelSetup compiles, captures and encodes every benchmark's variant
// under opts afresh and caches the sizes: the set-up every workload
// repeats before its first op.
func kernelSetup(benches []polybench.Bench, opts compile.Options) error {
	for _, b := range benches {
		f, err := measureFacts(b, opts)
		if err != nil {
			return err
		}
		factsCache.Lock()
		factsCache.m[variantKey(b, opts)] = f
		factsCache.Unlock()
	}
	return nil
}

// setAccesses records the front-end access count of b's variant under
// opts, as the hierarchy probe measured it.
func setAccesses(b polybench.Bench, opts compile.Options, n int) {
	k := variantKey(b, opts)
	factsCache.Lock()
	defer factsCache.Unlock()
	f := factsCache.m[k]
	f.accesses = n
	factsCache.m[k] = f
}

// measureFacts compiles and captures b under opts and encodes its trace
// into a SHA-256 digest, as the suite keys a store record, timing each
// step and sizing the trace.
func measureFacts(b polybench.Bench, opts compile.Options) (kernelFacts, error) {
	var f kernelFacts
	var ck *compile.Compiled
	var tr *cpu.Trace
	var err error
	if f.compileNS, _, err = timeIt(1, func() (err error) { ck, err = compile.Compile(b.Kernel(), opts); return err }); err != nil {
		return f, err
	}
	if f.captureNS, _, err = timeIt(1, func() (err error) { tr, err = sim.CaptureTrace(ck); return err }); err != nil {
		return f, err
	}
	cw := &countWriter{}
	if f.encodeNS, _, err = timeIt(1, func() error { return replay.Encode(io.MultiWriter(sha256.New(), cw), tr) }); err != nil {
		return f, err
	}
	f.records, f.bytes = tr.Len(), cw.n
	return f, nil
}

type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// instsOf is the simulated instruction count behind one result of b
// under cfg: both passes (warm-up and measured) of its trace, or one for
// a cold-start configuration.
func instsOf(b polybench.Bench, cfg sim.Config) (uint64, error) {
	f, err := factsOf(b, sim.CompileOptions(cfg))
	if err != nil {
		return 0, err
	}
	if cfg.ColdStart {
		return uint64(f.records), nil
	}
	return 2 * uint64(f.records), nil
}

// evalInsts is the simulated instructions behind an evaluation's
// points: every point × every benchmark, both passes.
func evalInsts(ev *dse.Evaluation, benches []polybench.Bench) (uint64, error) {
	var n uint64
	for _, p := range ev.Points {
		for _, b := range benches {
			i, err := instsOf(b, p.Point.Config)
			if err != nil {
				return 0, err
			}
			n += i
		}
	}
	return n, nil
}

// timeIt returns the mean wall time of reps calls of fn in ns, and the
// bytes allocated per call.
func timeIt(reps int, fn func() error) (ns, bytes float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < reps; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(d) / float64(reps), float64(after.TotalAlloc-before.TotalAlloc) / float64(reps), nil
}

// runProbes measures every layer's unit cost on benches under the
// default compile options, the way the workloads' configurations use
// them: compile, capture and encode costs come from the set-up's
// measureFacts, the rest is timed here. dir is a scratch directory for
// the store probe.
func runProbes(benches []polybench.Bench, dir string) (*probes, error) {
	p := &probes{replayNS: make(map[string]float64), hierNS: make(map[string]float64)}
	opts := sim.CompileOptions(feConfig(sim.FEVWB))

	type variant struct {
		b  polybench.Bench
		ck *compile.Compiled
		tr *cpu.Trace
	}
	var vs []variant
	var compileNS, captureNS, encodeNS float64
	var records, encBytes int
	for _, b := range benches {
		f, err := factsOf(b, opts)
		if err != nil {
			return nil, err
		}
		compileNS += f.compileNS
		captureNS += f.captureNS
		encodeNS += f.encodeNS
		records += f.records
		encBytes += f.bytes
		ck, err := compile.Compile(b.Kernel(), opts)
		if err != nil {
			return nil, err
		}
		tr, err := sim.CaptureTrace(ck)
		if err != nil {
			return nil, err
		}
		vs = append(vs, variant{b, ck, tr})
	}
	p.compileNS = compileNS / float64(len(benches))
	p.captureNSPerRecord = captureNS / float64(records)
	p.encodeBytesPerNS = float64(encBytes) / encodeNS

	// sim.New per call, averaged over the four families.
	var newNS, newBytes float64
	for _, fe := range feKinds {
		cfg := feConfig(fe.kind)
		ns, bytes, err := timeIt(20, func() error { _, err := sim.New(cfg); return err })
		if err != nil {
			return nil, err
		}
		newNS += ns / float64(len(feKinds))
		newBytes += bytes / float64(len(feKinds))
	}
	p.simNewNS, p.simNewBytes = newNS, newBytes

	// Full serial replay (both passes) and the front-end access stream
	// of every kernel under each family; the stream is recorded around
	// System.FE and replayed into a fresh system's front end.
	var sample *sim.RunResult
	for _, fe := range feKinds {
		cfg := feConfig(fe.kind)
		var repNS, hierNS float64
		var recs, accs int
		for _, v := range vs {
			sys, err := sim.New(cfg)
			if err != nil {
				return nil, err
			}
			var res *sim.RunResult
			ns, _, err := timeIt(1, func() (err error) { res, err = sys.ReplayCompiled(v.ck, v.tr); return err })
			if err != nil {
				return nil, err
			}
			repNS += ns
			recs += 2 * v.tr.Len()
			sample = res

			cold := cfg
			cold.ColdStart = true
			rsys, err := sim.New(cold)
			if err != nil {
				return nil, err
			}
			rec := trace.NewRecorder(rsys.FE, 0)
			rsys.CPU.DMem = rec
			if _, err := rsys.ReplayCompiled(v.ck, v.tr); err != nil {
				return nil, err
			}
			fsys, err := sim.New(cfg)
			if err != nil {
				return nil, err
			}
			ns, _, err = timeIt(1, func() error { trace.Replay(rec.Events, fsys.FE); return nil })
			if err != nil {
				return nil, err
			}
			hierNS += ns
			accs += len(rec.Events)
			if fe.kind == sim.FEDirect {
				setAccesses(v.b, opts, len(rec.Events))
			}
		}
		p.replayNS[fe.name] = repNS / float64(recs)
		p.hierNS[fe.name] = hierNS / float64(accs)
	}
	// Gang replay: each kernel once for a batch of the four families
	// (two of each), per member record.
	var gangNS float64
	var gangRecs int
	for _, v := range vs {
		var systems []*sim.System
		for i := 0; i < 2; i++ {
			for _, fe := range feKinds {
				sys, err := sim.New(feConfig(fe.kind))
				if err != nil {
					return nil, err
				}
				systems = append(systems, sys)
			}
		}
		ns, _, err := timeIt(1, func() error { _, err := sim.ReplayGang(systems, v.ck, v.tr, nil, 0); return err })
		if err != nil {
			return nil, err
		}
		gangNS += ns
		gangRecs += 2 * len(systems) * v.tr.Len()
	}
	p.gangNS = gangNS / float64(gangRecs)

	// Truncated replay, as a guided search's rung runs it.
	var ctlNS float64
	var ctlRecs int
	ctl := &sim.ReplayCtl{MaxRecords: 50000}
	for _, v := range vs {
		for _, fe := range feKinds {
			sys, err := sim.New(feConfig(fe.kind))
			if err != nil {
				return nil, err
			}
			var res *sim.RunResult
			ns, _, err := timeIt(1, func() (err error) { res, _, err = sys.ReplayCompiledCtl(v.ck, v.tr, ctl); return err })
			if err != nil {
				return nil, err
			}
			ctlNS += ns
			ctlRecs += 2 * int(res.CPU.Insts)
		}
	}
	p.ctlNS = ctlNS / float64(ctlRecs)

	if err := p.probeStore(dir, sample); err != nil {
		return nil, err
	}

	cfg := feConfig(sim.FEVWB)
	model, err := energy.ModelFor(cfg)
	if err != nil {
		return nil, err
	}
	var sink float64
	p.energyNS, _, _ = timeIt(20000, func() error { sink += energy.TotalUJ(sample, cfg, model); return nil })
	_ = sink

	objs := make([][]float64, 241)
	for i := range objs {
		objs[i] = []float64{float64((i * 7919) % 241), float64((i * 104729) % 241), float64(i % 17)}
	}
	p.rankNS, _, _ = timeIt(20, func() error { dse.Ranks(objs); return nil })
	return p, nil
}

// probeStore times Put, Get (hit) and Get (miss) on a scratch store with
// records of a real result.
func (p *probes) probeStore(dir string, res *sim.RunResult) error {
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	rec := store.NewRecord(res.Bench, 0, res)
	data, err := store.EncodeRecord(rec)
	if err != nil {
		return err
	}
	p.recordBytes = float64(len(data))
	const n = 100
	keys := make([]store.Key, n)
	for i := range keys {
		keys[i] = store.KeyFor("probe@"+strconv.Itoa(i), [sha256.Size]byte{}, "cfg", "model")
	}
	i := 0
	p.storePutNS, _, err = timeIt(n, func() error { err := st.Put(keys[i], rec); i++; return err })
	if err != nil {
		return err
	}
	i = 0
	p.storeGetNS, _, err = timeIt(n, func() error {
		_, ok := st.Get(keys[i])
		i++
		if !ok {
			return fmt.Errorf("store probe: record %d missing", i-1)
		}
		return nil
	})
	if err != nil {
		return err
	}
	i = 0
	p.storeMissNS, _, err = timeIt(n, func() error {
		st.Get(store.KeyFor("absent@"+strconv.Itoa(i), [sha256.Size]byte{}, "cfg", "model"))
		i++
		return nil
	})
	return err
}

// setUnitMetrics fills the per-layer unit costs every workload reports.
func (p *probes) setUnitMetrics(m map[string]float64) {
	for _, fe := range feKinds {
		m["replay.ns_per_record."+fe.name] = p.replayNS[fe.name]
		m["hierarchy.ns_per_access."+fe.name] = p.hierNS[fe.name]
	}
	m["replay.gang.ns_per_record"] = p.gangNS
	m["replay.ctl.ns_per_record"] = p.ctlNS
	m["sim_new.us_per_call"] = p.simNewNS / 1e3
	m["sim_new.kb_per_call"] = p.simNewBytes / 1024
	m["compile.ms"] = p.compileNS / 1e6
	m["capture.ns_per_record"] = p.captureNSPerRecord
	m["codec.encode_mb_per_s"] = p.encodeBytesPerNS * 1e9 / 1e6
	m["store.get_us"] = p.storeGetNS / 1e3
	m["store.put_us"] = p.storePutNS / 1e3
	m["store.record_bytes"] = p.recordBytes
	m["energy.ns_per_call"] = p.energyNS
	m["dse.rank_ms"] = p.rankNS / 1e6
}

// simCost is the probe-predicted cost of full simulations: each
// (configuration, benchmark) pair replays both passes through the
// core loop, whose front-end accesses are priced by the hierarchy
// probe. It returns the core-loop self time and the hierarchy time,
// plus the records and accesses replayed.
func (p *probes) simCost(cfgs []sim.Config, benches []polybench.Bench) (loopNS, hierNS float64, records, accesses int, err error) {
	for _, cfg := range cfgs {
		fe := feName(cfg)
		for _, b := range benches {
			f, err := factsOf(b, sim.CompileOptions(cfg))
			if err != nil {
				return 0, 0, 0, 0, err
			}
			r, a := 2*f.records, 2*f.accesses
			records += r
			accesses += a
			h := float64(a) * p.hierNS[fe]
			hierNS += h
			loopNS += max(float64(r)*p.replayNS[fe]-h, 0)
		}
	}
	return loopNS, hierNS, records, accesses, nil
}

// captureCost is the measured compile + capture + digest cost of
// capturing every variant the benchmarks need under opts, with the
// records and encoded bytes involved.
func captureCost(benches []polybench.Bench, opts compile.Options) (compileNS, captureNS, codecNS float64, records, bytes int, err error) {
	for _, b := range benches {
		f, err := factsOf(b, opts)
		if err != nil {
			return 0, 0, 0, 0, 0, err
		}
		compileNS += f.compileNS
		captureNS += f.captureNS
		codecNS += f.encodeNS
		records += f.records
		bytes += f.bytes
	}
	return compileNS, captureNS, codecNS, records, bytes, nil
}
