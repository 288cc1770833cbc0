package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"sttdl1/internal/compile"
	"sttdl1/internal/dse"
	"sttdl1/internal/experiments"
	"sttdl1/internal/polybench"
	"sttdl1/internal/serve"
	"sttdl1/internal/sim"
	"sttdl1/internal/stats"
	"sttdl1/internal/store"
)

// service is an in-process sweep service on loopback, built the way
// `sttexplore serve -workers 2 -j 1` builds it: a server whose stitch
// suites run 1 job, and 2 workers at 1 job each with the default poll
// interval, all over one fresh store.
type service struct {
	srv    *serve.Server
	st     *store.Store
	hs     *http.Server
	served chan error
	base   string
	cancel context.CancelFunc
	wg     sync.WaitGroup
	client *http.Client
}

// startService starts a service over a fresh store in dir; a non-nil
// timer times its HTTP handler.
func startService(dir string, timer *handlerTimer) (*service, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Options{Store: st, Jobs: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{srv: srv, st: st, base: "http://" + ln.Addr().String(),
		served: make(chan error, 1), client: &http.Client{Timeout: 120 * time.Second}}
	var h http.Handler = srv.Handler()
	if timer != nil {
		h = timer.wrap(h)
	}
	s.hs = &http.Server{Handler: h}
	go func() { s.served <- s.hs.Serve(ln) }()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	for i := 0; i < 2; i++ {
		w := &serve.Worker{URL: s.base, Store: st, Name: fmt.Sprintf("local-%d", i), Jobs: 1}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			if err := w.Run(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: worker:", err)
			}
		}()
	}
	resp, err := s.client.Get(s.base + "/v1/healthz")
	if err != nil {
		s.stop()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return s, nil
}

// stop drains the server, stops the workers and the HTTP server, and
// waits for all of them.
func (s *service) stop() {
	drain, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	s.srv.Shutdown(drain)
	cancel()
	s.cancel()
	s.wg.Wait()
	closeCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	if s.hs.Shutdown(closeCtx) != nil {
		s.hs.Close()
	}
	cancel2()
	<-s.served
	s.client.CloseIdleConnections()
}

// jobTiming is one job as the client saw it, in ms from the POST.
type jobTiming struct {
	kind, bench                           string // kind: "cold" or "warm"
	total, submit, lease, stitching, done float64
	out                                   []byte
}

// job submits an exhaustive 2-shard smoke job for one kernel and follows
// it the way `sttexplore submit -format csv` does: the event stream to
// its end, the job status, then the CSV result.
func (s *service) job(bench string) (jobTiming, error) {
	jt := jobTiming{bench: bench}
	body, err := json.Marshal(serve.JobRequest{Space: "smoke", Benches: []string{bench}, Shards: 2})
	if err != nil {
		return jt, err
	}
	start := time.Now()
	ms := func() float64 { return float64(time.Since(start)) / 1e6 }
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return jt, err
	}
	var js serve.JobStatus
	err = json.NewDecoder(resp.Body).Decode(&js)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return jt, fmt.Errorf("submit %s: status %d: %v", bench, resp.StatusCode, err)
	}
	jt.submit = ms()

	resp, err = s.client.Get(s.base + "/v1/jobs/" + js.ID + "/events")
	if err != nil {
		return jt, err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev serve.Event
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		switch ev.Type {
		case "lease":
			if jt.lease == 0 {
				jt.lease = ms()
			}
		case "stitching":
			jt.stitching = ms()
		case "done":
			jt.done = ms()
		case "failed", "canceled":
			resp.Body.Close()
			return jt, fmt.Errorf("job %s (%s) %s: %s", js.ID, bench, ev.Type, ev.Msg)
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return jt, err
	}

	resp, err = s.client.Get(s.base + "/v1/jobs/" + js.ID)
	if err != nil {
		return jt, err
	}
	err = json.NewDecoder(resp.Body).Decode(&js)
	resp.Body.Close()
	if err != nil || js.State != "done" {
		return jt, fmt.Errorf("job %s (%s): state %q: %v", js.ID, bench, js.State, err)
	}
	resp, err = s.client.Get(s.base + "/v1/jobs/" + js.ID + "/result?format=csv")
	if err != nil {
		return jt, err
	}
	jt.out, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		return jt, fmt.Errorf("result %s: status %d: %v", js.ID, resp.StatusCode, err)
	}
	jt.total = ms()
	return jt, nil
}

// jobRun drives passes over the kernels: each pass starts a fresh
// service and store, and submits every kernel's job cold, each followed
// by one warm resubmission of the same job. Every result is checked
// against the reference bytes.
type jobRun struct {
	order []polybench.Bench
	ref   *reference
	think *rand.Rand
	timer *handlerTimer // nil when untraced

	svc     *service
	stores  store.Stats // summed over finished passes
	timings []jobTiming
}

// thinkMax bounds the client's think time before each submission: one
// default worker poll interval. Workers re-poll right after finishing a
// shard, so a client submitting the moment it has a result would lock to
// their poll phase, and a run's latencies would hinge on where that
// phase settled; a seeded random wait spreads submissions over it.
const thinkMax = 200 * time.Millisecond

func newJobRun(order []polybench.Bench, ref *reference, seed int64, timer *handlerTimer) *jobRun {
	return &jobRun{order: order, ref: ref, think: rand.New(rand.NewSource(seed)), timer: timer}
}

// passLen is the jobs of one pass: a cold job and its warm resubmission
// per kernel.
func (j *jobRun) passLen() int { return 2 * len(j.order) }

func (j *jobRun) op(r *runCtx, i int) (opSample, error) {
	k := i % j.passLen()
	if k == 0 {
		j.stop()
		dir, err := r.freshDir("serve-store")
		if err != nil {
			return opSample{}, err
		}
		if j.svc, err = startService(dir, j.timer); err != nil {
			return opSample{}, err
		}
	}
	kind, b := "cold", j.order[k/2]
	if k%2 == 1 {
		kind = "warm"
	}
	time.Sleep(time.Duration(j.think.Int63n(int64(thinkMax))))
	var jt jobTiming
	s, err := measure(kind, func() (uint64, error) {
		var err error
		jt, err = j.svc.job(b.Name)
		return j.ref.insts[b.Name], err
	})
	if err != nil {
		return s, err
	}
	jt.kind = kind
	if !bytes.Equal(jt.out, j.ref.out[b.Name]) {
		r.fail("%s job %d (%s): served result differs from the in-process dse.Evaluate CSV", kind, i, b.Name)
	}
	if g := goldens["serve-jobs/"+b.Name]; g != "" && digest(jt.out) != g {
		r.fail("%s job %d (%s): result digest differs from the golden", kind, i, b.Name)
	}
	j.timings = append(j.timings, jt)
	return s, nil
}

// stop ends the current pass's service, keeping its store counters.
func (j *jobRun) stop() {
	if j.svc == nil {
		return
	}
	st := j.svc.st.Stats()
	j.stores.Hits += st.Hits
	j.stores.Misses += st.Misses
	j.stores.Writes += st.Writes
	j.svc.stop()
	j.svc = nil
}

// reference is each kernel's smoke sweep evaluated in-process: the
// bytes every served result must match, and the simulated instructions
// behind them.
type reference struct {
	out      map[string][]byte
	insts    map[string]uint64
	renderMS []float64 // rendering each kernel's CSV
}

// serveReference evaluates each kernel's smoke sweep on a fresh
// store-less suite, whose events go to c when it is non-nil.
func serveReference(benches []polybench.Bench, c *stats.Counters) (*reference, error) {
	ref := &reference{out: make(map[string][]byte), insts: make(map[string]uint64)}
	s := experiments.NewSuiteJobs(benches, jobs)
	if c != nil {
		s.SetProgress(c.Observe)
	}
	for _, b := range benches {
		one := []polybench.Bench{b}
		ev, err := dse.Evaluate(s, one, dse.Smoke())
		if err != nil {
			return nil, err
		}
		start := time.Now()
		ref.out[b.Name] = evalCSV(ev)
		ref.renderMS = append(ref.renderMS, float64(time.Since(start))/1e6)
		if ref.insts[b.Name], err = evalInsts(ev, one); err != nil {
			return nil, err
		}
	}
	return ref, nil
}

func serveJobs(r *runCtx) error {
	all := polybench.All()
	var order []polybench.Bench
	for _, i := range rand.New(rand.NewSource(r.seed)).Perm(len(all)) {
		order = append(order, all[i])
	}
	// Set-up: a started, healthy service over a fresh store, and the
	// kernels compiled and captured. Each pass then starts its own.
	for i := 0; i < setupReps; i++ {
		var svc *service
		if err := r.timeSetup(func() error {
			dir, err := r.freshDir("serve-store")
			if err != nil {
				return err
			}
			if svc, err = startService(dir, nil); err != nil {
				return err
			}
			return kernelSetup(all, compile.Options{LineSize: 64})
		}); err != nil {
			return err
		}
		svc.stop()
	}
	var counters stats.Counters
	refStart := time.Now()
	ref, err := serveReference(all, &counters)
	if err != nil {
		return err
	}
	refWall := float64(time.Since(refStart))
	r.logf("serve-jobs: 2 workers × 1 job, one closed-loop client, %d kernels in seed order", len(order))

	// The ops the end-to-end metrics describe are the cold jobs, over
	// whole passes: the kernels' jobs differ in work by an order of
	// magnitude, so a partial pass would shift the median with the seed's
	// order. A warm job's latency is mostly the wait for a worker's next
	// poll; warm jobs are reported per layer.
	untraced := newJobRun(order, ref, r.seed, nil)
	defer untraced.stop()
	traced := newJobRun(order, ref, r.seed, newHandlerTimer())
	defer traced.stop()
	r.batch, r.primary = untraced.passLen(), "cold"
	r.phases(func(i int, t *tracer) (opSample, error) {
		if t == nil {
			return untraced.op(r, i)
		}
		untraced.stop() // the traced phase runs alone
		return traced.op(r, i-len(r.ops))
	}, newTracer())
	r.jobReport(untraced, "untraced")
	if !r.traced {
		return nil
	}
	traced.stop()
	r.jobReport(traced, "traced")

	dir, err := r.freshDir("probe-store")
	if err != nil {
		return err
	}
	p, err := runProbes(all, dir)
	if err != nil {
		return err
	}
	p.setUnitMetrics(r.layers)
	r.serveMetrics(traced)
	r.suiteMetrics(&counters, refWall)
	r.layers["dse.render_ms"] = median(ref.renderMS)
	return r.jobLayers(p, traced)
}

// jobLayers fills serve-jobs' per-op layer counts and prints its ledger,
// both for the mean traced cold job, priced by the layer probes. A cold
// job's shards split the smoke configurations between the two workers,
// each of which captures the kernel in its own suite; the stitch
// captures it once more to key its store reads. A warm job is answered
// from the suites' memos and runs none of this.
func (r *runCtx) jobLayers(p *probes, j *jobRun) error {
	var cold []polybench.Bench
	var wait, stitch, traceNS float64
	for _, jt := range j.timings {
		if jt.kind != "cold" {
			continue
		}
		b, _ := polybench.ByName(jt.bench)
		cold = append(cold, b)
		wait += jt.lease - jt.submit
		stitch += jt.done - jt.stitching
		traceNS += jt.total * 1e6
	}
	cfgs := configsOf(dse.Smoke())
	loopNS, hierNS, records, accesses, err := p.simCost(cfgs, cold)
	if err != nil {
		return err
	}
	compNS, capNS, codecNS, capRecords, capBytes, err := captureCost(cold, sim.CompileOptions(cfgs[0]))
	if err != nil {
		return err
	}
	const captures = 2 + 1 // one per shard, one for the stitch
	n := float64(len(cold))
	capture := (compNS + capNS + codecNS) / n
	hits, misses, writes := float64(j.stores.Hits)/n, float64(j.stores.Misses)/n, float64(j.stores.Writes)/n
	r.layers["replay.records"] = float64(records) / n
	r.layers["hierarchy.accesses"] = float64(accesses) / n
	r.layers["sim_new.calls"] = float64(len(cfgs))
	r.layers["capture.calls"] = captures
	r.layers["capture.records"] = captures * float64(capRecords) / n
	r.layers["codec.bytes"] = captures * float64(capBytes) / n
	r.layers["store.hits"], r.layers["store.misses"], r.layers["store.writes"] = hits, misses, writes

	// Critical-path ledger: the client waits on one chain, so the budget
	// is the job's own wall time (one lane). The two shards run side by
	// side, so each shard line is half the job's simulation work.
	ht := j.timer
	items := []ledgerItem{
		{"handlers submit+status", 2, meanOf(ht.ms["jobs"]) * 1e6},
		{"lease wait (client)", 1, wait / n * 1e6},
		{"shard capture+digest", 1, capture},
		{"shard sim.New", float64(len(cfgs)) / 2, p.simNewNS},
		{"shard replay loop", float64(records) / n / 2, safeDiv(loopNS, float64(records))},
		{"shard hierarchy", float64(accesses) / n / 2, safeDiv(hierNS, float64(accesses))},
		{"shard store.Get (miss)", misses / 2, p.storeMissNS},
		{"shard store.Put", writes / 2, p.storePutNS},
		{"stitch capture+digest", 1, capture},
		{"stitch store.Get (hit)", hits, p.storeGetNS},
		{"handler: result", 1, meanOf(ht.ms["result"]) * 1e6},
	}
	l := ledger{items: items, lanes: 1, opNS: meanOf(msOf(r.ops, "cold")) * 1e6, traced: traceNS / n}
	r.layers["ledger.unexplained_pct"] = l.unexplainedPct()
	r.layers["ledger.trace_overhead_pct"] = l.overheadPct()
	for _, line := range splitLines(l.render(r.workload, fmt.Sprintf(
		"HTTP round trips and event delivery, the second worker's poll for its shard, the stitch's scoring (measured stitch %.1f ms), and uneven shard halves; means over %d cold jobs",
		stitch/n, len(cold)))) {
		r.logf("%s", line)
	}
	return nil
}

func meanOf(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// jobReport prints the cold/warm job latencies with their sample counts.
func (r *runCtx) jobReport(j *jobRun, phase string) {
	for _, kind := range []string{"cold", "warm"} {
		var ms []float64
		for _, jt := range j.timings {
			if jt.kind == kind {
				ms = append(ms, jt.total)
			}
		}
		if len(ms) == 0 {
			continue
		}
		r.logf("%s %s jobs: p50 %.1f ms (n=%d)", phase, kind, median(ms), len(ms))
		if p, ok := tailPercentile(len(ms)); ok && phase == "untraced" {
			r.extra[kind+"_job_ms_"+pctName(p)] = record{percentile(ms, p), "ms", len(ms)}
		}
		if phase == "untraced" {
			r.extra[kind+"_job_ms_p50"] = record{median(ms), "ms", len(ms)}
		}
	}
}

// serveLayerNames are the serve.* per-layer metrics serveMetrics fills;
// workloads that never load the service report them as 0.
var serveLayerNames = []string{
	"serve.submit_ms_p50", "serve.lease_wait_ms_p50", "serve.lease_polls", "serve.lease_empty_ratio",
	"serve.handler_ms.jobs", "serve.handler_ms.lease", "serve.handler_ms.done", "serve.handler_ms.events",
	"serve.handler_ms.result", "serve.stitch_ms_p50", "serve.cold_job_ms_p50", "serve.warm_job_ms_p50",
}

// serveMetrics fills the serve.* per-layer metrics from a traced job
// run: client-side timestamps plus the handler timer's per-route times.
func (r *runCtx) serveMetrics(j *jobRun) {
	var sub, wait, stitch, cold, warm []float64
	for _, jt := range j.timings {
		sub = append(sub, jt.submit)
		wait = append(wait, jt.lease)
		stitch = append(stitch, jt.done-jt.stitching)
		if jt.kind == "cold" {
			cold = append(cold, jt.total)
		} else {
			warm = append(warm, jt.total)
		}
	}
	ht := j.timer
	ht.mu.Lock()
	defer ht.mu.Unlock()
	r.layers["serve.submit_ms_p50"] = median(sub)
	r.layers["serve.lease_wait_ms_p50"] = median(wait)
	r.layers["serve.lease_polls"] = float64(ht.polls) / float64(len(j.timings))
	r.layers["serve.lease_empty_ratio"] = safeDiv(float64(ht.emptyPol), float64(ht.polls))
	for _, route := range []string{"jobs", "lease", "done", "events", "result"} {
		v := 0.0
		if xs := ht.ms[route]; len(xs) > 0 {
			v = median(xs)
		}
		r.layers["serve.handler_ms."+route] = v
	}
	r.layers["serve.stitch_ms_p50"] = median(stitch)
	r.layers["serve.cold_job_ms_p50"] = median(cold)
	r.layers["serve.warm_job_ms_p50"] = median(warm)
}
