package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"sttdl1/internal/dse"
	"sttdl1/internal/experiments"
	"sttdl1/internal/polybench"
	"sttdl1/internal/stats"
	"sttdl1/internal/store"
)

// Worker pulls shard leases from a Server and executes them into the
// shared persistent store. It is the same component whether it runs as
// a goroutine inside the serve process (`sttexplore serve -workers N`)
// or as a separate `sttexplore worker` process on another machine —
// coordination is HTTP only, results flow through the store only.
type Worker struct {
	// URL is the server base ("http://host:port").
	URL string
	// Store is the shared evaluation store. Required.
	Store *store.Store
	// Name identifies the worker in leases and events.
	Name string
	// Jobs bounds simulation concurrency (0 = GOMAXPROCS).
	Jobs int
	// Poll is the longest a lease request waits on the server for work
	// (0 = 200ms); also the back-off after a failed request. The wait
	// sent is capped at half the client's timeout, so a held request
	// never trips it.
	Poll time.Duration
	// Client is the HTTP client (nil = a 30s-timeout default).
	Client *http.Client
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)

	mu     sync.Mutex
	suites map[bool]*experiments.Suite
	// sims counts completed simulations across the worker's life; each
	// lease reports its own delta against a snapshot.
	sims atomic.Int64
}

// maxConnFailures ends the worker loop after this many consecutive
// lease-request failures — the server is gone, not busy.
const maxConnFailures = 5

// Run pulls and executes leases until ctx is canceled (a shard in
// flight is abandoned and reported canceled, so the server requeues it
// immediately instead of waiting out the heartbeat TTL) or the server
// starts draining (a clean exit).
func (w *Worker) Run(ctx context.Context) error {
	if w.Store == nil {
		return fmt.Errorf("serve: worker needs a store")
	}
	poll := w.Poll
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	wait := poll
	if t := w.client().Timeout; t > 0 {
		wait = min(wait, t/2)
	}
	logf := w.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	failures := 0
	for ctx.Err() == nil {
		grant, status, err := w.lease(ctx, wait)
		if err != nil {
			if ctx.Err() != nil {
				return nil
			}
			failures++
			if failures >= maxConnFailures {
				return fmt.Errorf("serve: worker %s: server unreachable after %d attempts: %w", w.Name, failures, err)
			}
			sleepCtx(ctx, poll)
			continue
		}
		failures = 0
		switch status {
		case http.StatusOK:
			w.execute(ctx, grant, logf)
		case http.StatusNoContent:
			// The server already held the request for the wait; ask again.
		case http.StatusServiceUnavailable:
			logf("worker %s: server draining, exiting", w.Name)
			return nil
		default:
			failures++
			if failures >= maxConnFailures {
				return fmt.Errorf("serve: worker %s: lease request answered %d", w.Name, status)
			}
			sleepCtx(ctx, poll)
		}
	}
	return nil
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// suiteFor returns the worker's long-lived suite for the checking mode:
// shared across leases and jobs, so repeated shards of overlapping
// spaces are served from the in-memory memo before the store is even
// consulted.
func (w *Worker) suiteFor(check bool) *experiments.Suite {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.suites == nil {
		w.suites = make(map[bool]*experiments.Suite)
	}
	s := w.suites[check]
	if s == nil {
		s = experiments.NewSuiteJobs(nil, w.Jobs)
		s.SetCheck(check)
		s.SetStore(w.Store)
		s.SetProgress(func(stats.RunEvent) { w.sims.Add(1) })
		w.suites[check] = s
	}
	return s
}

// execute runs one granted shard: heartbeats on a TTL/3 cadence keep
// the lease alive (a 410 — lease expired or job canceled — cancels the
// evaluation mid-replay), then the outcome is reported as done or fail.
func (w *Worker) execute(ctx context.Context, g *LeaseGrant, logf func(string, ...any)) {
	leaseCtx, cancelLease := context.WithCancel(ctx)
	defer cancelLease()
	start := w.sims.Load()
	delta := func() int { return int(w.sims.Load() - start) }

	interval := time.Duration(g.TTLMS) * time.Millisecond / 3
	if interval <= 0 {
		interval = time.Second
	}
	var hb sync.WaitGroup
	hb.Add(1)
	go func() {
		defer hb.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-leaseCtx.Done():
				return
			case <-t.C:
				status, err := w.post(leaseCtx, "/v1/leases/"+g.Lease+"/heartbeat", HeartbeatBody{Sims: delta()}, nil)
				if err == nil && status == http.StatusGone {
					logf("worker %s: lease %s gone, abandoning shard", w.Name, g.Lease)
					cancelLease()
					return
				}
			}
		}
	}()

	err := w.runShard(leaseCtx, g)
	cancelLease()
	hb.Wait()

	// Reporting runs on the worker's own context: the lease context is
	// spent by design at this point.
	switch {
	case err == nil:
		logf("worker %s: shard %s of job %s done (%d sims)", w.Name, g.Shard, g.Job, delta())
		w.post(ctx, "/v1/leases/"+g.Lease+"/done", DoneBody{Sims: delta()}, nil)
	case ctx.Err() != nil:
		// Worker shutdown: hand the shard straight back.
		w.post(context.Background(), "/v1/leases/"+g.Lease+"/fail", FailBody{Canceled: true}, nil)
	case leaseCtx.Err() != nil:
		// Lease revoked under us; nothing to report, the server already
		// moved on.
	default:
		logf("worker %s: shard %s of job %s failed: %v", w.Name, g.Shard, g.Job, err)
		w.post(ctx, "/v1/leases/"+g.Lease+"/fail", FailBody{Error: err.Error()}, nil)
	}
}

// runShard resolves the grant against the local registries and performs
// the evaluation. Exhaustive shards prefetch their deterministic work
// list (dse.PlanShard) into the store; a guided job's single lease runs
// the seeded search, whose full evaluations land in the store for the
// server's identical stitch trajectory.
func (w *Worker) runShard(ctx context.Context, g *LeaseGrant) error {
	sp, ok := dse.ByName(g.Space)
	if !ok {
		return fmt.Errorf("unknown design space %q", g.Space)
	}
	sp, err := dse.Restrict(sp, g.Axes)
	if err != nil {
		return err
	}
	var benches []polybench.Bench
	for _, bn := range g.Benches {
		b, ok := polybench.ByName(bn)
		if !ok {
			return fmt.Errorf("unknown benchmark %q", bn)
		}
		benches = append(benches, b)
	}
	eng := w.suiteFor(g.Check).WithContext(ctx)
	if g.Search == "guided" {
		_, err := dse.Search(eng, benches, sp, dse.SearchOptions{Budget: g.Budget, Seed: g.Seed})
		return err
	}
	sh, err := dse.ParseShard(g.Shard)
	if err != nil {
		return err
	}
	_, err = dse.EvaluateShard(eng, benches, sp, sh)
	return err
}

func (w *Worker) client() *http.Client {
	if w.Client != nil {
		return w.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// lease asks the server for a shard, letting it hold the request up to
// wait for one. The grant is nil unless the status is 200.
func (w *Worker) lease(ctx context.Context, wait time.Duration) (*LeaseGrant, int, error) {
	var g LeaseGrant
	status, err := w.post(ctx, "/v1/lease", LeaseRequest{Worker: w.Name, WaitMS: wait.Milliseconds()}, &g)
	if err != nil {
		return nil, 0, err
	}
	if status != http.StatusOK {
		return nil, status, nil
	}
	return &g, status, nil
}

// post sends a JSON body and decodes a JSON reply into out (when out is
// non-nil and the status is 200).
func (w *Worker) post(ctx context.Context, path string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.URL+path, bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client().Do(req)
	if err != nil {
		return 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return resp.StatusCode, err
		}
	}
	return resp.StatusCode, nil
}
