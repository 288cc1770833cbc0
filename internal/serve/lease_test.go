package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sttdl1/internal/store"
)

// heldReply is the outcome of one lease request sent off the test's
// goroutine.
type heldReply struct {
	status  int
	grant   LeaseGrant
	elapsed time.Duration
	err     error
}

// holdLease sends a lease request asking the server to hold it up to
// waitMS, and delivers the reply on the returned channel.
func (e *testEnv) holdLease(ctx context.Context, waitMS int64) <-chan heldReply {
	e.t.Helper()
	body, err := json.Marshal(LeaseRequest{Worker: "held", WaitMS: waitMS})
	if err != nil {
		e.t.Fatal(err)
	}
	ch := make(chan heldReply, 1)
	go func() {
		var r heldReply
		start := time.Now()
		defer func() {
			r.elapsed = time.Since(start)
			ch <- r
		}()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.ts.URL+"/v1/lease", bytes.NewReader(body))
		if err != nil {
			r.err = err
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			r.err = err
			return
		}
		defer resp.Body.Close()
		r.status = resp.StatusCode
		if r.status == http.StatusOK {
			r.err = json.NewDecoder(resp.Body).Decode(&r.grant)
		}
	}()
	return ch
}

// recvHeld waits up to timeout for a held request's reply.
func (e *testEnv) recvHeld(ch <-chan heldReply, timeout time.Duration) heldReply {
	e.t.Helper()
	select {
	case r := <-ch:
		if r.err != nil {
			e.t.Fatalf("held lease request: %v", r.err)
		}
		return r
	case <-time.After(timeout):
		e.t.Fatalf("held lease request unanswered after %v", timeout)
		return heldReply{}
	}
}

// waitWaiting polls /v1/healthz until exactly n lease requests are held.
func (e *testEnv) waitWaiting(n int) {
	e.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var h Health
		if code := e.do("GET", "/v1/healthz", nil, &h); code != http.StatusOK {
			e.t.Fatalf("healthz: status %d", code)
		}
		if h.Waiting == n {
			return
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("healthz reports %d held lease request(s), want %d", h.Waiting, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// vwbJob is a one-shard smoke job small enough to lease by hand.
var vwbJob = JobRequest{Space: "smoke", Axes: map[string][]string{"front-end": {"vwb"}, "rows": {"1Kbit"}}, Benches: []string{"gemm"}}

func TestHeldLeaseGrantedOnSubmit(t *testing.T) {
	e := newEnv(t, Options{})
	held := e.holdLease(context.Background(), 5000)
	e.waitWaiting(1)
	submitted := time.Now()
	js := e.submit(vwbJob)
	r := e.recvHeld(held, 5*time.Second)
	if r.status != http.StatusOK || r.grant.Job != js.ID {
		t.Fatalf("held request: status %d, grant %+v; want a lease on %s", r.status, r.grant, js.ID)
	}
	if d := time.Since(submitted); d > time.Second {
		t.Errorf("held request granted %v after the submit, want within 1s", d)
	}
	e.waitWaiting(0)
}

func TestHeldLeaseTimesOut(t *testing.T) {
	t.Parallel() // waiting out the holds
	e := newEnv(t, Options{LeaseTTL: 150 * time.Millisecond})
	r := e.recvHeld(e.holdLease(context.Background(), 50), 5*time.Second)
	if r.status != http.StatusNoContent || r.elapsed < 50*time.Millisecond {
		t.Errorf("wait_ms 50 with no work: status %d after %v, want 204 after at least 50ms", r.status, r.elapsed)
	}
	// A wait longer than the lease TTL is held for the TTL at most.
	r = e.recvHeld(e.holdLease(context.Background(), 5000), 5*time.Second)
	if r.status != http.StatusNoContent || r.elapsed < 150*time.Millisecond || r.elapsed > 2*time.Second {
		t.Errorf("wait_ms 5000 over a 150ms TTL: status %d after %v, want 204 after about 150ms", r.status, r.elapsed)
	}
}

func TestLeaseWithoutWaitAnswersAtOnce(t *testing.T) {
	e := newEnv(t, Options{})
	r := e.recvHeld(e.holdLease(context.Background(), 0), 5*time.Second)
	if r.status != http.StatusNoContent || r.elapsed > time.Second {
		t.Errorf("lease request without wait_ms: status %d after %v, want 204 at once", r.status, r.elapsed)
	}
	if code := e.do("POST", "/v1/lease", []byte(`{"wait_ms": -1}`), nil); code != http.StatusBadRequest {
		t.Errorf("negative wait_ms: status %d, want 400", code)
	}
}

func TestShutdownReleasesHeldLeases(t *testing.T) {
	e := newEnv(t, Options{})
	held := e.holdLease(context.Background(), 5000)
	e.waitWaiting(1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	start := time.Now()
	if err := e.srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("shutdown took %v with only a held request open", d)
	}
	if r := e.recvHeld(held, time.Second); r.status != http.StatusServiceUnavailable {
		t.Errorf("held request during drain: status %d, want 503", r.status)
	}
}

// TestRequeueWakesHeldLease pins that a requeued shard goes straight to
// a held request, whether the requeue comes from a canceled worker or
// an expired lease.
func TestRequeueWakesHeldLease(t *testing.T) {
	requeues := []struct {
		name    string
		requeue func(e *testEnv, g LeaseGrant)
	}{
		{"canceled worker", func(e *testEnv, g LeaseGrant) {
			if code := e.do("POST", "/v1/leases/"+g.Lease+"/fail", FailBody{Canceled: true}, nil); code != http.StatusOK {
				e.t.Fatalf("fail: status %d", code)
			}
		}},
		{"expired lease", func(e *testEnv, g LeaseGrant) {
			e.srv.mu.Lock()
			e.srv.leases[g.Lease].deadline = time.Now()
			e.srv.mu.Unlock()
			e.srv.Tick()
		}},
	}
	for _, tc := range requeues {
		t.Run(tc.name, func(t *testing.T) {
			e := newEnv(t, Options{})
			e.submit(vwbJob)
			var first LeaseGrant
			if code := e.do("POST", "/v1/lease", LeaseRequest{Worker: "first"}, &first); code != http.StatusOK {
				t.Fatalf("lease: status %d", code)
			}
			held := e.holdLease(context.Background(), 5000)
			e.waitWaiting(1)
			tc.requeue(e, first)
			r := e.recvHeld(held, time.Second)
			if r.status != http.StatusOK || r.grant.Shard != first.Shard || r.grant.Lease == first.Lease {
				t.Errorf("after requeue: status %d, grant %+v; want a new lease on shard %s", r.status, r.grant, first.Shard)
			}
		})
	}
}

func TestHeldLeaseClientCancel(t *testing.T) {
	e := newEnv(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	held := e.holdLease(ctx, 5000)
	e.waitWaiting(1)
	cancel()
	<-held
	// The handler notices the disconnect and returns, so the server can
	// close without waiting out the hold.
	e.waitWaiting(0)
}

// TestWorkerNeverRepolls runs one worker whose poll interval far
// exceeds the test's deadlines: it only finishes a two-shard job, and
// then a resubmission while it is idle, if every lease arrives through
// a held request rather than a re-poll.
func TestWorkerNeverRepolls(t *testing.T) {
	t.Parallel()
	e := newEnv(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{URL: e.ts.URL, Store: e.st, Name: "patient", Poll: time.Minute}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	e.waitWaiting(1)
	req := vwbJob
	req.Shards = 2
	e.waitState(e.submit(req).ID, stateDone, 10*time.Second)
	e.waitWaiting(1)
	e.waitState(e.submit(req).ID, stateDone, 10*time.Second)
}

// TestWorkerWaitUnderClientTimeout pins that the wait a worker asks
// for stays under its HTTP client's timeout.
func TestWorkerWaitUnderClientTimeout(t *testing.T) {
	got := make(chan LeaseRequest, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Error(err)
		}
		got <- req
		w.WriteHeader(http.StatusServiceUnavailable) // the worker exits
	}))
	defer ts.Close()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	w := &Worker{URL: ts.URL, Store: st, Poll: time.Minute, Client: &http.Client{Timeout: 4 * time.Second}}
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if req := <-got; req.WaitMS != 2000 {
		t.Errorf("worker with a 4s client timeout asked to wait %dms, want 2000", req.WaitMS)
	}
}
