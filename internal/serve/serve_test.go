package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"sttdl1/internal/dse"
	"sttdl1/internal/experiments"
	"sttdl1/internal/polybench"
	"sttdl1/internal/store"
)

// testEnv is one server under httptest with its own store directory.
type testEnv struct {
	t   *testing.T
	srv *Server
	ts  *httptest.Server
	st  *store.Store
}

func newEnv(t *testing.T, opts Options) *testEnv {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = st
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testEnv{t: t, srv: srv, ts: ts, st: st}
}

// do sends a JSON request and decodes the JSON reply into out (when
// non-nil), returning the status code.
func (e *testEnv) do(method, path string, body, out any) int {
	e.t.Helper()
	var rd *bytes.Reader
	if b, ok := body.([]byte); ok {
		rd = bytes.NewReader(b)
	} else {
		data, err := json.Marshal(body)
		if err != nil {
			e.t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, e.ts.URL+path, rd)
	if err != nil {
		e.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil && resp.StatusCode < 300 {
			e.t.Fatalf("%s %s: decoding %d reply: %v", method, path, resp.StatusCode, err)
		}
	}
	return resp.StatusCode
}

func (e *testEnv) submit(req JobRequest) JobStatus {
	e.t.Helper()
	var js JobStatus
	if code := e.do("POST", "/v1/jobs", req, &js); code != http.StatusAccepted {
		e.t.Fatalf("submit: status %d", code)
	}
	return js
}

// waitState polls a job until it reaches want (failing fast on any
// unexpected terminal state).
func (e *testEnv) waitState(id, want string, timeout time.Duration) JobStatus {
	e.t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		var js JobStatus
		if code := e.do("GET", "/v1/jobs/"+id, nil, &js); code != http.StatusOK {
			e.t.Fatalf("status of %s: %d", id, code)
		}
		if js.State == want {
			return js
		}
		if terminal(js.State) {
			e.t.Fatalf("job %s reached %q (error %q), want %q", id, js.State, js.Error, want)
		}
		if time.Now().After(deadline) {
			e.t.Fatalf("job %s stuck in %q waiting for %q", id, js.State, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func (e *testEnv) result(id, format string) (string, int) {
	e.t.Helper()
	resp, err := http.Get(e.ts.URL + "/v1/jobs/" + id + "/result?format=" + format)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String(), resp.StatusCode
}

// startWorker runs a Worker against the env until test cleanup.
func (e *testEnv) startWorker(name string) *Worker {
	e.t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	w := &Worker{URL: e.ts.URL, Store: e.st, Name: name}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx)
	}()
	e.t.Cleanup(func() {
		cancel()
		<-done
	})
	return w
}

// expectedCSV renders what `sttexplore dse -space <sp> -bench gemm -csv`
// prints for the benches subset, through the same library path.
func expectedCSV(t *testing.T, sp dse.Space, benches []polybench.Bench) string {
	t.Helper()
	suite := experiments.NewSuiteJobs(benches, 0)
	ev, err := dse.Evaluate(suite, benches, sp)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("# dse-%s\n%s\n", sp.Name, ev.PointsTable().CSV())
}

func gemm(t *testing.T) []polybench.Bench {
	t.Helper()
	b, ok := polybench.ByName("gemm")
	if !ok {
		t.Fatal("no gemm benchmark")
	}
	return []polybench.Bench{b}
}

// TestServeJobMatchesDse is the service's core contract: a 2-shard job
// executed by 2 workers produces the byte-identical CSV a
// single-process `sttexplore dse` run prints.
func TestServeJobMatchesDse(t *testing.T) {
	e := newEnv(t, Options{})
	workers := []*Worker{e.startWorker("w1"), e.startWorker("w2")}

	js := e.submit(JobRequest{Space: "smoke", Benches: []string{"gemm"}, Shards: 2})
	if js.Shards.Total != 2 {
		t.Fatalf("job has %d shard(s), want 2", js.Shards.Total)
	}
	done := e.waitState(js.ID, stateDone, 2*time.Minute)
	if done.Sims == 0 {
		t.Error("job done with zero reported sims")
	}
	// The shards split the sweep into blocks of whole warm groups
	// (DESIGN.md §7.7), so between them the workers do exactly the
	// unsharded sweep's work: 11 distinct configurations (10 points and
	// the SRAM reference) in 6 warm groups.
	warmUps, sims := 0, 0
	for _, w := range workers {
		s := w.suiteFor(false)
		warmUps += s.WarmUps()
		sims += s.SimsRun()
	}
	if warmUps != 6 || sims != 11 {
		t.Errorf("workers ran %d warm-up(s) and %d simulation(s), want 6 and 11", warmUps, sims)
	}

	sp, _ := dse.ByName("smoke")
	want := expectedCSV(t, sp, gemm(t))
	got, code := e.result(js.ID, "csv")
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	if got != want {
		t.Errorf("serve CSV diverges from single-process dse:\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Every shard was published to the store, so the stitch scored the
	// job from store reads alone and never executed a kernel.
	if n := e.srv.stitchPlain.Captures() + e.srv.stitchChecked.Captures(); n != 0 {
		t.Errorf("stitch suites performed %d capture(s), want 0", n)
	}

	// The table and JSON formats render from the same evaluation.
	table, code := e.result(js.ID, "table")
	if code != http.StatusOK || !strings.Contains(table, "Pareto frontier") {
		t.Errorf("table format: status %d, body %q", code, table)
	}
	var doc resultDoc
	raw, code := e.result(js.ID, "json")
	if code != http.StatusOK {
		t.Fatalf("json format: status %d", code)
	}
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Space != "smoke" || len(doc.Points) == 0 {
		t.Errorf("json result: space %q, %d points", doc.Space, len(doc.Points))
	}
	if _, code := e.result(js.ID, "yaml"); code != http.StatusBadRequest {
		t.Errorf("unknown format: status %d, want 400", code)
	}
}

// TestGuidedJobMatchesDse runs the guided path end to end (the smoke
// space fits the budget, so the search degenerates to an exact
// evaluation — cheap, but it exercises the whole guided plumbing).
func TestGuidedJobMatchesDse(t *testing.T) {
	e := newEnv(t, Options{})
	e.startWorker("w1")
	js := e.submit(JobRequest{Space: "smoke", Benches: []string{"gemm"}, Search: "guided", Budget: 64, Seed: 7, Shards: 5})
	if js.Shards.Total != 1 {
		t.Fatalf("guided job has %d shard(s), want 1 (sequential by nature)", js.Shards.Total)
	}
	e.waitState(js.ID, stateDone, 2*time.Minute)

	sp, _ := dse.ByName("smoke")
	benches := gemm(t)
	suite := experiments.NewSuiteJobs(benches, 0)
	res, err := dse.Search(suite, benches, sp, dse.SearchOptions{Budget: 64, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("# dse-%s guided search: seed %d, budget %d\n%s\n",
		sp.Name, res.Seed, res.Budget, res.PointsTable().CSV())
	got, _ := e.result(js.ID, "csv")
	if got != want {
		t.Errorf("guided serve CSV diverges from single-process dse:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestLeaseExpiryRequeues pins the crash-tolerance path without a real
// worker: a lease goes silent, the heartbeat deadline passes, the shard
// requeues, and a successor lease finishes the job — byte-identical
// output, requeue accounted.
func TestLeaseExpiryRequeues(t *testing.T) {
	t.Parallel() // mostly waiting out the TTL
	// The TTL must outlive race-detector scheduling hiccups between the
	// successor's heartbeats, but stay short enough to keep the test
	// quick.
	e := newEnv(t, Options{LeaseTTL: 250 * time.Millisecond})
	js := e.submit(JobRequest{Space: "smoke", Axes: map[string][]string{"front-end": {"vwb"}}, Benches: []string{"gemm"}})

	var g LeaseGrant
	if code := e.do("POST", "/v1/lease", LeaseRequest{Worker: "crasher"}, &g); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	// The crasher never heartbeats. After the TTL the shard is pending
	// again and its lease is dead.
	time.Sleep(300 * time.Millisecond)
	e.srv.Tick()
	var st JobStatus
	e.do("GET", "/v1/jobs/"+js.ID, nil, &st)
	if st.Requeues != 1 || st.Shards.Pending != 1 || st.Shards.Leased != 0 {
		t.Fatalf("after expiry: %+v, want 1 requeue and the shard pending", st)
	}
	if code := e.do("POST", "/v1/leases/"+g.Lease+"/heartbeat", HeartbeatBody{}, nil); code != http.StatusGone {
		t.Errorf("heartbeat on expired lease: status %d, want 410", code)
	}

	// A healthy successor picks the same shard up and completes the job.
	e.startWorker("successor")
	e.waitState(js.ID, stateDone, 2*time.Minute)
	sp, _ := dse.ByName("smoke")
	sp, err := dse.Restrict(sp, map[string][]string{"front-end": {"vwb"}})
	if err != nil {
		t.Fatal(err)
	}
	want := expectedCSV(t, sp, gemm(t))
	if got, _ := e.result(js.ID, "csv"); got != want {
		t.Errorf("post-requeue CSV diverges:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestDuplicateDoneIdempotent pins that a late or repeated completion
// is absorbed: the first done wins, the second answers "stale", and the
// job completes exactly once.
func TestDuplicateDoneIdempotent(t *testing.T) {
	e := newEnv(t, Options{})
	js := e.submit(JobRequest{Space: "smoke", Axes: map[string][]string{"front-end": {"vwb"}, "rows": {"1Kbit"}}, Benches: []string{"gemm"}})

	var g LeaseGrant
	if code := e.do("POST", "/v1/lease", LeaseRequest{Worker: "w"}, &g); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	var reply map[string]string
	if code := e.do("POST", "/v1/leases/"+g.Lease+"/done", DoneBody{Sims: 3}, &reply); code != http.StatusOK || reply["status"] != "ok" {
		t.Fatalf("first done: status %d, reply %v", code, reply)
	}
	if code := e.do("POST", "/v1/leases/"+g.Lease+"/done", DoneBody{Sims: 3}, &reply); code != http.StatusOK || reply["status"] != "stale" {
		t.Fatalf("duplicate done: status %d, reply %v, want stale", code, reply)
	}
	st := e.waitState(js.ID, stateDone, 2*time.Minute)
	if st.Sims != 3 {
		t.Errorf("duplicate done double-counted sims: %d, want 3", st.Sims)
	}
}

// TestBadJobsNeverEnqueued pins the 4xx wall: malformed, unknown-field,
// unknown-name and oversized submissions are rejected before the queue.
func TestBadJobsNeverEnqueued(t *testing.T) {
	t.Parallel() // the oversized body waits out the server's lingering close
	e := newEnv(t, Options{})
	cases := []struct {
		name string
		body []byte
		want int
	}{
		{"truncated JSON", []byte(`{"space": "smo`), http.StatusBadRequest},
		{"unknown field", []byte(`{"spacey": "smoke"}`), http.StatusBadRequest},
		{"trailing garbage", []byte(`{"space": "smoke"} {"space": "smoke"}`), http.StatusBadRequest},
		{"unknown space", []byte(`{"space": "no-such-space"}`), http.StatusBadRequest},
		{"unknown bench", []byte(`{"benches": ["no-such-bench"]}`), http.StatusBadRequest},
		{"unknown axis", []byte(`{"axes": {"no-such-axis": ["x"]}}`), http.StatusBadRequest},
		{"bad search", []byte(`{"search": "psychic"}`), http.StatusBadRequest},
		{"negative shards", []byte(`{"shards": -2}`), http.StatusBadRequest},
		{"max-int shards", []byte(`{"space": "smoke", "shards": 9223372036854775807}`), http.StatusBadRequest},
		{"a billion shards", []byte(`{"shards": 1000000000}`), http.StatusBadRequest},
		{"oversized body", []byte(`{"space": "` + strings.Repeat("x", MaxJobBody+1) + `"}`), http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		var ed errorDoc
		if code := e.do("POST", "/v1/jobs", tc.body, &ed); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		} else if ed.Error == "" {
			t.Errorf("%s: no error message in reply", tc.name)
		}
	}
	var jobs []JobStatus
	e.do("GET", "/v1/jobs", nil, &jobs)
	if len(jobs) != 0 {
		t.Errorf("%d job(s) enqueued by rejected submissions", len(jobs))
	}
}

// TestDefaultShardsFitSpace pins the other side of the shard bound: a
// server default larger than a space is clamped to the space's size, so
// a job that never asked for shards is not refused.
func TestDefaultShardsFitSpace(t *testing.T) {
	e := newEnv(t, Options{DefaultShards: 8})
	js := e.submit(JobRequest{Space: "ablation-banks", Benches: []string{"gemm"}})
	if js.Shards.Total != 4 {
		t.Errorf("job has %d shard(s), want the space's 4", js.Shards.Total)
	}
}

// TestQueueBound pins the 429 on a full queue.
func TestQueueBound(t *testing.T) {
	e := newEnv(t, Options{Queue: 1})
	e.submit(JobRequest{Space: "smoke", Benches: []string{"gemm"}})
	var ed errorDoc
	if code := e.do("POST", "/v1/jobs", JobRequest{Space: "smoke"}, &ed); code != http.StatusTooManyRequests {
		t.Fatalf("second submit on a 1-deep queue: status %d, want 429", code)
	}
}

// TestCancelRevokesLeases pins DELETE: the job goes canceled, its
// lease's next heartbeat answers 410 (the worker abandons mid-shard),
// and a late done is stale.
func TestCancelRevokesLeases(t *testing.T) {
	e := newEnv(t, Options{})
	js := e.submit(JobRequest{Space: "smoke", Benches: []string{"gemm"}})
	var g LeaseGrant
	if code := e.do("POST", "/v1/lease", LeaseRequest{Worker: "w"}, &g); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	var st JobStatus
	if code := e.do("DELETE", "/v1/jobs/"+js.ID, nil, &st); code != http.StatusOK || st.State != stateCanceled {
		t.Fatalf("cancel: status %d, state %q", code, st.State)
	}
	if code := e.do("POST", "/v1/leases/"+g.Lease+"/heartbeat", HeartbeatBody{}, nil); code != http.StatusGone {
		t.Errorf("heartbeat after cancel: status %d, want 410", code)
	}
	var reply map[string]string
	if code := e.do("POST", "/v1/leases/"+g.Lease+"/done", DoneBody{}, &reply); code != http.StatusOK || reply["status"] != "stale" {
		t.Errorf("done after cancel: status %d, reply %v, want stale", code, reply)
	}
	if _, code := e.result(js.ID, "csv"); code != http.StatusConflict {
		t.Errorf("result of canceled job: status %d, want 409", code)
	}
}

// TestEventsStream pins the NDJSON progress stream: dense sequence
// numbers from queued to done, and ?from resumes mid-stream.
func TestEventsStream(t *testing.T) {
	e := newEnv(t, Options{})
	e.startWorker("w1")
	js := e.submit(JobRequest{Space: "smoke", Axes: map[string][]string{"front-end": {"vwb"}}, Benches: []string{"gemm"}})
	e.waitState(js.ID, stateDone, 2*time.Minute)

	resp, err := http.Get(e.ts.URL + "/v1/jobs/" + js.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	var events []Event
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if len(events) < 4 {
		t.Fatalf("only %d event(s)", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Errorf("event %d has seq %d (stream must be dense)", i, ev.Seq)
		}
		if ev.Job != js.ID {
			t.Errorf("event %d names job %q", i, ev.Job)
		}
	}
	if events[0].Type != "queued" || events[len(events)-1].Type != "done" {
		t.Errorf("stream runs %q..%q, want queued..done", events[0].Type, events[len(events)-1].Type)
	}

	// Resume from the middle.
	resp2, err := http.Get(e.ts.URL + "/v1/jobs/" + js.ID + "/events?from=" + fmt.Sprint(len(events)-2))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var tail []Event
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		var ev Event
		if err := json.Unmarshal(sc2.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		tail = append(tail, ev)
	}
	if len(tail) != 2 || tail[0].Seq != len(events)-2 {
		t.Errorf("resumed stream: %d event(s) from seq %d", len(tail), tail[0].Seq)
	}

	// SSE framing on request.
	req, _ := http.NewRequest("GET", e.ts.URL+"/v1/jobs/"+js.ID+"/events?from=0", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp3.Body)
	if !strings.HasPrefix(buf.String(), "data: ") {
		t.Errorf("SSE stream starts %q", buf.String()[:min(20, buf.Len())])
	}
}

// TestHealthz pins the health document, store line included.
func TestHealthz(t *testing.T) {
	e := newEnv(t, Options{})
	e.startWorker("w1")
	js := e.submit(JobRequest{Space: "smoke", Axes: map[string][]string{"front-end": {"vwb"}}, Benches: []string{"gemm"}})
	e.waitState(js.ID, stateDone, 2*time.Minute)

	var h Health
	if code := e.do("GET", "/v1/healthz", nil, &h); code != http.StatusOK {
		t.Fatalf("healthz: status %d", code)
	}
	if h.Status != "ok" {
		t.Errorf("status %q", h.Status)
	}
	if h.Store.Records == 0 || h.Store.Bytes == 0 {
		t.Errorf("store stats empty after a completed job: %+v", h.Store.DirStats)
	}
	if !strings.Contains(h.Store.Line, "record(s)") {
		t.Errorf("store line %q", h.Store.Line)
	}
	if h.Jobs.Terminal != 1 {
		t.Errorf("terminal jobs %d, want 1", h.Jobs.Terminal)
	}
}

// TestShutdownDrains pins the drain protocol: draining refuses new jobs
// and leases, lets an outstanding lease report done, then returns.
func TestShutdownDrains(t *testing.T) {
	e := newEnv(t, Options{})
	js := e.submit(JobRequest{Space: "smoke", Axes: map[string][]string{"front-end": {"vwb"}, "rows": {"1Kbit"}}, Benches: []string{"gemm"}})
	var g LeaseGrant
	if code := e.do("POST", "/v1/lease", LeaseRequest{Worker: "w"}, &g); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- e.srv.Shutdown(context.Background()) }()

	// Draining refuses new work on both submission paths.
	deadline := time.Now().Add(time.Second)
	for {
		if code := e.do("POST", "/v1/jobs", JobRequest{Space: "smoke"}, nil); code == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("submissions still accepted while draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code := e.do("POST", "/v1/lease", LeaseRequest{Worker: "w2"}, nil); code != http.StatusServiceUnavailable {
		t.Errorf("lease while draining: status %d, want 503", code)
	}

	// The outstanding lease still completes; Shutdown then returns.
	if code := e.do("POST", "/v1/leases/"+g.Lease+"/done", DoneBody{Sims: 1}, nil); code != http.StatusOK {
		t.Errorf("done while draining: status %d", code)
	}
	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Errorf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shutdown never returned after the last lease completed")
	}
	_ = js
}

// TestShutdownForceRequeues pins the deadline path: a lease that never
// completes is requeued when the drain context expires.
func TestShutdownForceRequeues(t *testing.T) {
	e := newEnv(t, Options{})
	js := e.submit(JobRequest{Space: "smoke", Benches: []string{"gemm"}})
	if code := e.do("POST", "/v1/lease", LeaseRequest{Worker: "w"}, &LeaseGrant{}); code != http.StatusOK {
		t.Fatalf("lease: status %d", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := e.srv.Shutdown(ctx); err == nil {
		t.Fatal("deadline-bound shutdown with an abandoned lease returned nil")
	}
	var st JobStatus
	e.do("GET", "/v1/jobs/"+js.ID, nil, &st)
	if st.Shards.Pending != st.Shards.Total || st.Requeues == 0 {
		t.Errorf("after forced shutdown: %+v, want every shard pending and a requeue recorded", st)
	}
}

// TestFailedShardRetriesThenFails pins the retry budget: a shard whose
// workers keep reporting evaluation errors requeues MaxShardRetries-1
// times, then the job fails with the worker's message.
func TestFailedShardRetriesThenFails(t *testing.T) {
	e := newEnv(t, Options{})
	js := e.submit(JobRequest{Space: "smoke", Benches: []string{"gemm"}})
	for i := 0; i < MaxShardRetries; i++ {
		var g LeaseGrant
		if code := e.do("POST", "/v1/lease", LeaseRequest{Worker: "broken"}, &g); code != http.StatusOK {
			t.Fatalf("lease %d: status %d", i, code)
		}
		if code := e.do("POST", "/v1/leases/"+g.Lease+"/fail", FailBody{Error: "synthetic"}, nil); code != http.StatusOK {
			t.Fatalf("fail %d: status %d", i, code)
		}
	}
	var st JobStatus
	e.do("GET", "/v1/jobs/"+js.ID, nil, &st)
	if st.State != stateFailed || !strings.Contains(st.Error, "synthetic") {
		t.Errorf("after %d failures: state %q, error %q", MaxShardRetries, st.State, st.Error)
	}
	// A canceled-worker fail never consumes retries: fresh job, many
	// cancels, still leasable.
	js2 := e.submit(JobRequest{Space: "smoke", Benches: []string{"gemm"}})
	for i := 0; i < MaxShardRetries+2; i++ {
		var g LeaseGrant
		if code := e.do("POST", "/v1/lease", LeaseRequest{Worker: "restarting"}, &g); code != http.StatusOK {
			t.Fatalf("lease %d of job 2: status %d", i, code)
		}
		e.do("POST", "/v1/leases/"+g.Lease+"/fail", FailBody{Canceled: true}, nil)
	}
	e.do("GET", "/v1/jobs/"+js2.ID, nil, &st)
	if terminal(st.State) {
		t.Errorf("canceled-worker requeues failed the job: state %q", st.State)
	}
}

// TestWarmResubmission pins the latency story behind the shared stitch
// suites and the store: resubmitting an identical job completes without
// any new simulation work.
func TestWarmResubmission(t *testing.T) {
	e := newEnv(t, Options{})
	e.startWorker("w1")
	req := JobRequest{Space: "smoke", Axes: map[string][]string{"front-end": {"vwb"}}, Benches: []string{"gemm"}}
	first := e.submit(req)
	e.waitState(first.ID, stateDone, 2*time.Minute)

	second := e.submit(req)
	js := e.waitState(second.ID, stateDone, 2*time.Minute)
	a, _ := e.result(first.ID, "csv")
	b, _ := e.result(second.ID, "csv")
	if a != b {
		t.Error("warm resubmission changed the result bytes")
	}
	_ = js
}

// pagedEnv injects a synthetic done job with n evaluated points
// directly into the server (white-box), so the pagination contract can
// be pinned without running a sweep.
func pagedEnv(t *testing.T, n int) (*testEnv, string) {
	t.Helper()
	e := newEnv(t, Options{})
	sp, ok := dse.ByName("smoke")
	if !ok {
		t.Fatal("no smoke space")
	}
	ev := &dse.Evaluation{Space: sp, Benches: []string{"gemm"}}
	for i := 0; i < n; i++ {
		labels := make([]string, len(sp.Axes))
		for j := range labels {
			labels[j] = "v"
		}
		ev.Points = append(ev.Points, dse.PointResult{
			Point: dse.Point{Index: i, Label: fmt.Sprintf("pt-%02d", i), Labels: labels},
			Obj:   dse.Objectives{PenaltyPct: float64(i), EnergyUJ: 1, AreaMM2: 1},
		})
	}
	j := newJob("job-paged", jobSpec{Space: sp, Search: "exhaustive"})
	j.state = stateDone
	j.eval = ev
	e.srv.mu.Lock()
	e.srv.jobs[j.id] = j
	e.srv.mu.Unlock()
	return e, j.id
}

// TestResultPagination pins ?offset=/?limit= on the result endpoint:
// windows select the right rows, un-paginated output is unchanged, and
// a fetched page always says what it omitted.
func TestResultPagination(t *testing.T) {
	e, id := pagedEnv(t, 7)

	full, code := e.result(id, "csv")
	if code != http.StatusOK {
		t.Fatalf("full csv: status %d", code)
	}
	if got := strings.Count(full, "pt-"); got != 7 {
		t.Fatalf("full csv has %d point rows, want 7", got)
	}

	page, code := e.result(id, "csv&offset=2&limit=3")
	if code != http.StatusOK {
		t.Fatalf("paged csv: status %d", code)
	}
	for _, want := range []string{"pt-02", "pt-03", "pt-04"} {
		if !strings.Contains(page, want) {
			t.Errorf("page misses %s:\n%s", want, page)
		}
	}
	for _, not := range []string{"pt-01", "pt-05"} {
		if strings.Contains(page, not) {
			t.Errorf("page leaks %s outside [2,5):\n%s", not, page)
		}
	}

	// The table format carries the omission note.
	tbl, _ := e.result(id, "table&offset=0&limit=2")
	if !strings.Contains(tbl, "showing rows 1-2 of") {
		t.Errorf("paged table lacks the omission note:\n%s", tbl)
	}

	// Offset past the end: an empty page, not an error.
	empty, code := e.result(id, "csv&offset=100")
	if code != http.StatusOK || strings.Contains(empty, "pt-") {
		t.Errorf("past-the-end page: status %d, body %q", code, empty)
	}

	// JSON pages slice the points array and report the pre-window total.
	var doc resultDoc
	raw, code := e.result(id, "json&offset=5&limit=5")
	if code != http.StatusOK {
		t.Fatalf("paged json: status %d", code)
	}
	if err := json.Unmarshal([]byte(raw), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Total != 7 || doc.Offset != 5 || len(doc.Points) != 2 {
		t.Errorf("json page: total %d offset %d points %d, want 7/5/2", doc.Total, doc.Offset, len(doc.Points))
	}

	// Un-paginated JSON omits the pagination fields entirely.
	if raw, _ := e.result(id, "json"); strings.Contains(raw, `"total"`) || strings.Contains(raw, `"offset"`) {
		t.Errorf("un-paginated json grew pagination fields: %s", raw)
	}
}

// TestResultPaginationBounds pins the 400s: offset/limit must be
// non-negative integers.
func TestResultPaginationBounds(t *testing.T) {
	e, id := pagedEnv(t, 3)
	for _, q := range []string{"offset=-1", "limit=-3", "offset=abc", "limit=1.5", "offset=9999999999999999999999"} {
		if _, code := e.result(id, "csv&"+q); code != http.StatusBadRequest {
			t.Errorf("?%s: status %d, want 400", q, code)
		}
	}
	// Zero values are explicit no-ops, not errors.
	if _, code := e.result(id, "csv&offset=0&limit=0"); code != http.StatusOK {
		t.Errorf("?offset=0&limit=0: status %d, want 200", code)
	}
}
