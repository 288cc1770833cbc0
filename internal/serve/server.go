package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"sttdl1/internal/dse"
	"sttdl1/internal/experiments"
	"sttdl1/internal/store"
)

// MaxShardRetries bounds worker-reported evaluation failures per shard
// before the whole job fails (the simulator is deterministic, so a
// genuine evaluation error will not heal by retrying; the margin covers
// environmental flakes like a briefly full disk). Lease expiries and
// worker-side cancels do not consume retries — they are infrastructure
// churn, and the content-addressed store makes their requeues cheap.
const MaxShardRetries = 3

// Options configures a Server.
type Options struct {
	// Store is the shared persistent evaluation store — the only state
	// workers and the server coordinate results through. Required.
	Store *store.Store
	// Jobs bounds the stitch suites' simulation concurrency
	// (0 = GOMAXPROCS).
	Jobs int
	// Queue bounds the jobs in non-terminal states; submissions beyond
	// it are 429 (0 = 16).
	Queue int
	// LeaseTTL is the heartbeat deadline granted to each lease
	// (0 = 15s).
	LeaseTTL time.Duration
	// DefaultShards partitions exhaustive jobs that don't ask for a
	// shard count (0 = 1).
	DefaultShards int
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// Server is the sweep-service coordinator. It owns the job queue and
// lease table, and runs the stitch — final-frontier assembly — itself;
// all simulation happens in workers (local goroutines or external
// processes) that coordinate with it over HTTP and share only the
// persistent store.
type Server struct {
	opts Options
	mux  *http.ServeMux

	// stitchSuite is the long-lived stitch suite shared across jobs and
	// checking modes (Suite.WithCheck) — a resubmitted job's stitch is
	// served from the in-memory memo and the store without simulating
	// anything, which is where warm-job latency goes to near zero.
	stitchSuite *experiments.Suite

	mu        sync.Mutex
	jobs      map[string]*job
	order     []string // submission order; lease dispatch is FIFO across it
	leases    map[string]*lease
	draining  bool
	nextJob   int
	nextLease int
	// work is closed and replaced (like job.notify) whenever a held
	// lease request may now get an answer other than 204: a submitted
	// job, a requeued shard, or the start of a drain.
	work chan struct{}
	// waiting counts the lease requests currently held on work.
	waiting int
}

// lease is one worker's claim on one shard.
type lease struct {
	id       string
	job      *job
	shardIdx int
	worker   string
	deadline time.Time
	// sims is the latest heartbeat's cumulative count for this lease.
	sims int
}

// New builds a Server.
func New(opts Options) (*Server, error) {
	if opts.Store == nil {
		return nil, fmt.Errorf("serve: a persistent store is required (workers coordinate through it)")
	}
	if opts.Queue <= 0 {
		opts.Queue = 16
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 15 * time.Second
	}
	if opts.DefaultShards <= 0 {
		opts.DefaultShards = 1
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	s := &Server{
		opts:   opts,
		jobs:   make(map[string]*job),
		leases: make(map[string]*lease),
		work:   make(chan struct{}),
	}
	s.stitchSuite = experiments.NewSuiteJobs(nil, opts.Jobs)
	s.stitchSuite.SetStore(opts.Store)

	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /v1/healthz", s.handleHealth)
	mux.HandleFunc("POST /v1/lease", s.handleLease)
	mux.HandleFunc("POST /v1/leases/{id}/heartbeat", s.handleHeartbeat)
	mux.HandleFunc("POST /v1/leases/{id}/done", s.handleDone)
	mux.HandleFunc("POST /v1/leases/{id}/fail", s.handleFail)
	s.mux = mux
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Tick runs the lease-expiry scan (it also runs lazily on every
// coordination request; Tick exists for tests and idle servers).
func (s *Server) Tick() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(time.Now())
}

// expireLocked requeues the shards of every lease past its heartbeat
// deadline. The replacement worker re-plans the identical shard and
// resumes from whatever the store already holds.
func (s *Server) expireLocked(now time.Time) {
	for id, l := range s.leases {
		if now.Before(l.deadline) {
			continue
		}
		delete(s.leases, id)
		s.requeueLocked(l, "lease expired: heartbeat deadline passed")
	}
}

// requeueLocked returns an ended lease's shard to the queue (unless the
// job is already terminal — a canceled job's shards stay put).
func (s *Server) requeueLocked(l *lease, why string) {
	j := l.job
	sh := &j.shards[l.shardIdx]
	if sh.state != shardLeased || sh.lease != l.id || terminal(j.state) {
		return
	}
	sh.state = shardPending
	sh.lease = ""
	j.requeues++
	j.emit(Event{Type: "requeue", Shard: s.shardName(j, l.shardIdx), Worker: l.worker, Lease: l.id, Msg: why})
	s.opts.Logf("job %s: shard %d requeued (%s)", j.id, l.shardIdx, why)
	s.wakeLocked()
}

// wakeLocked wakes every held lease request to try again.
func (s *Server) wakeLocked() {
	close(s.work)
	s.work = make(chan struct{})
}

func (s *Server) shardName(j *job, idx int) string {
	return dse.Shard{Index: idx, Count: len(j.shards)}.String()
}

// activeLocked counts jobs in non-terminal states.
func (s *Server) activeLocked() int {
	n := 0
	for _, j := range s.jobs {
		if !terminal(j.state) {
			n++
		}
	}
	return n
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

type errorDoc struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorDoc{Error: fmt.Sprintf(format, args...)})
}

// decodeBody parses a bounded, strict JSON request body. A payload the
// schema doesn't know is a client bug, never a job.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Trailing garbage after the JSON value is malformed too.
	if dec.More() {
		return fmt.Errorf("request body holds more than one JSON value")
	}
	return nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := decodeBody(w, r, MaxJobBody, &req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "job body exceeds %d bytes", MaxJobBody)
			return
		}
		writeError(w, http.StatusBadRequest, "malformed job: %v", err)
		return
	}
	spec, err := resolve(req, s.opts.DefaultShards)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid job: %v", err)
		return
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.activeLocked() >= s.opts.Queue {
		writeError(w, http.StatusTooManyRequests, "job queue is full (%d active)", s.opts.Queue)
		return
	}
	s.nextJob++
	j := newJob("j"+strconv.Itoa(s.nextJob), spec)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	j.emit(Event{Type: "queued", Msg: fmt.Sprintf("space %s, %s, %d shard(s)", spec.Space.Name, spec.Search, spec.Shards)})
	s.opts.Logf("job %s: queued (space %s, %s, %d shard(s))", j.id, spec.Space.Name, spec.Search, spec.Shards)
	s.wakeLocked()
	writeJSON(w, http.StatusAccepted, s.statusLocked(j))
}

// statusLocked assembles a job's wire status.
func (s *Server) statusLocked(j *job) JobStatus {
	sims := j.doneSims
	for _, l := range s.leases {
		if l.job == j {
			sims += l.sims
		}
	}
	return JobStatus{
		ID:       j.id,
		State:    j.state,
		Space:    j.spec.Space.Name,
		Search:   j.spec.Search,
		Check:    j.spec.Check,
		Shards:   j.counts(),
		Sims:     sims,
		Requeues: j.requeues,
		Error:    j.errMsg,
	}
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(time.Now())
	out := make([]JobStatus, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.statusLocked(s.jobs[id]))
	}
	writeJSON(w, http.StatusOK, out)
}

// jobFor resolves the {id} path value, answering 404 itself on a miss.
func (s *Server) jobFor(w http.ResponseWriter, r *http.Request) *job {
	j := s.jobs[r.PathValue("id")]
	if j == nil {
		writeError(w, http.StatusNotFound, "no job %q", r.PathValue("id"))
	}
	return j
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.expireLocked(time.Now())
	if j := s.jobFor(w, r); j != nil {
		writeJSON(w, http.StatusOK, s.statusLocked(j))
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobFor(w, r)
	if j == nil {
		return
	}
	if !terminal(j.state) {
		j.state = stateCanceled
		j.cancel() // aborts an in-flight stitch promptly
		// Invalidate this job's leases: the next heartbeat answers 410
		// and the worker abandons the shard mid-evaluation.
		for id, l := range s.leases {
			if l.job == j {
				delete(s.leases, id)
			}
		}
		j.emit(Event{Type: "canceled"})
		s.opts.Logf("job %s: canceled", j.id)
	}
	writeJSON(w, http.StatusOK, s.statusLocked(j))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobFor(w, r)
	if j == nil {
		s.mu.Unlock()
		return
	}
	state := j.state
	s.mu.Unlock()
	if state != stateDone {
		writeError(w, http.StatusConflict, "job %s is %s, not done", j.id, state)
		return
	}
	offset, err := queryInt(r, "offset")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	limit, err := queryInt(r, "limit")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	// The result fields are immutable once the state is done.
	data, ctype, err := j.render(r.URL.Query().Get("format"), offset, limit)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(data)
}

// queryInt parses an optional non-negative integer query parameter
// (absent or empty means 0).
func queryInt(r *http.Request, name string) (int, error) {
	q := r.URL.Query().Get(name)
	if q == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(q)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("%s must be a non-negative integer, got %q", name, q)
	}
	return n, nil
}

// handleEvents streams a job's progress: one JSON object per line by
// default, or SSE ("data: {...}\n\n") when the client asks for
// text/event-stream. The stream replays from ?from=N (default 0) and
// ends after the terminal event.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	j := s.jobFor(w, r)
	s.mu.Unlock()
	if j == nil {
		return
	}
	from := 0
	if q := r.URL.Query().Get("from"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, "from must be a non-negative integer (got %q)", q)
			return
		}
		from = n
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		s.mu.Lock()
		evs := append([]Event(nil), j.events[min(from, len(j.events)):]...)
		done := terminal(j.state)
		notify := j.notify
		s.mu.Unlock()
		for _, ev := range evs {
			if sse {
				fmt.Fprint(w, "data: ")
			}
			if err := enc.Encode(ev); err != nil {
				return
			}
			if sse {
				fmt.Fprint(w, "\n")
			}
		}
		from += len(evs)
		if flusher != nil {
			flusher.Flush()
		}
		if done {
			return
		}
		select {
		case <-notify:
		case <-r.Context().Done():
			return
		}
	}
}

// Health is the body of GET /v1/healthz.
type Health struct {
	Status string `json:"status"` // ok|draining
	Jobs   struct {
		Active   int `json:"active"`
		Terminal int `json:"terminal"`
	} `json:"jobs"`
	Leases int `json:"leases"`
	// Waiting counts lease requests held open for lack of work.
	Waiting int `json:"waiting"`
	Store   struct {
		store.DirStats
		Line string `json:"line"`
	} `json:"store"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	// The store scan is filesystem-only; keep it outside the mutex.
	stats, err := s.opts.Store.Scan()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "store scan: %v", err)
		return
	}
	var h Health
	h.Store.DirStats = stats
	h.Store.Line = stats.String()
	s.mu.Lock()
	s.expireLocked(time.Now())
	h.Status = "ok"
	if s.draining {
		h.Status = "draining"
	}
	h.Jobs.Active = s.activeLocked()
	h.Jobs.Terminal = len(s.jobs) - h.Jobs.Active
	h.Leases = len(s.leases)
	h.Waiting = s.waiting
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, h)
}

// handleLease grants the first pending shard. With nothing pending, a
// request carrying wait_ms is held until a wake (submit, requeue,
// drain), min(wait_ms, LeaseTTL) or the client's disconnect, and tries
// again on every wake and once more at its deadline; without wait_ms it
// is answered 204 at once.
func (s *Server) handleLease(w http.ResponseWriter, r *http.Request) {
	var req LeaseRequest
	if err := decodeBody(w, r, 4096, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed lease request: %v", err)
		return
	}
	if req.WaitMS < 0 {
		writeError(w, http.StatusBadRequest, "wait_ms must be non-negative (got %d)", req.WaitMS)
		return
	}
	// The hold is capped at the lease TTL, in milliseconds first so a
	// huge wait_ms cannot overflow the Duration.
	hold := time.Duration(min(req.WaitMS, s.opts.LeaseTTL.Milliseconds()+1)) * time.Millisecond
	hold = min(hold, s.opts.LeaseTTL)
	s.mu.Lock()
	defer s.mu.Unlock()
	var deadline *time.Timer
	for last := hold == 0; ; {
		g, status := s.grantLocked(req.Worker)
		switch {
		case status == http.StatusServiceUnavailable:
			writeError(w, status, "server is draining")
			return
		case g != nil:
			writeJSON(w, status, g)
			return
		case last:
			w.WriteHeader(status)
			return
		}
		if deadline == nil {
			deadline = time.NewTimer(hold)
			defer deadline.Stop()
		}
		work := s.work
		s.waiting++
		s.mu.Unlock()
		select {
		case <-work:
		case <-deadline.C:
			last = true
		case <-r.Context().Done():
		}
		s.mu.Lock()
		s.waiting--
		if r.Context().Err() != nil {
			return // the client is gone; a grant now would only expire
		}
	}
}

// grantLocked runs the expiry scan, then leases out the first pending
// shard: 200 with the grant, 204 when nothing is pending, 503 while
// draining. Dispatch is FIFO across jobs in submission order and shards
// in index order, so the shard a grant names is fixed by the queue;
// which of several held workers wins a wake is up to the scheduler,
// and no served byte depends on it.
func (s *Server) grantLocked(worker string) (*LeaseGrant, int) {
	s.expireLocked(time.Now())
	if s.draining {
		return nil, http.StatusServiceUnavailable
	}
	for _, id := range s.order {
		j := s.jobs[id]
		if terminal(j.state) || j.state == stateStitching {
			continue
		}
		for i := range j.shards {
			if j.shards[i].state != shardPending {
				continue
			}
			s.nextLease++
			l := &lease{
				id:       "l" + strconv.Itoa(s.nextLease),
				job:      j,
				shardIdx: i,
				worker:   worker,
				deadline: time.Now().Add(s.opts.LeaseTTL),
			}
			s.leases[l.id] = l
			j.shards[i].state = shardLeased
			j.shards[i].lease = l.id
			if j.state == stateQueued {
				j.state = stateRunning
			}
			j.emit(Event{Type: "lease", Shard: s.shardName(j, i), Worker: worker, Lease: l.id})
			s.opts.Logf("job %s: shard %d leased to %s (%s)", j.id, i, worker, l.id)
			return &LeaseGrant{
				Lease:   l.id,
				Job:     j.id,
				Space:   j.spec.Space.Name,
				Axes:    j.spec.Axes,
				Benches: j.spec.BenchNames,
				Search:  j.spec.Search,
				Budget:  j.spec.Budget,
				Seed:    j.spec.Seed,
				Check:   j.spec.Check,
				Shard:   s.shardName(j, i),
				TTLMS:   s.opts.LeaseTTL.Milliseconds(),
			}, http.StatusOK
		}
	}
	return nil, http.StatusNoContent
}

// leaseFor resolves the {id} path value, answering 410 itself when the
// lease is unknown — expired, superseded or never granted. 410 (not
// 404) tells the worker its claim is gone for good.
func (s *Server) leaseFor(w http.ResponseWriter, r *http.Request) *lease {
	l := s.leases[r.PathValue("id")]
	if l == nil {
		writeError(w, http.StatusGone, "no lease %q (expired or completed)", r.PathValue("id"))
	}
	return l
}

func (s *Server) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var hb HeartbeatBody
	if err := decodeBody(w, r, 4096, &hb); err != nil {
		writeError(w, http.StatusBadRequest, "malformed heartbeat: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Deliberately no expiry scan here: a heartbeat (or completion)
	// arriving slightly past the deadline on a lease nobody has requeued
	// yet revives it — expiring a lease by its own keep-alive would
	// livelock a slow-but-alive worker. Shards are reclaimed only at
	// dispatch points (lease requests, status reads, Tick).
	l := s.leaseFor(w, r)
	if l == nil {
		return
	}
	if terminal(l.job.state) {
		// The job ended under the worker (failed on another shard's
		// retries, say); reclaim the lease so the worker abandons it.
		delete(s.leases, l.id)
		writeError(w, http.StatusGone, "job %s is %s", l.job.id, l.job.state)
		return
	}
	l.deadline = time.Now().Add(s.opts.LeaseTTL)
	l.sims = hb.Sims
	l.job.emit(Event{Type: "progress", Shard: s.shardName(l.job, l.shardIdx), Worker: l.worker, Lease: l.id, Sims: hb.Sims})
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleDone(w http.ResponseWriter, r *http.Request) {
	var body DoneBody
	if err := decodeBody(w, r, 4096, &body); err != nil {
		writeError(w, http.StatusBadRequest, "malformed completion: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// No expiry scan — see handleHeartbeat: a late completion on a
	// still-listed lease is a completion, not a crash.
	l := s.leases[r.PathValue("id")]
	if l == nil {
		// Duplicate or late completion: the worker's results are in the
		// store either way (byte-identical to any other worker's), so
		// this is success, not conflict — the idempotence that makes
		// crash-requeue safe.
		writeJSON(w, http.StatusOK, map[string]string{"status": "stale"})
		return
	}
	delete(s.leases, l.id)
	j := l.job
	sh := &j.shards[l.shardIdx]
	if sh.state == shardLeased && sh.lease == l.id && !terminal(j.state) {
		sh.state = shardDone
		sh.lease = ""
		j.doneSims += body.Sims
		j.emit(Event{Type: "shard-done", Shard: s.shardName(j, l.shardIdx), Worker: l.worker, Lease: l.id, Sims: body.Sims})
		s.opts.Logf("job %s: shard %d done (%d sims)", j.id, l.shardIdx, body.Sims)
		if j.counts().Done == len(j.shards) {
			j.state = stateStitching
			j.emit(Event{Type: "stitching"})
			go s.stitch(j)
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleFail(w http.ResponseWriter, r *http.Request) {
	var body FailBody
	if err := decodeBody(w, r, 1<<16, &body); err != nil {
		writeError(w, http.StatusBadRequest, "malformed failure report: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.leases[r.PathValue("id")]
	if l == nil {
		writeJSON(w, http.StatusOK, map[string]string{"status": "stale"})
		return
	}
	delete(s.leases, l.id)
	j := l.job
	if body.Canceled {
		s.requeueLocked(l, "worker shut down mid-shard")
	} else {
		sh := &j.shards[l.shardIdx]
		sh.retries++
		if sh.retries >= MaxShardRetries && !terminal(j.state) {
			j.state = stateFailed
			j.errMsg = fmt.Sprintf("shard %s failed %d time(s): %s", s.shardName(j, l.shardIdx), sh.retries, body.Error)
			j.cancel()
			j.emit(Event{Type: "failed", Shard: s.shardName(j, l.shardIdx), Msg: body.Error})
			s.opts.Logf("job %s: failed (%s)", j.id, j.errMsg)
		} else {
			s.requeueLocked(l, "worker reported: "+body.Error)
			j.emit(Event{Type: "shard-failed", Shard: s.shardName(j, l.shardIdx), Worker: l.worker, Lease: l.id, Msg: body.Error})
		}
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// stitch assembles a job's final result. For exhaustive jobs this is
// the same dse.Evaluate a single-process sweep runs — every simulation
// the workers published is a warm store hit, so the stitch only scores
// and ranks; for guided jobs it re-runs the seeded search, whose full
// evaluations the worker's identical trajectory already stored. Either
// way the output is byte-identical to `sttexplore dse` by the
// determinism contract.
func (s *Server) stitch(j *job) {
	eng := s.stitchSuite.WithCheck(j.spec.Check).WithContext(j.ctx)
	var err error
	var ev *dse.Evaluation
	var res *dse.SearchResult
	if j.spec.Search == "guided" {
		res, err = dse.Search(eng, j.spec.Benches, j.spec.Space, dse.SearchOptions{Budget: j.spec.Budget, Seed: j.spec.Seed})
	} else {
		ev, err = dse.Evaluate(eng, j.spec.Benches, j.spec.Space)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if terminal(j.state) {
		return // canceled (or failed) while stitching
	}
	if err != nil {
		if j.ctx.Err() != nil {
			j.state = stateCanceled
			j.emit(Event{Type: "canceled"})
		} else {
			j.state = stateFailed
			j.errMsg = err.Error()
			j.emit(Event{Type: "failed", Msg: err.Error()})
			s.opts.Logf("job %s: stitch failed: %v", j.id, err)
		}
		return
	}
	j.eval, j.search = ev, res
	j.state = stateDone
	j.emit(Event{Type: "done"})
	s.opts.Logf("job %s: done", j.id)
}

// Shutdown drains the server: new jobs and new leases are refused
// (503 — local workers take that as "exit"), outstanding leases may
// complete until ctx expires, then whatever is still leased is
// force-requeued and Shutdown returns. Requeued state dies with the
// process, but the shards' published results live in the store, so a
// resubmitted job on a fresh server resumes warm.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.wakeLocked() // held lease requests answer 503 now
	s.mu.Unlock()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		s.mu.Lock()
		s.expireLocked(time.Now())
		n := len(s.leases)
		s.mu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			s.mu.Lock()
			for id, l := range s.leases {
				delete(s.leases, id)
				s.requeueLocked(l, "server shutdown")
			}
			s.mu.Unlock()
			return ctx.Err()
		case <-tick.C:
		}
	}
}
