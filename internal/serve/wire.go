// Package serve is sweep-as-a-service (DESIGN.md §7.8): an HTTP server
// that accepts design-space sweep jobs, partitions exhaustive jobs into
// deterministic shards (dse.Shard — enumeration index mod N), leases
// shards to workers over HTTP, and stitches the final frontier from the
// shared persistent evaluation store, byte-identical to a
// single-process `sttexplore dse` run.
//
// Failure tolerance rests entirely on determinism and content
// addressing: a lease carries a heartbeat deadline, an expired lease
// requeues its shard, the replacement worker re-plans the identical
// work list (dse.PlanShard), and everything its predecessor already
// published is a warm store hit — requeued work resumes instead of
// restarting, and duplicate completions publish byte-identical records
// (last-writer-wins is a no-op).
package serve

import (
	"fmt"
	"strings"

	"sttdl1/internal/dse"
	"sttdl1/internal/polybench"
)

// MaxJobBody bounds a job submission's body; anything larger is a 413
// before JSON decoding starts.
const MaxJobBody = 1 << 20

// JobRequest is the body of POST /v1/jobs. Unknown fields are rejected
// (a typo must not silently sweep a different space).
type JobRequest struct {
	// Space names a built-in design space (default "smoke").
	Space string `json:"space,omitempty"`
	// Axes optionally restricts named axes to subsets of their value
	// labels (dse.Restrict) — inline deltas without registering a space.
	Axes map[string][]string `json:"axes,omitempty"`
	// Benches selects a benchmark subset by name (empty = all), in the
	// order given — the same contract as `sttexplore dse -bench`.
	Benches []string `json:"benches,omitempty"`
	// Search is "exhaustive" (default) or "guided".
	Search string `json:"search,omitempty"`
	// Budget and Seed parameterize a guided search (defaults 64 and 1,
	// matching the CLI).
	Budget int   `json:"budget,omitempty"`
	Seed   int64 `json:"seed,omitempty"`
	// Shards partitions an exhaustive job into this many leases
	// (0 = server default), at most the space's unpruned size. Guided
	// search is sequential by nature and always runs as a single lease.
	Shards int `json:"shards,omitempty"`
	// Check runs every simulation under the timing-contract oracle.
	Check bool `json:"check,omitempty"`
}

// jobSpec is a validated, resolved JobRequest.
type jobSpec struct {
	Space      dse.Space
	Axes       map[string][]string
	Benches    []polybench.Bench // nil = all
	BenchNames []string
	Search     string
	Budget     int
	Seed       int64
	Shards     int
	Check      bool
}

// resolve validates a request against the space/benchmark registries
// and fills defaults. Every error here is a 4xx — the job is never
// enqueued.
func resolve(req JobRequest, defaultShards int) (jobSpec, error) {
	spec := jobSpec{
		Axes:       req.Axes,
		BenchNames: req.Benches,
		Search:     req.Search,
		Budget:     req.Budget,
		Seed:       req.Seed,
		Shards:     req.Shards,
		Check:      req.Check,
	}
	name := req.Space
	if name == "" {
		name = "smoke"
	}
	sp, ok := dse.ByName(name)
	if !ok {
		return jobSpec{}, fmt.Errorf("unknown design space %q; known: %s", name, strings.Join(dse.Names(), ", "))
	}
	sp, err := dse.Restrict(sp, req.Axes)
	if err != nil {
		return jobSpec{}, err
	}
	spec.Space = sp
	for _, bn := range req.Benches {
		b, ok := polybench.ByName(bn)
		if !ok {
			return jobSpec{}, fmt.Errorf("unknown benchmark %q; known: %s", bn, strings.Join(polybench.Names(), ", "))
		}
		spec.Benches = append(spec.Benches, b)
	}
	switch spec.Search {
	case "":
		spec.Search = "exhaustive"
	case "exhaustive", "guided":
	default:
		return jobSpec{}, fmt.Errorf("search must be exhaustive or guided (got %q)", spec.Search)
	}
	if spec.Budget == 0 {
		spec.Budget = 64
	}
	if spec.Budget < 0 {
		return jobSpec{}, fmt.Errorf("budget must be positive (got %d)", spec.Budget)
	}
	if spec.Seed == 0 {
		spec.Seed = 1
	}
	if spec.Shards == 0 {
		// A server-wide default never splits a small space into more
		// shards than the bound below allows.
		spec.Shards = min(defaultShards, sp.Size())
	}
	if spec.Shards < 1 {
		return jobSpec{}, fmt.Errorf("shards must be >= 1 (got %d)", spec.Shards)
	}
	if spec.Search == "guided" {
		// Sequential by nature; the single lease warms the store for the
		// stitch rather than partitioning anything.
		spec.Shards = 1
	}
	// A job allocates one lease slot per shard, so the count is bounded
	// before anything is allocated. The unpruned cross-product size
	// bounds it without enumerating the space.
	if n := sp.Size(); spec.Shards > n {
		return jobSpec{}, fmt.Errorf("shards must be at most the space's unpruned size %d (got %d)", n, spec.Shards)
	}
	return spec, nil
}

// JobStatus is the wire form of one job (GET /v1/jobs, GET
// /v1/jobs/{id}).
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"` // queued|running|stitching|done|failed|canceled
	Space string `json:"space"`
	// Search echoes the resolved strategy; Check the oracle flag.
	Search string      `json:"search"`
	Check  bool        `json:"check,omitempty"`
	Shards ShardCounts `json:"shards"`
	// Sims is the simulations workers have reported so far (heartbeats
	// plus completed shards) — progress accounting, not a result.
	Sims int `json:"sims,omitempty"`
	// Requeues counts shards returned to the queue by lease expiry or
	// canceled workers.
	Requeues int    `json:"requeues,omitempty"`
	Error    string `json:"error,omitempty"`
}

// ShardCounts breaks a job's shards down by state.
type ShardCounts struct {
	Total   int `json:"total"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
}

// Event is one line of a job's progress stream (GET
// /v1/jobs/{id}/events). Seq is dense from 0, so a consumer can resume
// with ?from=N after a dropped connection.
type Event struct {
	Seq    int    `json:"seq"`
	Type   string `json:"type"` // queued|lease|progress|requeue|shard-done|shard-failed|stitching|done|failed|canceled
	Job    string `json:"job"`
	Shard  string `json:"shard,omitempty"`
	Worker string `json:"worker,omitempty"`
	Lease  string `json:"lease,omitempty"`
	Sims   int    `json:"sims,omitempty"`
	Msg    string `json:"msg,omitempty"`
}

// LeaseRequest is the body of POST /v1/lease.
type LeaseRequest struct {
	Worker string `json:"worker,omitempty"`
	// WaitMS asks the server to hold the request up to this long
	// (capped at the lease TTL) when no shard is pending, answering as
	// soon as one is; 0 answers 204 at once.
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// LeaseGrant is everything a worker needs to execute one shard: the
// job's resolved parameters (the worker re-resolves space and benches
// against the same registries — both sides are one binary) plus the
// lease identity and its heartbeat TTL.
type LeaseGrant struct {
	Lease   string              `json:"lease"`
	Job     string              `json:"job"`
	Space   string              `json:"space"`
	Axes    map[string][]string `json:"axes,omitempty"`
	Benches []string            `json:"benches,omitempty"`
	Search  string              `json:"search"`
	Budget  int                 `json:"budget,omitempty"`
	Seed    int64               `json:"seed,omitempty"`
	Check   bool                `json:"check,omitempty"`
	// Shard is "i/n" (dse.ParseShard).
	Shard string `json:"shard"`
	// TTLMS is the heartbeat deadline: a worker that stays silent this
	// long loses the lease and the shard requeues.
	TTLMS int64 `json:"ttl_ms"`
}

// HeartbeatBody extends a lease (POST /v1/leases/{id}/heartbeat).
type HeartbeatBody struct {
	// Sims is the worker's cumulative simulation count for this lease.
	Sims int `json:"sims"`
}

// FailBody reports a shard failure (POST /v1/leases/{id}/fail).
type FailBody struct {
	Error string `json:"error,omitempty"`
	// Canceled marks a worker-side shutdown rather than an evaluation
	// error: the shard requeues without consuming a retry.
	Canceled bool `json:"canceled,omitempty"`
}

// DoneBody completes a lease (POST /v1/leases/{id}/done).
type DoneBody struct {
	Sims int `json:"sims,omitempty"`
}
