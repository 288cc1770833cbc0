package stats

import (
	"fmt"
	"sync"
	"time"
)

// RunEvent describes one completed task inside a (possibly parallel)
// experiment batch. The run engine emits exactly one event per task
// actually executed — memoized cache hits and deduplicated duplicate
// requests do not produce events. The JSON form is the wire format the
// sweep service's event stream carries (internal/serve); Wall marshals
// as integer nanoseconds.
type RunEvent struct {
	// Key is the engine's deduplication key for the run.
	Key string `json:"key"`
	// Label is a human-readable description ("gemm on stt-vwb").
	Label string `json:"label"`
	// Wall is the wall-clock time the task itself took to execute.
	Wall time.Duration `json:"wall_ns"`
	// Cached reports that the task was served from the persistent
	// evaluation store (internal/store) rather than simulated — the
	// timing model never ran.
	Cached bool `json:"cached,omitempty"`

	// Counter snapshot at the moment the event is emitted.
	Done     int `json:"done"`      // tasks completed so far, this one included
	InFlight int `json:"in_flight"` // tasks currently executing on a worker
	Queued   int `json:"queued"`    // tasks waiting for a free worker slot
}

// ProgressFunc observes RunEvents. The run engine delivers events one at
// a time (it holds its own lock while calling), so implementations need
// no synchronization of their own against other events — only against
// readers on other goroutines.
type ProgressFunc func(RunEvent)

// SearchEvent describes one completed generation of a guided
// design-space search (internal/dse.Search). The search engine emits
// exactly one event per generation, serially, after the generation's
// full-suite evaluations have landed.
type SearchEvent struct {
	// Generation is the 0-based generation number.
	Generation int `json:"generation"`
	// Candidates counts the new genomes proposed this generation.
	Candidates int `json:"candidates"`
	// Promoted counts the rung survivors promoted to the full suite.
	Promoted int `json:"promoted"`
	// Aborted counts this generation's full evaluations stopped early
	// because their partial objective vector was provably dominated.
	Aborted int `json:"aborted"`
	// FullEvals is the cumulative full-suite evaluation count — the
	// budget consumed so far, aborted evaluations included.
	FullEvals int `json:"full_evals"`
	// Budget is the search's full-suite evaluation budget.
	Budget int `json:"budget"`
	// Archive counts the completed evaluations retained so far.
	Archive int `json:"archive"`
	// Frontier counts the archive's current non-dominated points.
	Frontier int `json:"frontier"`
}

// SearchProgressFunc observes SearchEvents. Events arrive serially from
// the search loop, so implementations need no synchronization against
// other events.
type SearchProgressFunc func(SearchEvent)

// Counters aggregates RunEvents into the queue-depth and timing
// telemetry the CLI's summary line prints. Safe for concurrent use.
type Counters struct {
	mu          sync.Mutex
	runs        int
	cached      int
	wall        time.Duration
	maxInFlight int
	maxQueued   int
}

// Observe folds one event into the counters; pass it (or a wrapper) as a
// ProgressFunc.
func (c *Counters) Observe(ev RunEvent) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.runs++
	if ev.Cached {
		c.cached++
	}
	c.wall += ev.Wall
	if ev.InFlight > c.maxInFlight {
		c.maxInFlight = ev.InFlight
	}
	if ev.Queued > c.maxQueued {
		c.maxQueued = ev.Queued
	}
}

// Runs returns the number of tasks observed.
func (c *Counters) Runs() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runs
}

// BusyTime returns the summed wall time of all observed tasks — the
// serial-equivalent cost of the batch.
func (c *Counters) BusyTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.wall
}

// MaxInFlight returns the peak number of concurrently executing tasks.
func (c *Counters) MaxInFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxInFlight
}

// MaxQueued returns the peak number of tasks waiting for a worker.
func (c *Counters) MaxQueued() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxQueued
}

// Cached returns the number of observed tasks served from the
// persistent evaluation store.
func (c *Counters) Cached() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cached
}

// Summary renders the counters as one line, e.g.
// "96 sims, 12.1s simulated work (peak 8 running / 41 queued)"; when
// any task was served from the persistent store the cached share is
// named: "96 sims (90 from store), ...". A store-less run renders
// exactly as before.
func (c *Counters) Summary() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	sims := fmt.Sprintf("%d sims", c.runs)
	if c.cached > 0 {
		sims = fmt.Sprintf("%d sims (%d from store)", c.runs, c.cached)
	}
	return fmt.Sprintf("%s, %s simulated work (peak %d running / %d queued)",
		sims, c.wall.Round(time.Millisecond), c.maxInFlight, c.maxQueued)
}
