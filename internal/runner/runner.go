// Package runner is the experiment suite's parallel run engine: a
// bounded worker pool over keyed, memoized tasks with singleflight-style
// deduplication. Two callers requesting the same key — concurrently or
// in sequence — share one underlying execution and receive the identical
// result value; distinct keys fan out across up to Workers() goroutines.
//
// The engine is built for deterministic simulation workloads: results
// are addressed by key (never by completion order), successful results
// are memoized forever, and batch helpers return results in submission
// order, so the rendered output of a batch is bit-identical at any
// worker count. Failures are not memoized — a later caller retries —
// and the first real error of a batch cancels its remaining queued work.
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"sttdl1/internal/stats"
)

// Pool is a bounded-concurrency, memoizing, deduplicating task runner.
// The zero value is not usable; construct with New.
type Pool[K comparable, V any] struct {
	workers int
	sem     chan struct{} // counting semaphore bounding executions

	mu       sync.Mutex
	calls    map[K]*call[V]
	done     int // executed tasks completed (not dedup/memo hits)
	queued   int // leaders waiting for a worker slot
	inflight int // leaders currently executing

	progress stats.ProgressFunc
}

// call is one in-flight or completed execution.
type call[V any] struct {
	ready chan struct{} // closed when val/err are final
	val   V
	err   error
	// cached marks the execution as served from an external cache tier
	// (NoteCached); the completion event carries the flag.
	cached bool
}

// New builds a pool executing at most workers tasks concurrently;
// workers <= 0 means runtime.GOMAXPROCS(0).
func New[K comparable, V any](workers int) *Pool[K, V] {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool[K, V]{
		workers: workers,
		sem:     make(chan struct{}, workers),
		calls:   make(map[K]*call[V]),
	}
}

// Workers returns the pool's concurrency bound.
func (p *Pool[K, V]) Workers() int { return p.workers }

// SetProgress installs an observer for completed executions. Set it
// before submitting work; it must not be changed while tasks run.
func (p *Pool[K, V]) SetProgress(fn stats.ProgressFunc) { p.progress = fn }

// Done returns how many tasks have actually executed to completion
// (deduplicated and memoized requests are not counted).
func (p *Pool[K, V]) Done() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done
}

// NoteCached marks the in-flight execution for key as served from an
// external cache tier (e.g. the persistent evaluation store), so its
// completion event reports Cached and progress output can distinguish
// real simulation work from store reads. Call it from inside the task's
// own fn — the flag is published with the task's completion, and a task
// whose fn has already returned is no longer addressable.
func (p *Pool[K, V]) NoteCached(key K) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c, ok := p.calls[key]; ok {
		c.cached = true
	}
}

// Peek reports key's memo state without computing anything: done is
// true (and v valid) when a successful execution is memoized, inflight
// is true while a leader is still computing it. A key whose execution
// failed reads as absent (failures are never memoized).
func (p *Pool[K, V]) Peek(key K) (v V, done, inflight bool) {
	p.mu.Lock()
	c, ok := p.calls[key]
	p.mu.Unlock()
	if !ok {
		var zero V
		return zero, false, false
	}
	select {
	case <-c.ready:
		// Completed entries only survive in the map on success.
		return c.val, true, false
	default:
		var zero V
		return zero, false, true
	}
}

// Publish memoizes a result computed outside the pool's task machinery
// (e.g. one member of a warm group whose batch ran under a single
// task's worker slot). It counts as one executed task — done advances
// and a progress event fires, so engine accounting sees exactly one
// completion per unique simulation regardless of batching. If the key
// is already in flight or memoized the call is a no-op returning false:
// the concurrent execution's value wins (the determinism contract makes
// the two values identical, so which one lands is unobservable).
func (p *Pool[K, V]) Publish(key K, label string, v V, cached bool) bool {
	c := &call[V]{ready: make(chan struct{}), val: v, cached: cached}
	close(c.ready)
	p.mu.Lock()
	if _, ok := p.calls[key]; ok {
		p.mu.Unlock()
		return false
	}
	p.calls[key] = c
	p.done++
	if p.progress != nil {
		p.progress(stats.RunEvent{
			Key:      fmt.Sprint(key),
			Label:    label,
			Cached:   cached,
			Done:     p.done,
			InFlight: p.inflight,
			Queued:   p.queued,
		})
	}
	p.mu.Unlock()
	return true
}

// Do returns the result for key, computing it with fn at most once
// across all concurrent and future callers. If another caller is already
// computing key, Do waits for that execution and returns its exact
// result value. Successful results are memoized for the life of the
// pool; errors are returned to every waiter but then forgotten, so a
// later caller retries. A caller whose ctx is canceled while waiting
// gets ctx.Err() without disturbing the shared execution.
func (p *Pool[K, V]) Do(ctx context.Context, key K, fn func(context.Context) (V, error)) (V, error) {
	return p.DoLabeled(ctx, key, fmt.Sprint(key), fn)
}

// DoLabeled is Do with an explicit human-readable label for progress
// events.
func (p *Pool[K, V]) DoLabeled(ctx context.Context, key K, label string, fn func(context.Context) (V, error)) (V, error) {
	var zero V
	p.mu.Lock()
	if c, ok := p.calls[key]; ok {
		p.mu.Unlock()
		select {
		case <-c.ready:
			return c.val, c.err
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
	c := &call[V]{ready: make(chan struct{})}
	p.calls[key] = c
	p.queued++
	p.mu.Unlock()

	// Leader path: wait for a worker slot, run, publish. The extra
	// ctx.Err() check matters because select chooses randomly when both
	// a free slot and a canceled context are ready.
	select {
	case p.sem <- struct{}{}:
		if err := ctx.Err(); err != nil {
			<-p.sem
			p.finish(key, c, zero, err, label, 0, false)
			return zero, err
		}
	case <-ctx.Done():
		p.finish(key, c, zero, ctx.Err(), label, 0, false)
		return zero, ctx.Err()
	}
	p.mu.Lock()
	p.queued--
	p.inflight++
	p.mu.Unlock()

	start := time.Now()
	v, err := fn(ctx)
	wall := time.Since(start)
	<-p.sem

	p.finish(key, c, v, err, label, wall, true)
	return v, err
}

// finish publishes the outcome of a leader's execution. ran reports
// whether fn actually executed (false when the leader was canceled while
// still queued).
func (p *Pool[K, V]) finish(key K, c *call[V], v V, err error, label string, wall time.Duration, ran bool) {
	p.mu.Lock()
	if ran {
		p.inflight--
	} else {
		p.queued--
	}
	c.val, c.err = v, err
	if err != nil {
		// Never memoize failures: forget the call so a future caller
		// with a live context can retry.
		delete(p.calls, key)
	} else {
		p.done++
		if p.progress != nil {
			p.progress(stats.RunEvent{
				Key:      fmt.Sprint(key),
				Label:    label,
				Wall:     wall,
				Cached:   c.cached,
				Done:     p.done,
				InFlight: p.inflight,
				Queued:   p.queued,
			})
		}
	}
	p.mu.Unlock()
	close(c.ready)
}

// Task pairs a deduplication key with the work that computes it.
type Task[K comparable, V any] struct {
	Key   K
	Label string
	Run   func(context.Context) (V, error)
}

// Run executes tasks concurrently over the pool and returns their
// results in task order (never completion order), which keeps batch
// output deterministic at any worker count. The first error — scanning
// in task order, preferring real failures over cancellations — is
// returned after every started task has settled; it cancels the batch's
// remaining queued work.
func (p *Pool[K, V]) Run(ctx context.Context, tasks []Task[K, V]) ([]V, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	out := make([]V, len(tasks))
	errs := make([]error, len(tasks))
	var wg sync.WaitGroup
	for i, t := range tasks {
		wg.Add(1)
		go func(i int, t Task[K, V]) {
			defer wg.Done()
			label := t.Label
			if label == "" {
				label = fmt.Sprint(t.Key)
			}
			v, err := p.DoLabeled(ctx, t.Key, label, t.Run)
			out[i], errs[i] = v, err
			if err != nil {
				cancel()
			}
		}(i, t)
	}
	wg.Wait()

	if err := firstError(errs); err != nil {
		return nil, err
	}
	return out, nil
}

// firstError picks the batch's reportable error deterministically: the
// first non-cancellation error in task order, else the first
// cancellation, else nil.
func firstError(errs []error) error {
	var canceled error
	for _, err := range errs {
		if err == nil {
			continue
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			if canceled == nil {
				canceled = err
			}
			continue
		}
		return err
	}
	return canceled
}
