package main

import (
	"net/http"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"sttdl1/internal/compile"
	"sttdl1/internal/dse"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
)

// span is one timed call into a layer. Spans of one op share the op's
// root as ancestor; parent 0 means a root.
type span struct {
	id, parent int
	name       string
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory for the benchmark's traced runs. Safe for
// concurrent use. A nil *tracer records nothing, so untraced runs pass
// nil and pay one pointer test per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: len(t.spans) + 1, parent: parent, name: name, start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// layerTime is one layer's summed self time over its spans.
type layerTime struct {
	calls  int
	selfNS float64
}

// selfTimes sums each span name's self time: the span's duration minus
// the part of its interval its children cover (overlapping children
// count once).
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.name]
		lt.calls++
		lt.selfNS += float64(s.end-s.start) - float64(covered(s, children[s.id]))
		out[s.name] = lt
	}
	return out
}

// covered is the length of the union of kids' intervals clipped to p.
func covered(p span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.start, p.start), min(k.end, p.end)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// tracedEngine wraps the suite the dse layer drives, recording one span
// per call into the experiments layer under the op's span.
type tracedEngine struct {
	eng    dse.Engine
	t      *tracer
	parent int
}

func (e *tracedEngine) Run(b polybench.Bench, cfg sim.Config) (*sim.RunResult, error) {
	id := e.t.begin("experiments.Run", e.parent)
	defer e.t.end(id)
	return e.eng.Run(b, cfg)
}

func (e *tracedEngine) Prefetch(benches []polybench.Bench, cfgs ...sim.Config) error {
	id := e.t.begin("experiments.Prefetch", e.parent)
	defer e.t.end(id)
	return e.eng.Prefetch(benches, cfgs...)
}

func variantKey(b polybench.Bench, o compile.Options) string {
	var s strings.Builder
	s.WriteString(b.Name)
	for _, on := range []bool{o.Vectorize, o.Prefetch, o.Branchless, o.Align, o.Interchange} {
		if on {
			s.WriteString("+")
		} else {
			s.WriteString("-")
		}
	}
	s.WriteByte(byte('0' + o.PrefetchStreams))
	return s.String()
}

// handlerTimer times the sweep service's HTTP handlers by route and
// counts lease answers by status, across every service it wraps.
type handlerTimer struct {
	mu       sync.Mutex
	ms       map[string][]float64
	polls    int
	emptyPol int
}

func newHandlerTimer() *handlerTimer { return &handlerTimer{ms: make(map[string][]float64)} }

// statusWriter records the status code a handler answers with. It
// forwards Flush so streamed event responses still stream.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrap returns inner with every request timed.
func (h *handlerTimer) wrap(inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		route := routeOf(r)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		inner.ServeHTTP(sw, r)
		d := time.Since(start)
		h.mu.Lock()
		defer h.mu.Unlock()
		h.ms[route] = append(h.ms[route], float64(d)/1e6)
		if route == "lease" {
			h.polls++
			if sw.code == http.StatusNoContent {
				h.emptyPol++
			}
		}
	})
}

// routeOf names a request by the sweep-service route it hits.
func routeOf(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/v1/lease":
		return "lease"
	case strings.HasSuffix(p, "/heartbeat"):
		return "heartbeat"
	case strings.HasSuffix(p, "/done"):
		return "done"
	case strings.HasSuffix(p, "/fail"):
		return "fail"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasSuffix(p, "/result"):
		return "result"
	case strings.HasPrefix(p, "/v1/jobs"):
		return "jobs"
	}
	return "other"
}

// cpuClasses reads the Go runtime's cumulative GC and idle CPU time in
// ns (estimates the runtime refreshes at each collection).
func cpuClasses() (gcNS, idleNS float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/idle:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64() * 1e9, s[1].Value.Float64() * 1e9
}

// runtimeCost is the GC and idle CPU time spent during one op.
type runtimeCost struct{ gcNS, idleNS float64 }

// since returns the GC and idle CPU time spent since rc was taken.
func (rc runtimeCost) since() runtimeCost {
	gc, idle := cpuClasses()
	return runtimeCost{gc - rc.gcNS, idle - rc.idleNS}
}

func runtimeNow() runtimeCost {
	gc, idle := cpuClasses()
	return runtimeCost{gc, idle}
}
