package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// The quartiles follow Python's statistics.quantiles(xs, n=4), which
// extrapolates for tiny samples: [1..10] -> 2.75, 8.25, [1..5] -> 1.5,
// 4.5 and [1, 3] -> 0.5, 3.5.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); !near(m, 2.5) {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// A tail percentile is reported only with at least ten samples beyond
// it: p90 from 100 samples, p99 from 1000, p99.9 from 10000.
func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		name string
	}{
		{0, 0, false, ""}, {99, 0, false, ""}, {100, 90, true, "p90"},
		{999, 90, true, "p90"}, {1000, 99, true, "p99"}, {10000, 99.9, true, "p99.9"},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.p, c.ok)
		}
		if ok {
			if got := pctName(p); got != c.name {
				t.Errorf("pctName(%v) = %q, want %q", p, got, c.name)
			}
			// Exactly ten or more samples lie beyond the percentile.
			if beyond := c.n - rankOf(p, c.n); beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond p%v", c.n, beyond, p)
			}
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("percentile(1..100, 90) = %v, want 90", got)
	}
}

func series(base float64, n int, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + step*float64(i-n/2)
	}
	return out
}

func TestVerdicts(t *testing.T) {
	old := series(100, 10, 1) // median 100, tight
	for _, c := range []struct {
		name   string
		new    []float64
		bound  float64
		higher bool
		want   string
	}{
		{"slower beyond the bound", series(130, 10, 1), 0.2, false, "worse"},
		{"faster, every pair wins", series(80, 10, 1), 0.2, false, "better"},
		{"within the bound and the spread", series(101, 10, 1), 0.2, false, "same"},
		{"throughput down beyond the bound", series(70, 10, 1), 0.2, true, "worse"},
		{"throughput up", series(130, 10, 1), 0.2, true, "better"},
		{"wide spread, overlapping", series(98, 10, 8), 0.2, false, "unresolved"},
	} {
		if got := verdict(old, c.new, c.bound, c.higher); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
	if got := verdict(nil, old, 0.2, false); got != "unresolved" {
		t.Errorf("empty side: verdict = %s, want unresolved", got)
	}
}

func ms(d int) time.Duration { return time.Duration(d) * time.Millisecond }

// Self time subtracts the union of a span's children, so overlapping
// concurrent children count once and a child's overhang past its parent
// is clipped.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, name: "op", start: ms(0), end: ms(100)},
		{id: 2, parent: 1, name: "child", start: ms(10), end: ms(40)},
		{id: 3, parent: 1, name: "child", start: ms(30), end: ms(50)},
		{id: 4, parent: 1, name: "child", start: ms(90), end: ms(120)},
		{id: 5, parent: 2, name: "leaf", start: ms(15), end: ms(20)},
	}
	self := selfTimes(spans)
	if got := self["op"]; got.calls != 1 || got.selfNS != float64(ms(50)) {
		t.Errorf("op self = %+v, want 1 call, 50ms", got)
	}
	if got := self["child"]; got.calls != 3 || got.selfNS != float64(ms(30+20+30-5)) {
		t.Errorf("child self = %+v, want 3 calls, 75ms", got)
	}
	if got := self["leaf"]; got.selfNS != float64(ms(5)) {
		t.Errorf("leaf self = %+v, want 5ms", got)
	}
}

func TestLedgerArithmetic(t *testing.T) {
	l := ledger{
		items: []ledgerItem{{"a", 10, 1e6}, {"b", 1000, 5e3}, {"c", 0, 123}},
		opNS:  20e6, lanes: 2, traced: 22e6,
	}
	if got := l.explainedNS(); !near(got, 15e6) {
		t.Errorf("explained = %v, want 15e6", got)
	}
	if got := l.unexplainedPct(); !near(got, 62.5) {
		t.Errorf("unexplained = %v%%, want 62.5%%", got)
	}
	if got := l.overheadPct(); !near(got, 10) {
		t.Errorf("overhead = %v%%, want 10%%", got)
	}
	over := ledger{items: []ledgerItem{{"a", 1, 50e6}}, opNS: 20e6, lanes: 2}
	if got := over.unexplainedPct(); !near(got, -25) {
		t.Errorf("over-explained = %v%%, want -25%%", got)
	}
	out := l.render("w", "named remainder")
	if !strings.Contains(out, "unexplained 62.5% (named remainder)") {
		t.Errorf("render lacks the remainder line:\n%s", out)
	}
}
