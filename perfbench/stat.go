package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value (the mean of the two middle values for an
// even count); NaN for no values.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the rule Python's
// statistics.quantiles(xs, n=4) uses (method "exclusive"), so spreads
// printed here match the ones computed from the same values elsewhere.
// One value is its own quartiles.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rankOf(p, len(s))-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// values; the small tolerance keeps p/100·n from rounding up past an
// exact rank (0.999 × 10000 is not exactly 9990 in floating point).
func rankOf(p float64, n int) int {
	return max(int(math.Ceil(p/100*float64(n)-1e-9)), 1)
}

// tailPercentile is the highest of p90, p99 and p99.9 that leaves at
// least ten samples beyond it among n, so a reported tail never rests on
// a handful of values; ok is false below 100 samples.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range []struct {
		p   float64
		min int
	}{{99.9, 10000}, {99, 1000}, {90, 100}} {
		if n >= c.min {
			return c.p, true
		}
	}
	return 0, false
}

// pctName renders a percentile as a metric suffix: 90 -> "p90",
// 99.9 -> "p99.9".
func pctName(p float64) string {
	return "p" + strings.TrimSuffix(strings.TrimRight(fmt.Sprintf("%.1f", p), "0"), ".")
}

// verdict compares a metric's values from two sets of runs (old = the
// parent, new = the change) under the benchmark's bound for it:
//
//   - "worse": the new median is worse than the old one by more than
//     bound (a share of the old median);
//   - "better": the new median is better by more than the old runs'
//     quartile spread, and the new side wins at least nine tenths of all
//     old×new pairs (ties count for neither);
//   - "unresolved": either side's quartile spread exceeds the bound and
//     not every new run beats every old run;
//   - "same": none of the above.
//
// higher says whether larger values are better.
func verdict(old, new []float64, bound float64, higher bool) string {
	if len(old) == 0 || len(new) == 0 {
		return "unresolved"
	}
	mo, mn := median(old), median(new)
	// gain is the improvement of b over a in the metric's good direction.
	gain := func(a, b float64) float64 {
		if higher {
			return b - a
		}
		return a - b
	}
	if -gain(mo, mn) > bound*math.Abs(mo) {
		return "worse"
	}
	wins, pairs := 0, 0
	allBetter := true
	for _, o := range old {
		for _, n := range new {
			pairs++
			if g := gain(o, n); g > 0 {
				wins++
			} else {
				allBetter = false
			}
		}
	}
	q1, q3 := quartiles(old)
	if gain(mo, mn) > q3-q1 && wins*10 >= pairs*9 {
		return "better"
	}
	if (spread(old) > bound || spread(new) > bound) && !allBetter {
		return "unresolved"
	}
	return "same"
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || math.IsNaN(m) {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

// ledgerItem is one line of a workload's time ledger: calls × unit cost
// of one layer, in nanoseconds.
type ledgerItem struct {
	layer  string
	calls  float64
	unitNS float64
}

func (it ledgerItem) totalNS() float64 { return it.calls * it.unitNS }

// ledger reconciles layer self times against one op's untraced wall
// time. The budget is wall × lanes: the CPU time the op's lanes (suite
// jobs, or 1 for a single blocking chain) had available.
type ledger struct {
	items  []ledgerItem
	opNS   float64
	lanes  int
	traced float64 // traced op wall time, ns (0 = unknown)
}

func (l ledger) explainedNS() float64 {
	var t float64
	for _, it := range l.items {
		t += it.totalNS()
	}
	return t
}

func (l ledger) budgetNS() float64 { return l.opNS * float64(l.lanes) }

// unexplainedPct is the share of the budget no layer accounts for; it
// is negative when the layers add up to more than the budget.
func (l ledger) unexplainedPct() float64 {
	if l.budgetNS() == 0 {
		return 0
	}
	return 100 * (1 - l.explainedNS()/l.budgetNS())
}

// overheadPct is the traced op time's excess over the untraced one.
func (l ledger) overheadPct() float64 {
	if l.opNS == 0 || l.traced == 0 {
		return 0
	}
	return 100 * (l.traced - l.opNS) / l.opNS
}

// render prints the ledger: one line per layer, then the total against
// the budget and the named remainder.
func (l ledger) render(workload, remainder string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "ledger %s: op %.1f ms × %d lane(s) = %.1f ms budget\n",
		workload, l.opNS/1e6, l.lanes, l.budgetNS()/1e6)
	for _, it := range l.items {
		share := 0.0
		if l.budgetNS() > 0 {
			share = 100 * it.totalNS() / l.budgetNS()
		}
		fmt.Fprintf(&b, "  %-22s %12.0f calls × %12.1f ns = %10.1f ms  %5.1f%%\n",
			it.layer, it.calls, it.unitNS, it.totalNS()/1e6, share)
	}
	fmt.Fprintf(&b, "  Σ layers %.1f ms; unexplained %.1f%% (%s); tracing overhead %.1f%%\n",
		l.explainedNS()/1e6, l.unexplainedPct(), remainder, l.overheadPct())
	return b.String()
}
