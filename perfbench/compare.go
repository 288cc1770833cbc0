package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// loadResults reads every result file in dir and groups metric values
// by workload, then metric.
func loadResults(dir string) (map[string]map[string][]float64, map[string]string, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, nil, err
	}
	if len(files) == 0 {
		return nil, nil, fmt.Errorf("no result files in %s", dir)
	}
	vals := make(map[string]map[string][]float64)
	units := make(map[string]string)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", f, err)
		}
		if vals[rf.Workload] == nil {
			vals[rf.Workload] = make(map[string][]float64)
		}
		for name, m := range rf.Metrics {
			vals[rf.Workload][name] = append(vals[rf.Workload][name], m.Value)
			units[name] = m.Unit
		}
	}
	return vals, units, nil
}

// compareMain prints, per (workload, metric), both sides' medians and
// quartiles and the verdict under the bounds in BENCHMARK.json:
//
//	perfbench compare OLD_DIR NEW_DIR
func compareMain(args []string, w io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: perfbench compare OLD_DIR NEW_DIR")
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return err
	}
	bound := make(map[string]float64)
	higher := make(map[string]bool)
	for _, m := range spec.EndToEnd {
		bound[m.Name], higher[m.Name] = m.Bound, m.Better == "higher"
	}
	for _, m := range spec.PerLayer {
		bound[m.Name], higher[m.Name] = math.NaN(), m.Better == "higher"
	}
	old, units, err := loadResults(args[0])
	if err != nil {
		return err
	}
	cur, _, err := loadResults(args[1])
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-14s %-32s %-8s %28s %28s %8s  %s\n", "workload", "metric", "unit", "old median [q1, q3] n", "new median [q1, q3] n", "Δ", "verdict")
	for _, wl := range sortedKeys(old) {
		names := sortedKeys(old[wl])
		sort.SliceStable(names, func(i, j int) bool {
			_, ei := bound[names[i]]
			_, ej := bound[names[j]]
			return ei && !ej
		})
		for _, name := range names {
			o, n := old[wl][name], cur[wl][name]
			if len(n) == 0 {
				continue
			}
			b, known := bound[name]
			v := "-" // a metric without a bound gets no verdict
			if known && !math.IsNaN(b) {
				v = verdict(o, n, b, higher[name])
			}
			fmt.Fprintf(w, "%-14s %-32s %-8s %28s %28s %7.1f%%  %s\n", wl, name, units[name],
				summary(o), summary(n), 100*safeDiv(median(n)-median(o), math.Abs(median(o))), v)
		}
	}
	return nil
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] %d", median(xs), q1, q3, len(xs))
}
