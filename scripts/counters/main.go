// Command counters prints results_counters.json, the raw-counter golden
// (every RunResult counter of the configurations
// experiments.Suite.CounterGolden lists, on every benchmark). Run it from
// the repository root:
//
//	go run ./scripts/counters | cmp - results_counters.json
//	go run ./scripts/counters > results_counters.json   # after an intended change
package main

import (
	"fmt"
	"os"

	"sttdl1/internal/experiments"
)

func main() {
	out, err := experiments.NewSuite(nil).CounterGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "counters:", err)
		os.Exit(1)
	}
	os.Stdout.Write(out)
}
