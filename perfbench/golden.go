package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"

	"sttdl1/internal/dse"
	"sttdl1/internal/polybench"
)

// goldenJSON holds the SHA-256 of every shipped instance's rendered
// output, keyed "workload/instance": sweep-cold by read-latency label,
// serve-jobs by kernel (the seed only orders the jobs), sweep-warm by
// seed. Seeds without an entry are still checked against the cross-path
// identities and the run's own first op.
//
//go:embed golden.json
var goldenJSON []byte

var goldens = func() map[string]string {
	m := make(map[string]string)
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: golden.json: %v", err))
	}
	return m
}()

// goldenWarmSeeds is how many sweep-warm seeds (0..N-1) golden.json
// records.
const goldenWarmSeeds = 32

// goldenMain regenerates golden.json from the current sources:
//
//	perfbench golden > perfbench/golden.json
func goldenMain(w io.Writer) error {
	out := make(map[string]string)
	for _, label := range coldLabels {
		sp, err := coldSpace(label)
		if err != nil {
			return err
		}
		b, err := (&sweepOp{benches: polybench.All(), space: sp}).run(nil)
		if err != nil {
			return err
		}
		out["sweep-cold/"+label] = digest(b)
	}
	ref, err := serveReference(polybench.All(), nil)
	if err != nil {
		return err
	}
	for name, b := range ref.out {
		out["serve-jobs/"+name] = digest(b)
	}
	for s := int64(0); s < goldenWarmSeeds; s++ {
		benches, err := warmBenches(s)
		if err != nil {
			return err
		}
		b, err := (&sweepOp{benches: benches, space: dse.Smoke()}).run(nil)
		if err != nil {
			return err
		}
		out[fmt.Sprintf("sweep-warm/%d", s)] = digest(b)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
