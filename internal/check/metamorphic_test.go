// Metamorphic tests for the timing model, run under the internal/check
// oracle (external test package: experiments imports sim imports check).
// Rather than pinning cycle counts, they assert relations any credible
// timing model must satisfy: checking changes nothing, slower arrays are
// never faster, latency dilation dilates stalls, and parallel execution
// is invisible.
package check_test

import (
	"bytes"
	"reflect"
	"testing"

	"sttdl1/internal/experiments"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
)

// smallBenches shrinks every problem size so a matrix simulates in
// seconds (same contract as the experiments package's determinism test).
func smallBenches(t *testing.T) []polybench.Bench {
	t.Helper()
	benches := polybench.All()
	for i := range benches {
		if benches[i].Default > 20 {
			benches[i].Default = 20
		}
	}
	return benches
}

func mustBench(t *testing.T, name string) polybench.Bench {
	t.Helper()
	b, ok := polybench.ByName(name)
	if !ok {
		t.Fatalf("unknown benchmark %q", name)
	}
	return b
}

// TestFig3FullMatrixChecked runs the paper's central figure — every
// benchmark at full problem size on baseline / drop-in / VWB — with the
// oracle verifying every access of every run. This is the ISSUE's
// acceptance gate for the PR.
func TestFig3FullMatrixChecked(t *testing.T) {
	if testing.Short() {
		t.Skip("full problem sizes; skipped in -short")
	}
	s := experiments.NewSuite(nil).WithCheck(true)
	if _, err := s.Fig3(); err != nil {
		t.Fatalf("checked Fig. 3 matrix: %v", err)
	}
}

// TestCheckedRunsMatchUnchecked: the oracle is pass-through — wrapping
// every port must not move a single cycle or stat.
func TestCheckedRunsMatchUnchecked(t *testing.T) {
	for _, cfgName := range []string{"baseline", "dropin", "vwb"} {
		var cfg sim.Config
		switch cfgName {
		case "baseline":
			cfg = sim.BaselineSRAM()
		case "dropin":
			cfg = sim.DropInSTT()
		case "vwb":
			cfg = sim.ProposalVWB()
		}
		for _, bn := range []string{"atax", "gemver"} {
			b := mustBench(t, bn)
			b.Default = 20

			plain, err := sim.Run(b.Kernel(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ccfg := cfg
			ccfg.Check = true
			checked, err := sim.Run(b.Kernel(), ccfg)
			if err != nil {
				t.Fatalf("%s on %s under -check: %v", bn, cfgName, err)
			}
			if plain.CPU.Cycles != checked.CPU.Cycles {
				t.Errorf("%s on %s: %d cycles unchecked, %d checked; oracle must be pass-through",
					bn, cfgName, plain.CPU.Cycles, checked.CPU.Cycles)
			}
			if !reflect.DeepEqual(plain.DL1Stats, checked.DL1Stats) {
				t.Errorf("%s on %s: DL1 stats differ under -check", bn, cfgName)
			}
		}
	}
}

// TestReadLatencyMonotone: raising the DL1 read latency, all else equal,
// can never make a program finish earlier. The drop-in (direct
// front-end) configuration has no latency-dependent policy decisions, so
// the relation must hold exactly.
func TestReadLatencyMonotone(t *testing.T) {
	b := mustBench(t, "atax")
	b.Default = 20
	prev := int64(-1)
	for _, rl := range []int64{2, 4, 6, 8} {
		cfg := sim.DropInSTT()
		cfg.DL1ReadLat = rl
		cfg.Check = true
		r, err := sim.Run(b.Kernel(), cfg)
		if err != nil {
			t.Fatalf("ReadLat=%d: %v", rl, err)
		}
		if r.CPU.Cycles < prev {
			t.Errorf("ReadLat=%d finished in %d cycles, faster than ReadLat-2's %d", rl, r.CPU.Cycles, prev)
		}
		prev = r.CPU.Cycles
	}
}

// TestLatencyDilation: scaling both DL1 latencies by k must scale the
// memory-side stall cycles by roughly k — well above 1 (the stalls
// really dilate) and no more than k plus slack (nothing super-linear).
// Bounds are loose because overlap with compute and fixed-latency levels
// (L2, DRAM) damp the scaling.
func TestLatencyDilation(t *testing.T) {
	stalls := func(k int64, b polybench.Bench) int64 {
		cfg := sim.DropInSTT()
		cfg.DL1ReadLat, cfg.DL1WriteLat = 4*k, 2*k
		cfg.Check = true
		r, err := sim.Run(b.Kernel(), cfg)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		return r.CPU.ReadStallCycles + r.CPU.WriteStallCycles
	}
	for _, bn := range []string{"atax", "gemm", "trisolv", "gemver"} {
		b := mustBench(t, bn)
		b.Default = 20
		base := stalls(1, b)
		if base == 0 {
			t.Fatalf("%s: no memory stalls at k=1; kernel too small to measure dilation", bn)
		}
		for _, k := range []int64{2, 3} {
			ratio := float64(stalls(k, b)) / float64(base)
			lo := 1 + 0.45*float64(k-1)
			hi := 1.1 * float64(k)
			if ratio < lo || ratio > hi {
				t.Errorf("%s: stall dilation at k=%d is %.2f, want within [%.2f, %.2f]", bn, k, ratio, lo, hi)
			}
		}
	}
}

// TestFig3DeterministicUnderParallelismChecked: with the oracle on, the
// Fig. 3 matrix is still byte-identical between -j 1 and -j 8 — checking
// perturbs neither results nor scheduling.
func TestFig3DeterministicUnderParallelismChecked(t *testing.T) {
	benches := smallBenches(t)

	serial := experiments.NewSuiteJobs(benches, 1).WithCheck(true)
	parallel := experiments.NewSuiteJobs(benches, 8).WithCheck(true)

	f1, err := serial.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	f8, err := parallel.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(f1.Render()), []byte(f8.Render())) {
		t.Errorf("checked Fig. 3 differs between -j 1 and -j 8:\n--- j1 ---\n%s\n--- j8 ---\n%s",
			f1.Render(), f8.Render())
	}
	if !reflect.DeepEqual(f1.Series, f8.Series) {
		t.Error("checked Fig. 3 series differ between -j 1 and -j 8")
	}
}
