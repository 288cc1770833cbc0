// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (plus the extension ablations). Each benchmark runs
// the corresponding experiment end to end — workload generation,
// compilation, warm-up, measured simulation — and reports the figure's
// headline number as a custom metric so `go test -bench=. -benchmem`
// regenerates the whole evaluation:
//
//	BenchmarkFig1DropIn        ... avg_penalty_pct
//	BenchmarkFig3VWB           ... avg_penalty_pct (VWB series)
//	...
//
// Absolute cycle counts are simulator-specific; the metrics to compare
// against the paper are the penalty percentages (see EXPERIMENTS.md).
package sttdl1_test

import (
	"runtime"
	"testing"

	"sttdl1/internal/dse"
	"sttdl1/internal/experiments"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
	"sttdl1/internal/stats"
	"sttdl1/internal/store"
	"sttdl1/internal/tech"
)

// benchSuite builds a fresh memoizing suite over the full benchmark set.
func benchSuite() *experiments.Suite { return experiments.NewSuite(polybench.All()) }

// lastAvg returns the AVERAGE column of the named series.
func lastAvg(f stats.Figure, label string) float64 {
	for _, s := range f.Series {
		if s.Label == label {
			return s.Values[len(s.Values)-1]
		}
	}
	return -1
}

// BenchmarkTableI regenerates Table I from the technology model.
func BenchmarkTableI(b *testing.B) {
	var readNs float64
	for i := 0; i < b.N; i++ {
		m, err := tech.Compute(tech.DefaultArray(tech.STT2T2MTJ))
		if err != nil {
			b.Fatal(err)
		}
		readNs = m.ReadNs
	}
	b.ReportMetric(readNs, "stt_read_ns")
	b.ReportMetric(tech.MustCompute(tech.DefaultArray(tech.SRAM6T)).ReadNs, "sram_read_ns")
}

// BenchmarkFig1DropIn reproduces Fig. 1: the drop-in STT-MRAM penalty.
func BenchmarkFig1DropIn(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		f, err := benchSuite().Fig1()
		if err != nil {
			b.Fatal(err)
		}
		avg = lastAvg(f, "Drop-in STT-MRAM D-cache")
	}
	b.ReportMetric(avg, "avg_penalty_pct")
}

// BenchmarkFig3VWB reproduces Fig. 3: drop-in vs VWB.
func BenchmarkFig3VWB(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		f, err := benchSuite().Fig3()
		if err != nil {
			b.Fatal(err)
		}
		avg = lastAvg(f, "NVM D-cache with VWB")
	}
	b.ReportMetric(avg, "vwb_avg_penalty_pct")
}

// BenchmarkFig4Breakdown reproduces Fig. 4: read vs write contribution.
func BenchmarkFig4Breakdown(b *testing.B) {
	var read float64
	for i := 0; i < b.N; i++ {
		f, err := benchSuite().Fig4()
		if err != nil {
			b.Fatal(err)
		}
		read = lastAvg(f, "Read penalty contribution")
	}
	b.ReportMetric(read, "read_share_pct")
}

// BenchmarkFig5Transforms reproduces Fig. 5: VWB with/without the code
// transformations.
func BenchmarkFig5Transforms(b *testing.B) {
	var opt float64
	for i := 0; i < b.N; i++ {
		f, err := benchSuite().Fig5()
		if err != nil {
			b.Fatal(err)
		}
		opt = lastAvg(f, "With Optimization")
	}
	b.ReportMetric(opt, "optimized_avg_penalty_pct")
}

// BenchmarkFig6Ablation reproduces Fig. 6: per-transformation shares.
func BenchmarkFig6Ablation(b *testing.B) {
	var vec float64
	for i := 0; i < b.N; i++ {
		f, err := benchSuite().Fig6()
		if err != nil {
			b.Fatal(err)
		}
		vec = lastAvg(f, "Vectorization")
	}
	b.ReportMetric(vec, "vectorization_share_pct")
}

// BenchmarkFig7VWBSize reproduces Fig. 7: the VWB size sweep.
func BenchmarkFig7VWBSize(b *testing.B) {
	var k1, k4 float64
	for i := 0; i < b.N; i++ {
		f, err := benchSuite().Fig7()
		if err != nil {
			b.Fatal(err)
		}
		k1 = lastAvg(f, "VWB = 1KBit")
		k4 = lastAvg(f, "VWB = 4KBit")
	}
	b.ReportMetric(k1, "vwb1k_avg_penalty_pct")
	b.ReportMetric(k4, "vwb4k_avg_penalty_pct")
}

// BenchmarkFig8Compare reproduces Fig. 8: proposal vs EMSHR vs L0.
func BenchmarkFig8Compare(b *testing.B) {
	var ours, emshr float64
	for i := 0; i < b.N; i++ {
		f, err := benchSuite().Fig8()
		if err != nil {
			b.Fatal(err)
		}
		ours = lastAvg(f, "Our Proposal")
		emshr = lastAvg(f, "EMSHR")
	}
	b.ReportMetric(ours, "proposal_avg_penalty_pct")
	b.ReportMetric(emshr, "emshr_avg_penalty_pct")
}

// BenchmarkFig9BaselineOpt reproduces Fig. 9: optimization gains on both
// systems.
func BenchmarkFig9BaselineOpt(b *testing.B) {
	var base, prop float64
	for i := 0; i < b.N; i++ {
		f, err := benchSuite().Fig9()
		if err != nil {
			b.Fatal(err)
		}
		base = lastAvg(f, "Baseline performance gain")
		prop = lastAvg(f, "NVM proposal performance gain")
	}
	b.ReportMetric(base, "baseline_gain_pct")
	b.ReportMetric(prop, "proposal_gain_pct")
}

// BenchmarkAblationBanks sweeps the NVM bank count (extension).
func BenchmarkAblationBanks(b *testing.B) {
	var oneBank float64
	for i := 0; i < b.N; i++ {
		f, err := benchSuite().AblationBanks()
		if err != nil {
			b.Fatal(err)
		}
		oneBank = lastAvg(f, "1 bank(s)")
	}
	b.ReportMetric(oneBank, "one_bank_avg_penalty_pct")
}

// BenchmarkAblationReadLat sweeps the STT read latency (extension).
func BenchmarkAblationReadLat(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		f, err := benchSuite().AblationReadLat()
		if err != nil {
			b.Fatal(err)
		}
		worst = lastAvg(f, "drop-in, read=6cy")
	}
	b.ReportMetric(worst, "dropin_6cy_avg_penalty_pct")
}

// suiteMatrixBenches is the workload for the serial-vs-parallel engine
// benchmarks: eight kernels at moderate sizes, enough work per config to
// make the fan-out visible but small enough for -bench iterations.
func suiteMatrixBenches() []polybench.Bench {
	names := []string{"gemm", "atax", "bicg", "mvt", "syrk", "trisolv", "2mm", "gesummv"}
	out := make([]polybench.Bench, 0, len(names))
	for _, n := range names {
		b, ok := polybench.ByName(n)
		if !ok {
			panic("unknown benchmark " + n)
		}
		if b.Default > 32 {
			b.Default = 32
		}
		out = append(out, b)
	}
	return out
}

// runSuiteMatrix executes the Fig. 3 matrix (3 configurations × 8
// kernels) on a fresh suite with the given worker count.
func runSuiteMatrix(b *testing.B, jobs int) {
	benches := suiteMatrixBenches()
	for i := 0; i < b.N; i++ {
		s := experiments.NewSuiteJobs(benches, jobs)
		if err := s.Prefetch(benches, sim.BaselineSRAM(), sim.DropInSTT(), sim.ProposalVWB()); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(jobs), "workers")
}

// BenchmarkSuiteSerial is the -j 1 reference point for the parallel run
// engine: the whole matrix through one worker.
func BenchmarkSuiteSerial(b *testing.B) { runSuiteMatrix(b, 1) }

// BenchmarkSuiteParallel fans the same matrix out over at least four
// workers (more when GOMAXPROCS allows); the ns/op ratio against
// BenchmarkSuiteSerial is the engine's speedup (the output itself is
// bit-identical, see TestFig3DeterministicUnderParallelism). On a
// single-core host the two converge — the interesting delta then is the
// engine's overhead, which should stay within noise.
func BenchmarkSuiteParallel(b *testing.B) {
	jobs := runtime.GOMAXPROCS(0)
	if jobs < 4 {
		jobs = 4
	}
	runSuiteMatrix(b, jobs)
}

// BenchmarkLiveVsReplay times the Fig. 3 matrix (3 configurations × 8
// kernels) on a fresh suite per iteration: each kernel's functional
// stream is captured once and only the timing model re-runs per
// configuration (DESIGN.md §7.4).
//
//	go test -bench LiveVsReplay -benchtime 3x
func BenchmarkLiveVsReplay(b *testing.B) {
	benches := suiteMatrixBenches()
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := experiments.NewSuiteJobs(benches, 8)
			if err := s.Prefetch(benches, sim.BaselineSRAM(), sim.DropInSTT(), sim.ProposalVWB()); err != nil {
				b.Fatal(err)
			}
			if _, err := s.Fig3(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDSEProposalSweep is the headline workload — the full
// 240-point proposal design space over the whole PolyBench suite,
// equivalent to `sttexplore dse -space proposal -j 8`. One iteration
// runs the entire sweep; use -benchtime 1x.
func BenchmarkDSEProposalSweep(b *testing.B) {
	sp, ok := dse.ByName("proposal")
	if !ok {
		b.Fatal("proposal space not registered")
	}
	b.Run("replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := experiments.NewSuiteJobs(polybench.All(), 8)
			ev, err := dse.Evaluate(s, polybench.All(), sp)
			if err != nil {
				b.Fatal(err)
			}
			if len(ev.Points) == 0 {
				b.Fatal("empty evaluation")
			}
		}
	})
}

// BenchmarkReplaySweep measures the replay engine itself on the smoke
// sweep, cold (no store — every point runs its timing pass, in warm
// groups). scripts/bench.sh records it in
// BENCH_sweep.json's "replay" section.
func BenchmarkReplaySweep(b *testing.B) {
	sp, ok := dse.ByName("smoke")
	if !ok {
		b.Fatal("smoke space not registered")
	}
	benches := suiteMatrixBenches()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := experiments.NewSuiteJobs(benches, 8)
			ev, err := dse.Evaluate(s, benches, sp)
			if err != nil {
				b.Fatal(err)
			}
			if len(ev.Points) == 0 {
				b.Fatal("empty evaluation")
			}
		}
	})
}

// BenchmarkStoreSweep measures the persistent evaluation store's two
// temperatures on the smoke sweep (DESIGN.md §7.7): "cold" simulates
// every point into a fresh store directory; "warm" serves the identical
// evaluation entirely from the store the cold pass populated, never
// running the timing model. The cold/warm ns/op ratio is the store's
// speedup, and the -benchmem numbers are what scripts/bench.sh records
// in BENCH_sweep.json.
func BenchmarkStoreSweep(b *testing.B) {
	sp, ok := dse.ByName("smoke")
	if !ok {
		b.Fatal("smoke space not registered")
	}
	benches := suiteMatrixBenches()
	sweep := func(b *testing.B, dir string) {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		s := experiments.NewSuiteJobs(benches, 8)
		s.SetStore(st)
		ev, err := dse.Evaluate(s, benches, sp)
		if err != nil {
			b.Fatal(err)
		}
		if len(ev.Points) == 0 {
			b.Fatal("empty evaluation")
		}
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sweep(b, b.TempDir())
		}
	})
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		sweep(b, dir) // populate once; every timed pass hits
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sweep(b, dir)
		}
	})
}

// BenchmarkSimulatorThroughput measures raw simulator speed: simulated
// instructions per second on the proposal configuration running gemm.
func BenchmarkSimulatorThroughput(b *testing.B) {
	gemm, _ := polybench.ByName("gemm")
	s := experiments.NewSuite([]polybench.Bench{gemm})
	b.ResetTimer()
	var insts uint64
	for i := 0; i < b.N; i++ {
		// A fresh suite each iteration defeats memoization on purpose.
		s = experiments.NewSuite([]polybench.Bench{gemm})
		f, err := s.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		_ = f
		insts += 2 * 900_000 // two configs, roughly
	}
	_ = insts
}
