// Micro-benchmarks for the replay timing kernel (DESIGN.md §7.9): one
// configuration, one captured trace, timing passes only — the tightest
// possible loop over the replay kernel, for comparing its data ports
// without the sweep engine's scheduling and scoring around them.
// scripts/bench.sh records the sweep-level numbers; these are for
// profiling sessions, and scripts/check.sh runs each once.
package replay_test

import (
	"testing"

	"sttdl1/internal/compile"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
)

// benchReplay measures ReplayCompiled (warm-up pass + measured pass) of
// one benchmark under one configuration.
func benchReplay(b *testing.B, bench string, mk func() sim.Config) {
	pb, ok := polybench.ByName(bench)
	if !ok {
		b.Fatalf("unknown benchmark %s", bench)
	}
	cfg := mk()
	ck, err := compile.Compile(pb.Kernel(), sim.CompileOptions(cfg))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := sim.CaptureTrace(ck)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(tr.PCs)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys, err := sim.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sys.ReplayCompiled(ck, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayKernel runs the replay kernel on the two dominant data
// ports of the proposal sweep: vwb (the VWB proposal stack) and direct
// (a Direct front end over the DL1, the SRAM baseline). The bytes/s
// figure is trace records replayed per second (×2 passes for the
// warm-up).
func BenchmarkReplayKernel(b *testing.B) {
	b.Run("vwb", func(b *testing.B) { benchReplay(b, "gemver", sim.ProposalVWB) })
	b.Run("direct", func(b *testing.B) { benchReplay(b, "gemver", sim.BaselineSRAM) })
}
