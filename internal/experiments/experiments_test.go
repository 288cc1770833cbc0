package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sttdl1/internal/compile"
	"sttdl1/internal/cpu"
	"sttdl1/internal/dse"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
	"sttdl1/internal/stats"
)

// fastSuite runs two small kernels so every figure exercises cheaply.
func fastSuite(t *testing.T) *Suite {
	t.Helper()
	gemm, _ := polybench.ByName("gemm")
	atax, _ := polybench.ByName("atax")
	gemm.Default = 16
	atax.Default = 40
	return NewSuite([]polybench.Bench{gemm, atax})
}

func TestTableIMatchesPaper(t *testing.T) {
	tb, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	for _, want := range []string{"0.787ns", "3.37ns", "1.86ns", "28.35mW", "146F2", "42F2", "2way"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestCellLibraryTable(t *testing.T) {
	tb, err := CellLibrary()
	if err != nil {
		t.Fatal(err)
	}
	out := tb.Render()
	for _, want := range []string{"SRAM-6T", "STT-2T2MTJ", "PRAM", "ReRAM"} {
		if !strings.Contains(out, want) {
			t.Errorf("cell library missing %q", want)
		}
	}
}

func seriesByLabel(t *testing.T, f stats.Figure, label string) []float64 {
	t.Helper()
	for _, s := range f.Series {
		if s.Label == label {
			return s.Values
		}
	}
	t.Fatalf("series %q not found in %s", label, f.ID)
	return nil
}

func TestFig1DropInPenaltyPositive(t *testing.T) {
	s := fastSuite(t)
	f, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	vals := f.Series[0].Values
	if len(vals) != 3 { // 2 benches + AVERAGE
		t.Fatalf("values = %v", vals)
	}
	for i, v := range vals {
		if v < 5 {
			t.Errorf("drop-in penalty[%d] = %.1f%%, expected substantial", i, v)
		}
	}
}

func TestFig3VWBBeatsDropIn(t *testing.T) {
	s := fastSuite(t)
	f, err := s.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	drop := seriesByLabel(t, f, "Drop-in NVM D-cache")
	vwb := seriesByLabel(t, f, "NVM D-cache with VWB")
	for i := range drop {
		if vwb[i] >= drop[i] {
			t.Errorf("bench %s: VWB %.1f >= drop-in %.1f", f.Benches[i], vwb[i], drop[i])
		}
	}
}

func TestFig4ReadDominates(t *testing.T) {
	s := fastSuite(t)
	f, err := s.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	reads := seriesByLabel(t, f, "Read penalty contribution")
	writes := seriesByLabel(t, f, "Write penalty contribution")
	for i := range reads {
		if reads[i] < writes[i] {
			t.Errorf("bench %s: read %.1f < write %.1f — the paper's central claim fails",
				f.Benches[i], reads[i], writes[i])
		}
	}
}

func TestFig7MonotoneAverage(t *testing.T) {
	s := fastSuite(t)
	f, err := s.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	avgIdx := len(f.Benches) - 1
	k1 := seriesByLabel(t, f, "VWB = 1KBit")[avgIdx]
	k2 := seriesByLabel(t, f, "VWB = 2KBit")[avgIdx]
	k4 := seriesByLabel(t, f, "VWB = 4KBit")[avgIdx]
	if !(k1 > k2 && k2 >= k4-0.5) {
		t.Errorf("VWB size sweep not monotone: %.1f / %.1f / %.1f", k1, k2, k4)
	}
}

func TestFig8ProposalWins(t *testing.T) {
	s := fastSuite(t)
	f, err := s.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	avgIdx := len(f.Benches) - 1
	ours := seriesByLabel(t, f, "Our Proposal")[avgIdx]
	emshr := seriesByLabel(t, f, "EMSHR")[avgIdx]
	l0 := seriesByLabel(t, f, "L0-Cache")[avgIdx]
	if ours >= emshr || ours >= l0 {
		t.Errorf("proposal (%.1f) must beat EMSHR (%.1f) and L0 (%.1f) on average", ours, emshr, l0)
	}
}

func TestFig9BothGain(t *testing.T) {
	s := fastSuite(t)
	f, err := s.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	base := seriesByLabel(t, f, "Baseline performance gain")
	prop := seriesByLabel(t, f, "NVM proposal performance gain")
	for i := range base {
		if base[i] <= 0 || prop[i] <= 0 {
			t.Errorf("bench %s: gains %.1f / %.1f must both be positive", f.Benches[i], base[i], prop[i])
		}
	}
}

func TestFig5And6Run(t *testing.T) {
	s := fastSuite(t)
	if _, err := s.Fig5(); err != nil {
		t.Fatal(err)
	}
	f6, err := s.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	// Shares stay within [0, 100].
	for _, ser := range f6.Series {
		for i, v := range ser.Values {
			if v < 0 || v > 100.0001 {
				t.Errorf("%s share[%d] = %v out of range", ser.Label, i, v)
			}
		}
	}
}

func TestSuiteMemoization(t *testing.T) {
	s := fastSuite(t)
	var c stats.Counters
	s.SetProgress(c.Observe)
	if _, err := s.Fig1(); err != nil {
		t.Fatal(err)
	}
	afterFig1 := c.Runs()
	if afterFig1 != s.SimsRun() {
		t.Errorf("progress saw %d runs, pool reports %d", afterFig1, s.SimsRun())
	}
	// Fig3 reuses both Fig1 configurations and adds only the VWB runs.
	if _, err := s.Fig3(); err != nil {
		t.Fatal(err)
	}
	if c.Runs()-afterFig1 != len(s.Benches) {
		t.Errorf("fig3 ran %d new sims, want %d (memoization broken)", c.Runs()-afterFig1, len(s.Benches))
	}
}

func TestRegistryAndRunAll(t *testing.T) {
	ids := IDs()
	if len(ids) < 14 {
		t.Fatalf("registry too small: %v", ids)
	}
	for _, id := range []string{"table1", "fig1", "fig9", "ablation-banks"} {
		if _, ok := ByID(id); !ok {
			t.Errorf("missing runner %q", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("unknown id must not resolve")
	}
	// Paper artifacts come first in IDs().
	if ids[0] != "fig1" && ids[0] != "table1" {
		t.Errorf("ids[0] = %q", ids[0])
	}

	// Run the two table runners through the registry plumbing.
	s := fastSuite(t)
	for _, id := range []string{"table1", "cells"} {
		r, _ := ByID(id)
		res, err := r.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.String() == "" {
			t.Errorf("%s rendered empty", id)
		}
	}
	_ = bytes.Buffer{}
}

func TestAblationsRun(t *testing.T) {
	s := fastSuite(t)
	for _, run := range []func() (stats.Figure, error){
		s.AblationVWBPolicy,
		s.AblationWriteAsym,
	} {
		f, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Series) == 0 {
			t.Error("ablation produced no series")
		}
	}
}

func TestAblationReadLatMonotone(t *testing.T) {
	s := fastSuite(t)
	f, err := s.AblationReadLat()
	if err != nil {
		t.Fatal(err)
	}
	// Drop-in penalty grows with the read latency.
	avgIdx := len(f.Benches) - 1
	prev := -1.0
	for _, ser := range f.Series {
		if !strings.HasPrefix(ser.Label, "drop-in") {
			continue
		}
		v := ser.Values[avgIdx]
		if v < prev {
			t.Errorf("drop-in penalty not monotone in read latency: %v then %v", prev, v)
		}
		prev = v
	}
}

func TestEnergyTableShape(t *testing.T) {
	s := fastSuite(t)
	tb, err := s.EnergyTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// The paper's energy claim: both NVM configurations beat SRAM, whose
	// column is leakage-dominated.
	parse := func(s string) float64 {
		var v float64
		if _, err := fmtSscan(s, &v); err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		return v
	}
	sramTotal := parse(tb.Rows[0][4])
	dropTotal := parse(tb.Rows[1][4])
	vwbTotal := parse(tb.Rows[2][4])
	if dropTotal >= sramTotal || vwbTotal >= sramTotal {
		t.Errorf("NVM energy (%.2f, %.2f) must beat SRAM (%.2f)", dropTotal, vwbTotal, sramTotal)
	}
	sramLeak := parse(tb.Rows[0][1])
	sramDyn := parse(tb.Rows[0][2])
	if sramLeak < sramDyn {
		t.Error("the SRAM column must be leakage-dominated")
	}
}

func TestLifetimeTableRuns(t *testing.T) {
	s := fastSuite(t)
	tb, err := s.LifetimeTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(s.Benches) {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
}

func TestAblationICacheShape(t *testing.T) {
	s := fastSuite(t)
	f, err := s.AblationICache()
	if err != nil {
		t.Fatal(err)
	}
	avgIdx := len(f.Benches) - 1
	drop := seriesByLabel(t, f, "STT-MRAM IL1 drop-in")[avgIdx]
	emshr := seriesByLabel(t, f, "STT-MRAM IL1 + EMSHR")[avgIdx]
	if drop < 20 {
		t.Errorf("NVM IL1 drop-in average %.1f%%: instruction fetch must be crippled", drop)
	}
	if emshr > drop/4 {
		t.Errorf("EMSHR recovers too little: %.1f%% vs drop-in %.1f%%", emshr, drop)
	}
}

// fmtSscan avoids importing fmt twice under its own name in tests.
func fmtSscan(s string, v *float64) (int, error) { return fmt.Sscan(s, v) }

func TestRunAllEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry run")
	}
	s := fastSuite(t)
	var buf bytes.Buffer
	if err := RunAll(s, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, r := range Registry() {
		if !strings.Contains(out, strings.ToUpper(r.ID)) {
			t.Errorf("RunAll output missing %s", r.ID)
		}
	}
	// Everything is renderable as CSV too.
	for _, r := range Registry() {
		res, err := r.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		if res.CSV() == "" {
			t.Errorf("%s: empty CSV", r.ID)
		}
	}
}

func TestAblationInterchangeImproves(t *testing.T) {
	mvt, _ := polybench.ByName("mvt")
	mvt.Default = 48
	s := NewSuite([]polybench.Bench{mvt})
	f, err := s.AblationInterchange()
	if err != nil {
		t.Fatal(err)
	}
	paper := seriesByLabel(t, f, "Paper transformations")[0]
	ext := seriesByLabel(t, f, "+ loop interchange")[0]
	if ext >= paper {
		t.Errorf("interchange must reduce mvt's penalty: %.1f -> %.1f", paper, ext)
	}
}

// TestColdSliceWarmUps: perfbench's sweep-cold slice of the proposal
// space (reads at 2 and 6 cycles, one write latency) is 80 points plus
// the SRAM reference. Banks and read latency only move clocks, so the
// points form 10 warm groups of 8 (front end × buffer rows) and each
// kernel runs 11 warm-ups instead of 81 (DESIGN.md §7.9).
func TestColdSliceWarmUps(t *testing.T) {
	sp, err := dse.Restrict(dse.Proposal(), map[string][]string{
		"read-latency":  {"read=2cy", "read=6cy"},
		"write-latency": {"write=1cy"},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := fastSuite(t)
	if _, err := dse.Evaluate(s, s.Benches, sp); err != nil {
		t.Fatal(err)
	}
	if got, want := s.SimsRun(), 81*len(s.Benches); got != want {
		t.Fatalf("%d simulations, want %d", got, want)
	}
	if got, want := s.WarmUps(), 11*len(s.Benches); got != want {
		t.Errorf("%d warm-ups over %d kernels, want %d", got, len(s.Benches), want)
	}
}

// TestSuiteMemoKeyCoversDesignFields runs a kernel under a base design,
// then under variants that each change one field the memo key once left
// out: the suite that ran the base must return each variant's own
// result, which a fresh suite computes, not the base's. A variant that
// only renames the base or restates a resolved default is the same
// design and must share the base's simulation.
func TestSuiteMemoKeyCoversDesignFields(t *testing.T) {
	b, _ := polybench.ByName("atax")
	b.Default = 40
	benches := []polybench.Bench{b}
	base := sim.ProposalVWB()
	base.CPU = cpu.DefaultConfig()
	opt := base
	opt.Compile = compile.AllOptimizations()
	s := NewSuiteJobs(benches, 1)
	for _, v := range []struct {
		name string
		from sim.Config // the design the variant changes one field of
		set  func(*sim.Config)
	}{
		{"FreqGHz", base, func(c *sim.Config) { c.FreqGHz = 2 }},
		{"CPU.IssueWidth", base, func(c *sim.Config) { c.CPU.IssueWidth = 1 }},
		{"CPU.MispredictPenalty", base, func(c *sim.Config) { c.CPU.MispredictPenalty = 40 }},
		{"CPU.LoadQueueDepth", base, func(c *sim.Config) { c.CPU.LoadQueueDepth = 1 }},
		{"CPU.BpredEntries", base, func(c *sim.Config) { c.CPU.BpredEntries = 2 }},
		{"Compile.LineSize", opt, func(c *sim.Config) { c.Compile.LineSize = 32 }},
	} {
		t.Run(v.name, func(t *testing.T) {
			fromCycles, err := s.Cycles(b, v.from)
			if err != nil {
				t.Fatal(err)
			}
			cfg := v.from
			v.set(&cfg)
			got, err := s.Cycles(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := NewSuiteJobs(benches, 1).Cycles(b, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("suite returned %d cycles, a fresh suite %d", got, want)
			}
			if want == fromCycles {
				t.Errorf("the variant runs the unchanged design's %d cycles, so it cannot tell the keys apart", want)
			}
		})
	}

	baseCycles, err := s.Cycles(b, base)
	if err != nil {
		t.Fatal(err)
	}
	same := base
	same.Name = "renamed"
	same.DL1ReadLat = sim.Canonical(base).DL1ReadLat
	before := s.SimsRun()
	got, err := s.Cycles(b, same)
	if err != nil {
		t.Fatal(err)
	}
	if got != baseCycles || s.SimsRun() != before {
		t.Errorf("restated base: %d cycles in %d new simulation(s), want the base's %d in none",
			got, s.SimsRun()-before, baseCycles)
	}
}

// TestGroupBudgetFaultMatchesRun: two configurations that differ only in
// DL1 banks form one warm group, and both exhaust their instruction
// budget. Prefetch runs them as one group replay and must fail with the
// error Run gives for the group's first member on its own, naming that
// member.
func TestGroupBudgetFaultMatchesRun(t *testing.T) {
	b, _ := polybench.ByName("atax")
	b.Default = 40
	benches := []polybench.Bench{b}
	var cfgs []sim.Config
	for _, banks := range []int{1, 4} {
		cfg := sim.ProposalVWB()
		cfg.Name = fmt.Sprintf("vwb-%dbank", banks)
		cfg.CPU = cpu.DefaultConfig()
		cfg.CPU.MaxInsts = 1000
		cfg.DL1Banks = banks
		cfgs = append(cfgs, cfg)
	}
	if sim.WarmKey(cfgs[0]) != sim.WarmKey(cfgs[1]) {
		t.Fatal("the two configurations do not form one warm group")
	}
	first := cfgs[0] // the member with the smaller run key leads the group
	k0, _ := runKey(b, cfgs[0])
	if k1, _ := runKey(b, cfgs[1]); k1 < k0 {
		first = cfgs[1]
	}
	_, runErr := NewSuiteJobs(benches, 1).Run(b, first)
	if runErr == nil || !strings.Contains(runErr.Error(), "budget") {
		t.Fatalf("Run err = %v, want a budget fault", runErr)
	}
	s := NewSuiteJobs(benches, 1)
	err := s.Prefetch(benches, cfgs...)
	if err == nil {
		t.Fatal("Prefetch of a budget-faulting warm group succeeded")
	}
	got := strings.TrimPrefix(err.Error(), "experiments: prefetch: ")
	want := strings.TrimPrefix(runErr.Error(), "experiments: "+b.Name+" on "+first.Name+": ")
	if got != want || !strings.HasPrefix(want, "sim: "+b.Name+" on "+first.Name+": ") {
		t.Errorf("Prefetch err = %q\nRun err      = %q", err, runErr)
	}
}
