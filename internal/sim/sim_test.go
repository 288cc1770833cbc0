package sim

import (
	"strings"
	"testing"

	"sttdl1/internal/compile"
	"sttdl1/internal/core"
	"sttdl1/internal/cpu"
	"sttdl1/internal/ir"
	"sttdl1/internal/polybench"
	"sttdl1/internal/tech"
)

func smallKernel() *ir.Kernel {
	b, _ := polybench.ByName("gemm")
	return b.Build(12)
}

func TestPresetConfigs(t *testing.T) {
	if c := BaselineSRAM(); c.DL1Cell != tech.SRAM6T || c.FrontEnd != FEDirect {
		t.Error("baseline preset wrong")
	}
	if c := DropInSTT(); c.DL1Cell != tech.STT2T2MTJ || c.FrontEnd != FEDirect {
		t.Error("drop-in preset wrong")
	}
	if c := ProposalVWB(); c.FrontEnd != FEVWB || c.BufferBits != 2048 {
		t.Error("proposal preset wrong")
	}
}

func TestFrontEndKindString(t *testing.T) {
	if FEDirect.String() != "direct" || FEVWB.String() != "vwb" ||
		FEL0.String() != "l0" || FEEMSHR.String() != "emshr" {
		t.Error("front-end names")
	}
	if FrontEndKind(9).String() == "" {
		t.Error("unknown front end must stringify")
	}
}

func TestSystemWiring(t *testing.T) {
	sys, err := New(ProposalVWB())
	if err != nil {
		t.Fatal(err)
	}
	// DL1 latencies come from the technology model (4/2 at 1 GHz).
	cfg := sys.DL1.Config()
	if cfg.ReadLat != 4 || cfg.WriteLat != 2 {
		t.Errorf("STT DL1 latencies %d/%d, want 4/2", cfg.ReadLat, cfg.WriteLat)
	}
	if cfg.Size != DL1Size || cfg.Assoc != DL1Assoc {
		t.Error("DL1 geometry")
	}
	if _, ok := sys.FE.(*core.VWB); !ok {
		t.Errorf("front end is %T, want *core.VWB", sys.FE)
	}

	sram, err := New(BaselineSRAM())
	if err != nil {
		t.Fatal(err)
	}
	c := sram.DL1.Config()
	if c.ReadLat != 1 || c.WriteLat != 1 || c.ReadInterval != 1 {
		t.Errorf("SRAM DL1 %d/%d interval %d", c.ReadLat, c.WriteLat, c.ReadInterval)
	}
}

func TestLatencyOverrides(t *testing.T) {
	cfg := DropInSTT()
	cfg.DL1ReadLat, cfg.DL1WriteLat = 6, 3
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c := sys.DL1.Config(); c.ReadLat != 6 || c.WriteLat != 3 {
		t.Errorf("override latencies %d/%d", c.ReadLat, c.WriteLat)
	}
}

func TestFrontEndSelection(t *testing.T) {
	for _, fe := range []FrontEndKind{FEDirect, FEVWB, FEL0, FEEMSHR} {
		cfg := ProposalVWB()
		cfg.FrontEnd = fe
		sys, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sys.FE.Name() == "" {
			t.Errorf("front end %v has no name", fe)
		}
	}
	cfg := ProposalVWB()
	cfg.FrontEnd = FrontEndKind(99)
	if _, err := New(cfg); err == nil {
		t.Error("unknown front end must fail")
	}
}

func TestRunProducesFunctionalResults(t *testing.T) {
	k := smallKernel()
	res, err := Run(k, BaselineSRAM())
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Cycles <= 0 || res.CPU.Insts == 0 {
		t.Fatal("no execution recorded")
	}
	// The simulated result must match the evaluator (the measured pass
	// re-initializes data, so outputs are from a single clean pass).
	ck, err := compile.Compile(k, compile.Options{})
	if err != nil {
		t.Fatal(err)
	}
	refData, refKernel, err := ir.Reference(k, ir.DefaultLayoutOptions())
	if err != nil {
		t.Fatal(err)
	}
	_ = ck
	got := ir.ReadArray(refKernel.Array("C"), refData)
	if len(got) == 0 {
		t.Fatal("empty output")
	}
}

func TestDropInSlowerThanBaseline(t *testing.T) {
	k := smallKernel()
	base, err := Run(k, BaselineSRAM())
	if err != nil {
		t.Fatal(err)
	}
	drop, err := Run(k, DropInSTT())
	if err != nil {
		t.Fatal(err)
	}
	if drop.CPU.Cycles <= base.CPU.Cycles {
		t.Errorf("drop-in (%d) must be slower than SRAM (%d)", drop.CPU.Cycles, base.CPU.Cycles)
	}
	// The paper's core premise: the drop-in penalty is substantial.
	pen := float64(drop.CPU.Cycles-base.CPU.Cycles) / float64(base.CPU.Cycles)
	if pen < 0.10 {
		t.Errorf("drop-in penalty %.1f%% suspiciously small", 100*pen)
	}
}

func TestVWBRecoversMostOfThePenalty(t *testing.T) {
	k := smallKernel()
	base, _ := Run(k, BaselineSRAM())
	drop, _ := Run(k, DropInSTT())
	vwb, err := Run(k, ProposalVWB())
	if err != nil {
		t.Fatal(err)
	}
	if vwb.CPU.Cycles >= drop.CPU.Cycles {
		t.Errorf("VWB (%d) must beat drop-in (%d)", vwb.CPU.Cycles, drop.CPU.Cycles)
	}
	dropPen := float64(drop.CPU.Cycles - base.CPU.Cycles)
	vwbPen := float64(vwb.CPU.Cycles - base.CPU.Cycles)
	if vwbPen > 0.5*dropPen {
		t.Errorf("VWB recovers only %.0f%% of the drop-in penalty", 100*(1-vwbPen/dropPen))
	}
}

func TestWarmupDeterminism(t *testing.T) {
	k := smallKernel()
	a, err := Run(k, ProposalVWB())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(k, ProposalVWB())
	if err != nil {
		t.Fatal(err)
	}
	if a.CPU.Cycles != b.CPU.Cycles {
		t.Errorf("nondeterministic: %d vs %d", a.CPU.Cycles, b.CPU.Cycles)
	}
}

// TestResetTimingResetsIL1FrontEnd runs the ablation-icache EMSHR point
// under the timing oracle. The measured pass must start from the same
// zeroed clocks as every other component: an IL1 front end that kept
// the warm-up's busy clocks made the oracle report them moving
// backward.
func TestResetTimingResetsIL1FrontEnd(t *testing.T) {
	b, _ := polybench.ByName("atax")
	cfg := BaselineSRAM()
	cfg.Name = "stt-il1-emshr"
	cfg.IL1Cell = tech.STT2T2MTJ
	cfg.IL1FrontEnd = FEEMSHR
	cfg.Check = true
	if _, err := Run(b.Kernel(), cfg); err != nil {
		t.Fatalf("checked run: %v", err)
	}
}

func TestColdStartSlower(t *testing.T) {
	k := smallKernel()
	warm, _ := Run(k, BaselineSRAM())
	cold := BaselineSRAM()
	cold.ColdStart = true
	coldRes, err := Run(k, cold)
	if err != nil {
		t.Fatal(err)
	}
	if coldRes.CPU.Cycles <= warm.CPU.Cycles {
		t.Errorf("cold start (%d) must be slower than warm (%d)", coldRes.CPU.Cycles, warm.CPU.Cycles)
	}
}

func TestVWBSizeMonotone(t *testing.T) {
	k := smallKernel()
	var prev int64
	for i, bits := range []int{1024, 2048, 8192} {
		cfg := ProposalVWB()
		cfg.BufferBits = bits
		res, err := Run(k, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.CPU.Cycles > prev+prev/50 { // 2% slack
			t.Errorf("VWB %d bits slower (%d) than smaller size (%d)", bits, res.CPU.Cycles, prev)
		}
		prev = res.CPU.Cycles
	}
}

func TestRunStatsPlumbed(t *testing.T) {
	res, err := Run(smallKernel(), ProposalVWB())
	if err != nil {
		t.Fatal(err)
	}
	if res.FEStats.Reads == 0 {
		t.Error("front-end stats empty")
	}
	if res.DL1Stats.Accesses()+res.DL1Stats.Fills == 0 {
		t.Error("DL1 stats empty")
	}
	if res.IL1Stats.Reads == 0 {
		t.Error("IL1 must see instruction fetches")
	}
}

func TestCompileErrorPropagates(t *testing.T) {
	a := &ir.Array{Name: "a", Dims: []int{4}}
	bad := &ir.Kernel{Name: "bad", Arrays: []*ir.Array{a}, Body: []ir.Stmt{
		ir.Assign{Arr: a, Idx: []ir.Aff{ir.V("missing")}, RHS: ir.ConstF{V: 1}},
	}}
	if _, err := Run(bad, BaselineSRAM()); err == nil {
		t.Error("compile error must propagate")
	}
}

// TestFullSystemFunctionalCorrectness is the end-to-end integration
// test: every benchmark, compiled with the full transformation set and
// executed on the timed proposal platform (warm-up pass included), must
// leave the evaluator's results in memory.
func TestFullSystemFunctionalCorrectness(t *testing.T) {
	for _, b := range polybench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			k := b.Build(10)
			cfg := ProposalVWB()
			cfg.Compile = compile.ExtendedOptimizations()
			opts := cfg.Compile
			opts.LineSize = 64
			ck, err := compile.Compile(k, opts)
			if err != nil {
				t.Fatal(err)
			}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sys.RunCompiled(ck)
			if err != nil {
				t.Fatal(err)
			}

			// Reference on the same transformed, laid-out kernel.
			size := 0
			for _, a := range ck.Kernel.Arrays {
				if end := int(a.Base) + 4*a.Elems(); end > size {
					size = end
				}
			}
			ref := make([]byte, size)
			if err := ir.InitData(ck.Kernel, ref); err != nil {
				t.Fatal(err)
			}
			if err := ir.NewEvaluator(ck.Kernel, ref).Run(); err != nil {
				t.Fatal(err)
			}
			for _, a := range ck.Kernel.Arrays {
				if !a.Out {
					continue
				}
				got := ir.ReadArray(a, res.CPU.State.Mem)
				want := ir.ReadArray(a, ref)
				for i := range want {
					d := float64(got[i]) - float64(want[i])
					if d < 0 {
						d = -d
					}
					lim := 1e-3
					if w := float64(want[i]); w > 1 || w < -1 {
						lim = 1e-3 * w
						if lim < 0 {
							lim = -lim
						}
					}
					if d > lim {
						t.Fatalf("%s[%d] = %g, want %g", a.Name, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestWarmKeyZeroesTimingFieldsOnly: the timing-only fields fold into
// one warm group, while a functional field (here the front end's buffer
// size) still splits it.
func TestWarmKeyZeroesTimingFieldsOnly(t *testing.T) {
	a, b := ProposalVWB(), ProposalVWB()
	b.DL1ReadLat, b.DL1WriteLat, b.DL1Banks, b.VWBTransfer = 9, 5, 1, 3
	b.CPU = cpu.DefaultConfig()
	b.CPU.StoreBufDepth = 16
	if WarmKey(a) != WarmKey(b) {
		t.Errorf("timing-only variants split: %+v vs %+v", WarmKey(a), WarmKey(b))
	}
	b.BufferBits = 4096
	if WarmKey(a) == WarmKey(b) {
		t.Error("a buffer-size change stayed in the warm group")
	}
}

// TestWarmDiffNamesField: a system that skipped its warm-up differs from
// a warmed representative, and the error names where; after copyWarm it
// matches exactly, IL1 front end included.
func TestWarmDiffNamesField(t *testing.T) {
	b, _ := polybench.ByName("atax")
	b.Default = 24
	ck, err := compile.Compile(b.Kernel(), CompileOptions(ProposalVWB()))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := CaptureTrace(ck)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ProposalVWB()
	cfg.IL1Cell, cfg.IL1FrontEnd = tech.STT2T2MTJ, FEEMSHR
	rep, _ := New(cfg)
	if err := rep.WarmUp(ck, tr); err != nil {
		t.Fatal(err)
	}
	cfg.DL1ReadLat = 7
	member, _ := New(cfg)
	err = member.WarmDiff(rep)
	if err == nil || !strings.Contains(err.Error(), "IL1 useClock 0, representative has") {
		t.Fatalf("cold member vs warmed representative: %v", err)
	}
	member.copyWarm(rep)
	if err := member.WarmDiff(rep); err != nil {
		t.Errorf("after copyWarm: %v", err)
	}
}

// TestValidateRejectsMalformed pins the configurations that used to
// panic or exhaust memory inside a component constructor: New must
// return Validate's error instead.
func TestValidateRejectsMalformed(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"three banks", Config{DL1Cell: tech.STT2T2MTJ, DL1Banks: 3}},
		{"7-bit buffer", Config{DL1Cell: tech.STT2T2MTJ, FrontEnd: FEVWB, BufferBits: 7}},
		{"2^40-bit buffer", Config{DL1Cell: tech.STT2T2MTJ, FrontEnd: FEVWB, BufferBits: 1 << 40}},
	} {
		if err := Validate(tc.cfg); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
		}
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: New accepted %+v", tc.name, tc.cfg)
		}
	}
	for _, cfg := range []Config{BaselineSRAM(), DropInSTT(), ProposalVWB()} {
		if err := Validate(cfg); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
}
