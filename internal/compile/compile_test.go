package compile

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sttdl1/internal/cpu"
	"sttdl1/internal/ir"
	"sttdl1/internal/isa"
	"sttdl1/internal/polybench"
)

// allOptionCombos enumerates the 32 on/off combinations of the four
// paper transformations plus the interchange extension.
func allOptionCombos() []Options {
	var out []Options
	for m := 0; m < 32; m++ {
		out = append(out, Options{
			Vectorize:   m&1 != 0,
			Prefetch:    m&2 != 0,
			Branchless:  m&4 != 0,
			Align:       m&8 != 0,
			Interchange: m&16 != 0,
		})
	}
	return out
}

// runCompiled interprets a compiled kernel functionally and returns the
// final memory image.
func runCompiled(t *testing.T, ck *Compiled) []byte {
	t.Helper()
	st := cpu.NewState(ck.Prog)
	if err := ir.InitData(ck.Kernel, st.Mem); err != nil {
		t.Fatal(err)
	}
	if _, err := cpu.InterpretState(ck.Prog, st, 500_000_000); err != nil {
		t.Fatalf("%s: %v", ck.Prog.Name, err)
	}
	return st.Mem
}

// checkAgainstEvaluator compares every Out array of a compiled+executed
// kernel against the IR evaluator run on the same (transformed,
// laid-out) kernel. Vectorized reductions reassociate float adds, so the
// comparison uses a relative tolerance.
func checkAgainstEvaluator(t *testing.T, ck *Compiled, mem []byte) {
	t.Helper()
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
		got := ir.ReadArray(a, mem)
		want := ir.ReadArray(a, ref)
		for i := range want {
			g, w := float64(got[i]), float64(want[i])
			if math.IsNaN(g) != math.IsNaN(w) {
				t.Fatalf("%s[%d]: got %g want %g", a.Name, i, g, w)
			}
			if diff := math.Abs(g - w); diff > 1e-3*math.Max(1, math.Abs(w)) {
				t.Fatalf("%s %s[%d]: got %g want %g (opts %+v)",
					ck.Prog.Name, a.Name, i, g, w, ck.Opts)
			}
		}
	}
}

// TestSemanticPreservationAllKernelsAllOptions is the compiler's core
// correctness test: every PolyBench kernel, compiled under all 16
// transformation combinations, must produce the evaluator's results.
func TestSemanticPreservationAllKernelsAllOptions(t *testing.T) {
	sizes := map[string]int{
		"2mm": 9, "3mm": 9, "gemm": 11, "syrk": 10, "trmm": 10,
		"atax": 21, "bicg": 21, "mvt": 21, "gesummv": 18, "trisolv": 22,
		"jacobi2d": 13, "floyd": 9, "gemver": 19, "doitgen": 7,
		"seidel2d": 12, "covariance": 9,
	}
	for _, b := range polybench.All() {
		n, ok := sizes[b.Name]
		if !ok {
			n = 10
		}
		kernel := b.Build(n)
		for _, opts := range allOptionCombos() {
			opts := opts
			t.Run(fmt.Sprintf("%s/v%t_p%t_b%t_a%t_i%t", b.Name, opts.Vectorize, opts.Prefetch, opts.Branchless, opts.Align, opts.Interchange), func(t *testing.T) {
				ck, err := Compile(kernel, opts)
				if err != nil {
					t.Fatal(err)
				}
				mem := runCompiled(t, ck)
				checkAgainstEvaluator(t, ck, mem)
			})
		}
	}
}

// TestScalarCompilationIsExact verifies that without vectorization the
// compiled code is bit-exact against the evaluator (no reassociation).
func TestScalarCompilationIsExact(t *testing.T) {
	for _, b := range polybench.All() {
		kernel := b.Build(9)
		for _, opts := range []Options{{}, {Prefetch: true, Branchless: true, Align: true}} {
			ck, err := Compile(kernel, opts)
			if err != nil {
				t.Fatal(err)
			}
			mem := runCompiled(t, ck)
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
				got := ir.ReadArray(a, mem)
				want := ir.ReadArray(a, ref)
				for i := range want {
					gb := math.Float32bits(got[i])
					wb := math.Float32bits(want[i])
					if gb != wb {
						t.Fatalf("%s/%s %s[%d]: %g != %g (bit-exact required for scalar code)",
							b.Name, optKeyStr(opts), a.Name, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func optKeyStr(o Options) string {
	return fmt.Sprintf("v%tp%tb%ta%t", o.Vectorize, o.Prefetch, o.Branchless, o.Align)
}

func TestVectorizationActuallyHappens(t *testing.T) {
	b, _ := polybench.ByName("gemm")
	ck := MustCompile(b.Build(20), Options{Vectorize: true})
	if ck.VectorizedLoops == 0 {
		t.Fatal("gemm must vectorize")
	}
	hasVec := false
	for _, in := range ck.Prog.Insts {
		if in.Op.IsVector() {
			hasVec = true
			break
		}
	}
	if !hasVec {
		t.Error("no vector instructions emitted")
	}
	scalar := MustCompile(b.Build(20), Options{})
	if scalar.VectorizedLoops != 0 {
		t.Error("scalar build reports vectorized loops")
	}
}

func TestVectorizationReducesInstructions(t *testing.T) {
	b, _ := polybench.ByName("gemm")
	k := b.Build(32)
	count := func(opts Options) uint64 {
		ck := MustCompile(k, opts)
		st := cpu.NewState(ck.Prog)
		if err := ir.InitData(ck.Kernel, st.Mem); err != nil {
			t.Fatal(err)
		}
		n := uint64(0)
		for !st.Halted {
			if _, err := st.Step(ck.Prog); err != nil {
				t.Fatal(err)
			}
			n++
		}
		return n
	}
	s, v := count(Options{}), count(Options{Vectorize: true})
	if v >= s {
		t.Errorf("vectorized %d insts, scalar %d: expected a reduction", v, s)
	}
	if float64(v) > 0.6*float64(s) {
		t.Errorf("vectorization only reduced %d -> %d; expected >40%%", s, v)
	}
}

func TestPrefetchInsertsPLD(t *testing.T) {
	b, _ := polybench.ByName("gemm")
	ck := MustCompile(b.Build(20), Options{Prefetch: true})
	if ck.PrefetchSites == 0 {
		t.Fatal("no prefetch sites inserted")
	}
	plds := 0
	for _, in := range ck.Prog.Insts {
		if in.Op == isa.OpPLD {
			plds++
		}
	}
	if plds == 0 {
		t.Error("no PLD instructions emitted")
	}
	noPf := MustCompile(b.Build(20), Options{})
	for _, in := range noPf.Prog.Insts {
		if in.Op == isa.OpPLD {
			t.Fatal("PLD emitted without the prefetch pass")
		}
	}
}

func TestBranchlessRemovesBranches(t *testing.T) {
	b, _ := polybench.ByName("floyd")
	branchy := MustCompile(b.Build(10), Options{})
	branchless := MustCompile(b.Build(10), Options{Branchless: true})
	if branchless.BranchlessRewrites == 0 {
		t.Fatal("floyd's If must be rewritten")
	}
	countCond := func(p *isa.Program) int {
		n := 0
		for _, in := range p.Insts {
			if in.Op.IsCondBranch() {
				n++
			}
		}
		return n
	}
	if countCond(branchless.Prog) >= countCond(branchy.Prog) {
		t.Errorf("branchless build has %d conditional branches, branchy %d",
			countCond(branchless.Prog), countCond(branchy.Prog))
	}
	hasSel := false
	for _, in := range branchless.Prog.Insts {
		if in.Op == isa.OpFSEL || in.Op == isa.OpVSELM {
			hasSel = true
		}
	}
	if !hasSel {
		t.Error("branchless floyd must use selects")
	}
}

func TestBranchlessEnablesFloydVectorization(t *testing.T) {
	b, _ := polybench.ByName("floyd")
	plain := MustCompile(b.Build(10), Options{Vectorize: true})
	if plain.VectorizedLoops != 0 {
		t.Error("floyd must not vectorize while the If remains")
	}
	both := MustCompile(b.Build(10), Options{Vectorize: true, Branchless: true})
	if both.VectorizedLoops == 0 {
		t.Error("branchless + vectorize must vectorize floyd")
	}
}

func TestColumnWalkLoopsStayScalar(t *testing.T) {
	b, _ := polybench.ByName("trmm")
	ck := MustCompile(b.Kernel(), Options{Vectorize: true})
	if ck.VectorizedLoops != 0 {
		t.Error("trmm's stride-N loop must reject vectorization")
	}
}

func TestInterchangeEnablesColumnWalkVectorization(t *testing.T) {
	for _, name := range []string{"trmm", "mvt", "covariance", "gemver"} {
		b, _ := polybench.ByName(name)
		k := b.Build(12)
		plain := MustCompile(k, Options{Vectorize: true})
		swapped := MustCompile(k, Options{Vectorize: true, Interchange: true})
		if swapped.InterchangedLoops == 0 {
			t.Errorf("%s: no nests interchanged", name)
		}
		if swapped.VectorizedLoops <= plain.VectorizedLoops {
			t.Errorf("%s: interchange must unlock vectorization (%d -> %d loops)",
				name, plain.VectorizedLoops, swapped.VectorizedLoops)
		}
	}
	// Kernels without the pragma are untouched.
	b, _ := polybench.ByName("gemm")
	if ck := MustCompile(b.Build(12), Options{Interchange: true}); ck.InterchangedLoops != 0 {
		t.Error("gemm has no InterchangeOK nests")
	}
}

func TestInterchangeIsExactForScalarCode(t *testing.T) {
	// Interchange preserves each accumulator's summation order, so even
	// the swapped scalar code must be bit-exact against the evaluator
	// run on the transformed kernel.
	for _, name := range []string{"trmm", "mvt", "covariance", "gemver"} {
		b, _ := polybench.ByName(name)
		ck := MustCompile(b.Build(11), Options{Interchange: true})
		mem := runCompiled(t, ck)
		checkAgainstEvaluator(t, ck, mem)
	}
}

func TestAlignChangesLayout(t *testing.T) {
	b, _ := polybench.ByName("gemm")
	aligned := MustCompile(b.Build(10), Options{Align: true})
	for _, a := range aligned.Kernel.Arrays {
		if a.Base%64 != 0 {
			t.Errorf("aligned base %s = %d", a.Name, a.Base)
		}
	}
	packed := MustCompile(b.Build(10), Options{})
	mis := 0
	for _, a := range packed.Kernel.Arrays {
		if a.Base%64 != 0 {
			mis++
		}
	}
	if mis == 0 {
		t.Error("unaligned layout should skew bases")
	}
}

func TestCompileRejectsBadKernels(t *testing.T) {
	a := &ir.Array{Name: "a", Dims: []int{4}}
	unknownVar := &ir.Kernel{Name: "bad", Arrays: []*ir.Array{a}, Body: []ir.Stmt{
		ir.Assign{Arr: a, Idx: []ir.Aff{ir.V("nope")}, RHS: ir.ConstF{V: 1}},
	}}
	if _, err := Compile(unknownVar, Options{}); err == nil {
		t.Error("unknown loop var must fail compilation")
	}
	foreign := &ir.Array{Name: "foreign", Dims: []int{4}}
	otherArr := &ir.Kernel{Name: "bad2", Arrays: []*ir.Array{a}, Body: []ir.Stmt{
		ir.Assign{Arr: foreign, Idx: []ir.Aff{ir.C(0)}, RHS: ir.ConstF{V: 1}},
	}}
	if _, err := Compile(otherArr, Options{}); err == nil {
		t.Error("foreign array must fail compilation")
	}
	dupVar := &ir.Kernel{Name: "bad3", Arrays: []*ir.Array{a}, Body: []ir.Stmt{
		ir.Loop{Var: "i", Lo: ir.BC(0), Hi: ir.BC(2), Body: []ir.Stmt{
			ir.Loop{Var: "i", Lo: ir.BC(0), Hi: ir.BC(2), Body: []ir.Stmt{
				ir.Assign{Arr: a, Idx: []ir.Aff{ir.C(0)}, RHS: ir.ConstF{V: 1}},
			}},
		}},
	}}
	if _, err := Compile(dupVar, Options{}); err == nil {
		t.Error("shadowed loop var must fail compilation")
	}
}

func TestCompileDoesNotMutateInput(t *testing.T) {
	b, _ := polybench.ByName("gemm")
	k := b.Build(8)
	before := len(k.Body)
	if _, err := Compile(k, AllOptimizations()); err != nil {
		t.Fatal(err)
	}
	if len(k.Body) != before {
		t.Error("Compile mutated the input kernel body")
	}
	for _, a := range k.Arrays {
		if a.Base != 0 {
			t.Error("Compile assigned bases on the input kernel")
		}
	}
}

func TestZeroTripLoops(t *testing.T) {
	a := &ir.Array{Name: "a", Dims: []int{4}, Init: func([]int) float32 { return 7 }, Out: true}
	k := &ir.Kernel{Name: "empty", Arrays: []*ir.Array{a}, Body: []ir.Stmt{
		ir.Loop{Var: "i", Lo: ir.BC(2), Hi: ir.BC(2), Vectorizable: true, Body: []ir.Stmt{
			ir.Assign{Arr: a, Idx: []ir.Aff{ir.V("i")}, RHS: ir.ConstF{V: 0}},
		}},
		ir.Loop{Var: "j", Lo: ir.BC(3), Hi: ir.BC(1), Body: []ir.Stmt{
			ir.Assign{Arr: a, Idx: []ir.Aff{ir.V("j")}, RHS: ir.ConstF{V: 0}},
		}},
	}}
	for _, opts := range allOptionCombos() {
		ck := MustCompile(k, opts)
		mem := runCompiled(t, ck)
		got := ir.ReadArray(ck.Kernel.Array("a"), mem)
		for i, v := range got {
			if v != 7 {
				t.Fatalf("opts %+v: a[%d] = %g, zero-trip loops must not execute", opts, i, v)
			}
		}
	}
}

func TestTinyTripVectorLoops(t *testing.T) {
	// Trip counts 1..19 exercise every main/vector-tail/scalar-tail split.
	for n := 1; n < 20; n++ {
		a := &ir.Array{Name: "a", Dims: []int{32}, Out: true}
		k := &ir.Kernel{Name: "tiny", Arrays: []*ir.Array{a}, Body: []ir.Stmt{
			ir.Loop{Var: "i", Lo: ir.BC(0), Hi: ir.BC(n), Vectorizable: true, Body: []ir.Stmt{
				ir.Assign{Arr: a, Idx: []ir.Aff{ir.V("i")}, RHS: ir.ConstF{V: 1}},
			}},
		}}
		ck := MustCompile(k, Options{Vectorize: true})
		mem := runCompiled(t, ck)
		got := ir.ReadArray(ck.Kernel.Array("a"), mem)
		for i := 0; i < 32; i++ {
			want := float32(0)
			if i < n {
				want = 1
			}
			if got[i] != want {
				t.Fatalf("n=%d: a[%d] = %g, want %g", n, i, got[i], want)
			}
		}
	}
}

func TestEmitterLabelErrors(t *testing.T) {
	e := newEmitter()
	l := e.newLabel()
	e.br(isa.OpB, 0, 0, l)
	if _, err := e.finish(); err == nil {
		t.Error("unbound label must fail")
	}
}

func TestRegPoolDiscipline(t *testing.T) {
	p := newRegPool("test", intRange(0, 2))
	a, b, c := p.alloc(), p.alloc(), p.alloc()
	_ = b
	func() {
		defer func() {
			if recover() == nil {
				t.Error("exhausted pool must panic")
			}
		}()
		p.alloc()
	}()
	p.free(a)
	if got := p.alloc(); got != a {
		t.Errorf("freed register not reused: %d", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double free must panic")
			}
		}()
		p.free(c)
		p.free(c)
	}()
}

// TestCompileRefusesOversizeDataSegment pins the 2 GiB data-address
// limit: atax just below it compiles (compiling never allocates the
// segment), and at n = 23171 and beyond Compile refuses, naming the
// kernel, instead of truncating 32-bit bases into the code segment.
func TestCompileRefusesOversizeDataSegment(t *testing.T) {
	b, ok := polybench.ByName("atax")
	if !ok {
		t.Fatal("unknown benchmark atax")
	}
	ck, err := Compile(b.Build(23000), Options{})
	if err != nil {
		t.Fatalf("n=23000: %v", err)
	}
	if ck.Prog.DataSize+cpu.StackBytes > math.MaxInt32 {
		t.Fatalf("n=23000 compiled to a %d-byte data segment past the limit", ck.Prog.DataSize)
	}
	for _, n := range []int{23171, 30000} {
		for _, opts := range []Options{{}, AllOptimizations()} {
			_, err := Compile(b.Build(n), opts)
			if err == nil || !strings.Contains(err.Error(), "atax") || !strings.Contains(err.Error(), "data segment") {
				t.Errorf("n=%d %+v: got %v, want a data-segment error naming atax", n, opts, err)
			}
		}
	}
}
