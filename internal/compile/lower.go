// Package compile lowers the loop-nest IR to ARMlet machine code and
// implements the paper's code transformations (§V): loop vectorization,
// software prefetch insertion, branch removal in innermost loops, and
// data alignment. Each transformation is independently switchable, which
// is what the Fig. 5/6/9 experiments sweep.
package compile

import (
	"fmt"
	"math"

	"sttdl1/internal/cpu"
	"sttdl1/internal/ir"
	"sttdl1/internal/isa"
)

// Options selects the code transformations — the simulator-side
// equivalent of the paper's per-kernel intrinsic compile flags.
type Options struct {
	// Vectorize turns marked, legal innermost loops into 4-lane SIMD
	// loops with scalar tails.
	Vectorize bool
	// Prefetch inserts PLD hints one cache line ahead of every
	// stride-1 stream in innermost loops.
	Prefetch bool
	// Branchless rewrites eligible innermost-loop Ifs into predicated
	// selects.
	Branchless bool
	// PrefetchStreams caps prefetched streams per loop; the pass further
	// adapts the budget to each loop's line footprint (the paper's
	// manually chosen "critical data"). Default 2.
	PrefetchStreams int
	// Align places array bases on cache-line boundaries.
	Align bool
	// Interchange enables the loop-interchange extension pass (not part
	// of the paper's transformation set; see interchange.go).
	Interchange bool
	// LineSize is the DL1 line in bytes (prefetch distance and
	// alignment granule). Default 64.
	LineSize int
}

// AllOptimizations enables every transformation of the paper's "With
// Optimization" configuration.
func AllOptimizations() Options {
	return Options{Vectorize: true, Prefetch: true, Branchless: true, Align: true}
}

// ExtendedOptimizations adds the loop-interchange extension on top of
// the paper's set — the "systematic approach" its §V leaves as future
// work.
func ExtendedOptimizations() Options {
	o := AllOptimizations()
	o.Interchange = true
	return o
}

// Compiled is the result of compiling one kernel.
type Compiled struct {
	Prog *isa.Program
	// Kernel is the transformed clone with layout applied; use it to
	// initialize and read back the data segment.
	Kernel *ir.Kernel
	Opts   Options
	// VectorizedLoops counts loops emitted in SIMD form.
	VectorizedLoops int
	// PrefetchSites counts inserted PLD sites.
	PrefetchSites int
	// BranchlessRewrites counts If statements turned into selects.
	BranchlessRewrites int
	// InterchangedLoops counts nests rewritten by the interchange pass.
	InterchangedLoops int
}

type compiler struct {
	*emitter
	k   *ir.Kernel
	opt Options

	ints *regPool
	fps  *regPool
	vecs *regPool

	arrayBase map[*ir.Array]isa.Reg
	paramReg  map[string]isa.Reg
	loopVar   map[string]isa.Reg

	// Innermost-loop address strength reduction: hoists holds registers
	// with arrayBase + (subscript terms not involving hoistVar), keyed by
	// hoistKey, so body accesses become one indexed instruction — what
	// -O2 induction-variable elimination does to PolyBench loops.
	hoists   map[string]isa.Reg
	hoistVar string

	vectorized int
}

// memref is the best addressing form for one array access.
type memref struct {
	base      isa.Reg
	index     isa.Reg // valid when hasIndex
	shift     int32
	off       int32
	hasIndex  bool
	ownedBase bool
}

// Compile lowers kernel k under the given options.
func Compile(k *ir.Kernel, opt Options) (*Compiled, error) {
	if opt.LineSize <= 0 {
		opt.LineSize = 64
	}
	k = k.Clone()

	nInterchange := 0
	if opt.Interchange {
		k.Body, nInterchange = interchangeStmts(k.Body)
	}
	nBranchless := 0
	if opt.Branchless {
		k.Body, nBranchless = branchlessStmts(k.Body)
	}
	nPrefetch := 0
	if opt.Prefetch {
		if opt.PrefetchStreams == 0 {
			opt.PrefetchStreams = 2
		}
		k.Body, nPrefetch = prefetchStmts(k.Body, opt.LineSize/4, opt.PrefetchStreams)
	}

	lo := ir.DefaultLayoutOptions()
	lo.Align = opt.Align
	lo.AlignBytes = opt.LineSize
	size := ir.Layout(k, lo)
	// Data addresses are 32-bit array bases, MOVI immediates and an SP
	// of int32(len(Mem)), and must stay below the code segment at
	// cpu.Config.CodeBase (2 GiB): a larger segment would truncate
	// addresses silently, so it is refused before anything allocates it.
	if size > math.MaxInt32-cpu.StackBytes {
		return nil, fmt.Errorf("compile: data segment of %d bytes plus the %d-byte stack does not fit in 2 GiB", size, cpu.StackBytes)
	}

	c := &compiler{
		emitter:   newEmitter(),
		k:         k,
		opt:       opt,
		ints:      newRegPool("int", intRange(0, 28)),
		fps:       newRegPool("fp", intRange(0, isa.NumFPRegs-1)),
		vecs:      newRegPool("vec", intRange(0, isa.NumVecRegs-1)),
		arrayBase: make(map[*ir.Array]isa.Reg),
		paramReg:  make(map[string]isa.Reg),
		loopVar:   make(map[string]isa.Reg),
		hoists:    map[string]isa.Reg{},
	}

	// Preamble: materialize array bases and scalar parameters.
	for _, a := range k.Arrays {
		r := c.ints.alloc()
		c.arrayBase[a] = r
		c.emit(isa.Inst{Op: isa.OpMOVI, Rd: r, Imm: int32(a.Base)})
	}
	for _, p := range k.Params {
		r := c.fps.alloc()
		c.paramReg[p.Name] = r
		c.emit(isa.Inst{Op: isa.OpFMOVI, Rd: r, Imm: isa.BitsFromF32(p.Value)})
	}

	var cerr error
	func() {
		defer func() {
			if r := recover(); r != nil {
				cerr = fmt.Errorf("compile: %v", r)
			}
		}()
		c.stmts(k.Body)
	}()
	if cerr != nil {
		return nil, cerr
	}
	c.emit(isa.Inst{Op: isa.OpHALT})

	insts, err := c.finish()
	if err != nil {
		return nil, err
	}
	prog := &isa.Program{Insts: insts, Name: k.Name, DataSize: size}
	if err := prog.Validate(); err != nil {
		return nil, fmt.Errorf("compile: generated invalid code: %w", err)
	}
	return &Compiled{
		Prog:               prog,
		Kernel:             k,
		Opts:               opt,
		VectorizedLoops:    c.vectorized,
		PrefetchSites:      nPrefetch,
		BranchlessRewrites: nBranchless,
		InterchangedLoops:  nInterchange,
	}, nil
}

// MustCompile is Compile for known-good kernels.
func MustCompile(k *ir.Kernel, opt Options) *Compiled {
	ck, err := Compile(k, opt)
	if err != nil {
		panic(err)
	}
	return ck
}

func (c *compiler) stmts(ss []ir.Stmt) {
	for _, s := range ss {
		c.stmt(s)
	}
}

func (c *compiler) stmt(s ir.Stmt) {
	switch st := s.(type) {
	case ir.Assign:
		v, owned := c.expr(st.RHS)
		c.emitMem(isa.OpFSTR, isa.OpFSTRX, v, c.memRef(st.Arr, st.Idx))
		if owned {
			c.fps.free(v)
		}
	case ir.Loop:
		c.loop(st)
	case ir.If:
		c.ifStmt(st)
	case ir.Prefetch:
		c.emitMem(isa.OpPLD, isa.OpInvalid, 0, c.memRef(st.Arr, st.Idx))
	default:
		panic(fmt.Sprintf("unknown statement %T", s))
	}
}

// bound materializes a loop bound into a fresh int register.
func (c *compiler) boundReg(b ir.Bound) isa.Reg {
	r := c.ints.alloc()
	if b.Var == "" {
		c.emit(isa.Inst{Op: isa.OpMOVI, Rd: r, Imm: int32(b.Const)})
		return r
	}
	src, ok := c.loopVar[b.Var]
	if !ok {
		panic(fmt.Sprintf("bound references unknown loop var %q", b.Var))
	}
	c.emit(isa.Inst{Op: isa.OpADDI, Rd: r, Ra: src, Imm: int32(b.Const)})
	return r
}

func (c *compiler) loop(st ir.Loop) {
	if _, dup := c.loopVar[st.Var]; dup {
		panic(fmt.Sprintf("loop var %q shadows an enclosing loop", st.Var))
	}
	rv := c.boundReg(st.Lo)
	c.loopVar[st.Var] = rv
	rh := c.boundReg(st.Hi)

	// Innermost loops get their invariant address parts hoisted into
	// registers so body accesses collapse to indexed loads/stores.
	savedHoists, savedVar := c.hoists, c.hoistVar
	var hoistRegs []isa.Reg
	if innermost(st) {
		type entry struct {
			arr *ir.Array
			inv []ir.Term
		}
		seen := map[string]entry{}
		var order []string
		accessRefs(st.Body, func(arr *ir.Array, idx []ir.Aff) {
			inv, _ := termsWithout(byteAff(arr, idx), st.Var)
			if len(inv) == 0 {
				return
			}
			key := hoistKey(arr, inv)
			if _, dup := seen[key]; dup {
				return
			}
			seen[key] = entry{arr: arr, inv: inv}
			order = append(order, key)
		})
		c.hoists = make(map[string]isa.Reg, len(order))
		c.hoistVar = st.Var
		for _, key := range order {
			e := seen[key]
			r := c.sumTerms(c.arrayBase[e.arr], e.inv)
			c.hoists[key] = r
			hoistRegs = append(hoistRegs, r)
		}
	}
	restoreHoists := func() {
		for _, r := range hoistRegs {
			c.ints.free(r)
		}
		c.hoists, c.hoistVar = savedHoists, savedVar
	}

	if c.opt.Vectorize && st.Vectorizable && st.StepOf() == 1 {
		if plan, ok := planVectorLoop(st); ok {
			c.vectorLoop(st, plan, rv, rh)
			restoreHoists()
			c.ints.free(rh)
			c.ints.free(rv)
			delete(c.loopVar, st.Var)
			c.vectorized++
			return
		}
	}

	// Scalar reduction promotion (-O2 style): accumulators whose element
	// is loop-invariant live in a register across the loop instead of a
	// load/store pair per iteration.
	promos := planPromotions(st)
	for i := range promos {
		p := &promos[i]
		p.reg = c.fps.alloc()
		p.ref = c.memRef(p.as.Arr, p.as.Idx)
		ownedBase := p.ref.ownedBase
		p.ref.ownedBase = false // keep the base register across the loop
		p.freeBase = ownedBase
		c.emitMem(isa.OpFLDR, isa.OpFLDRX, p.reg, p.ref)
	}

	lTop, lEnd := c.newLabel(), c.newLabel()
	c.br(isa.OpBGE, rv, rh, lEnd)
	c.bind(lTop)
	for i, s := range st.Body {
		if p := promoFor(promos, i); p != nil {
			v, owned := c.expr(p.rest)
			op := isa.OpFADD
			if p.neg {
				op = isa.OpFSUB
			}
			c.emit(isa.Inst{Op: op, Rd: p.reg, Ra: p.reg, Rb: v})
			if owned {
				c.fps.free(v)
			}
			continue
		}
		c.stmt(s)
	}
	c.emit(isa.Inst{Op: isa.OpADDI, Rd: rv, Ra: rv, Imm: int32(st.StepOf())})
	c.br(isa.OpBLT, rv, rh, lTop)
	c.bind(lEnd)

	for i := range promos {
		p := &promos[i]
		c.emitMem(isa.OpFSTR, isa.OpFSTRX, p.reg, p.ref)
		if p.freeBase {
			c.ints.free(p.ref.base)
		}
		c.fps.free(p.reg)
	}

	restoreHoists()
	c.ints.free(rh)
	c.ints.free(rv)
	delete(c.loopVar, st.Var)
}

// promotion describes one register-promoted reduction statement.
type promotion struct {
	bodyIdx  int
	as       ir.Assign
	rest     ir.Expr
	neg      bool
	reg      isa.Reg
	ref      memref
	freeBase bool
}

func promoFor(ps []promotion, bodyIdx int) *promotion {
	for i := range ps {
		if ps[i].bodyIdx == bodyIdx {
			return &ps[i]
		}
	}
	return nil
}

// planPromotions finds direct-body reduction assigns of lp whose target
// element is loop-invariant and whose memory cell no other statement can
// observe during the loop. IVDep waives the may-alias rejection of loads
// from the accumulator's own array (triangular solves, trmm).
func planPromotions(lp ir.Loop) []promotion {
	var out []promotion
	for i, s := range lp.Body {
		as, ok := s.(ir.Assign)
		if !ok {
			continue
		}
		if byteAff(as.Arr, as.Idx).CoefOf(lp.Var) != 0 {
			continue
		}
		rest, neg, ok := reductionRest(as)
		if !ok {
			continue
		}
		if !promotionSafe(lp, i, as) {
			continue
		}
		out = append(out, promotion{bodyIdx: i, as: as, rest: rest, neg: neg})
	}
	return out
}

// promotionSafe checks no other statement in the loop body touches the
// accumulator's array (loads in the accumulator's own rest are allowed
// under IVDep; its own LHS/accumulator-load are excluded by construction).
func promotionSafe(lp ir.Loop, bodyIdx int, as ir.Assign) bool {
	lhs := byteAff(as.Arr, as.Idx)
	safe := true
	check := func(arr *ir.Array, aff ir.Aff, isOwnAcc bool) {
		if arr != as.Arr {
			return
		}
		if isOwnAcc && affEqual(aff, lhs) {
			return
		}
		if !lp.IVDep {
			safe = false
		}
	}
	for j, s := range lp.Body {
		own := j == bodyIdx
		switch st := s.(type) {
		case ir.Assign:
			if !own {
				check(st.Arr, byteAff(st.Arr, st.Idx), false)
			}
			walkLoads(st.RHS, func(ld ir.Load) {
				check(ld.Arr, byteAff(ld.Arr, ld.Idx), own)
			})
		case ir.Prefetch:
			// Hints never observe data.
		case ir.If:
			// Conservative: conditionals may guard accumulation order.
			walkLoads(ir.Ternary{Cond: st.Cond, Then: ir.ConstF{}, Else: ir.ConstF{}}, func(ld ir.Load) {
				check(ld.Arr, byteAff(ld.Arr, ld.Idx), false)
			})
			if containsArray(st.Then, as.Arr) || containsArray(st.Else, as.Arr) {
				safe = false
			}
		case ir.Loop:
			if containsArray(st.Body, as.Arr) {
				safe = false
			}
		}
	}
	return safe
}

func containsArray(ss []ir.Stmt, arr *ir.Array) bool {
	found := false
	accessRefs(ss, func(a *ir.Array, _ []ir.Aff) {
		if a == arr {
			found = true
		}
	})
	return found
}

func (c *compiler) ifStmt(st ir.If) {
	cnd := c.cond(st.Cond)
	lElse, lEnd := c.newLabel(), c.newLabel()
	c.br(isa.OpBEQ, cnd, isa.ZR, lElse)
	c.ints.free(cnd)
	c.stmts(st.Then)
	c.br(isa.OpB, 0, 0, lEnd)
	c.bind(lElse)
	c.stmts(st.Else)
	c.bind(lEnd)
}

// cond evaluates a comparison into a fresh 0/1 int register.
func (c *compiler) cond(cd ir.Cond) isa.Reg {
	l, lo := c.expr(cd.L)
	r, ro := c.expr(cd.R)
	d := c.ints.alloc()
	var op isa.Opcode
	switch cd.Op {
	case ir.LT:
		op = isa.OpFSLT
	case ir.LE:
		op = isa.OpFSLE
	case ir.EQ:
		op = isa.OpFSEQ
	default:
		panic(fmt.Sprintf("unknown comparison %d", cd.Op))
	}
	c.emit(isa.Inst{Op: op, Rd: d, Ra: l, Rb: r})
	if lo {
		c.fps.free(l)
	}
	if ro {
		c.fps.free(r)
	}
	return d
}

// expr evaluates a scalar expression; owned tells the caller whether to
// free the returned register.
func (c *compiler) expr(e ir.Expr) (reg isa.Reg, owned bool) {
	switch ex := e.(type) {
	case ir.ConstF:
		r := c.fps.alloc()
		c.emit(isa.Inst{Op: isa.OpFMOVI, Rd: r, Imm: isa.BitsFromF32(ex.V)})
		return r, true
	case ir.ParamRef:
		r, ok := c.paramReg[ex.Name]
		if !ok {
			panic(fmt.Sprintf("unknown parameter %q", ex.Name))
		}
		return r, false
	case ir.Load:
		r := c.fps.alloc()
		c.emitMem(isa.OpFLDR, isa.OpFLDRX, r, c.memRef(ex.Arr, ex.Idx))
		return r, true
	case ir.Bin:
		l, lo := c.expr(ex.L)
		r, ro := c.expr(ex.R)
		// Reuse an owned operand as the destination when possible.
		var d isa.Reg
		switch {
		case lo:
			d = l
		case ro:
			d = r
		default:
			d = c.fps.alloc()
		}
		c.emit(isa.Inst{Op: scalarBinOp(ex.Op), Rd: d, Ra: l, Rb: r})
		if lo && d != l {
			c.fps.free(l)
		}
		if ro && d != r {
			c.fps.free(r)
		}
		return d, true
	case ir.Ternary:
		cnd := c.cond(ex.Cond)
		t, to := c.expr(ex.Then)
		res, eo := c.expr(ex.Else)
		if !eo { // FSEL overwrites its destination; it must be ours
			cp := c.fps.alloc()
			c.emit(isa.Inst{Op: isa.OpFMOV, Rd: cp, Ra: res})
			res = cp
		}
		c.emit(isa.Inst{Op: isa.OpFSEL, Rd: res, Ra: cnd, Rb: t})
		c.ints.free(cnd)
		if to {
			c.fps.free(t)
		}
		return res, true
	default:
		panic(fmt.Sprintf("unknown expression %T", e))
	}
}

func scalarBinOp(op ir.BinOp) isa.Opcode {
	switch op {
	case ir.Add:
		return isa.OpFADD
	case ir.Sub:
		return isa.OpFSUB
	case ir.Mul:
		return isa.OpFMUL
	case ir.Div:
		return isa.OpFDIV
	case ir.Min:
		return isa.OpFMIN
	case ir.Max:
		return isa.OpFMAX
	}
	panic(fmt.Sprintf("unknown binop %d", op))
}

// byteAff folds a multi-dimensional subscript into one affine byte offset
// from the array base.
func byteAff(arr *ir.Array, idx []ir.Aff) ir.Aff {
	if len(idx) != len(arr.Dims) {
		panic(fmt.Sprintf("array %s indexed with %d subscripts, has %d dims", arr.Name, len(idx), len(arr.Dims)))
	}
	strides := arr.Strides()
	total := ir.Aff{}
	for d, ix := range idx {
		total = total.Plus(scaleAff(ix, strides[d]*4))
	}
	return total
}

func scaleAff(a ir.Aff, k int) ir.Aff {
	out := ir.Aff{Const: a.Const * k}
	for _, t := range a.Terms {
		out.Terms = append(out.Terms, ir.Term{Var: t.Var, Coef: t.Coef * k})
	}
	return out
}

// hoistKey identifies a hoistable invariant address part.
func hoistKey(arr *ir.Array, invTerms []ir.Term) string {
	k := arr.Name
	for _, t := range invTerms {
		k += fmt.Sprintf("|%s*%d", t.Var, t.Coef)
	}
	return k
}

// termsWithout splits aff.Terms into (terms not using v, coefficient of v).
func termsWithout(aff ir.Aff, v string) ([]ir.Term, int) {
	var inv []ir.Term
	coef := 0
	for _, t := range aff.Terms {
		if t.Var == v {
			coef += t.Coef
		} else {
			inv = append(inv, t)
		}
	}
	return inv, coef
}

// sumTerms emits base + sum(terms) into a fresh register.
func (c *compiler) sumTerms(base isa.Reg, terms []ir.Term) isa.Reg {
	tmp := c.ints.alloc()
	first := true
	for _, t := range terms {
		vr, ok := c.loopVar[t.Var]
		if !ok {
			panic(fmt.Sprintf("subscript references unknown loop var %q", t.Var))
		}
		var term isa.Reg
		scratch := isa.Reg(0)
		usedScratch := false
		if t.Coef == 1 {
			term = vr
		} else {
			if first {
				scratch = tmp
			} else {
				scratch = c.ints.alloc()
				usedScratch = true
			}
			if k, pow2 := log2of(t.Coef); pow2 {
				c.emit(isa.Inst{Op: isa.OpLSLI, Rd: scratch, Ra: vr, Imm: int32(k)})
			} else {
				c.emit(isa.Inst{Op: isa.OpMULI, Rd: scratch, Ra: vr, Imm: int32(t.Coef)})
			}
			term = scratch
		}
		if first {
			c.emit(isa.Inst{Op: isa.OpADD, Rd: tmp, Ra: base, Rb: term})
			first = false
		} else {
			c.emit(isa.Inst{Op: isa.OpADD, Rd: tmp, Ra: tmp, Rb: term})
		}
		if usedScratch {
			c.ints.free(scratch)
		}
	}
	if first { // no terms at all
		c.emit(isa.Inst{Op: isa.OpADDI, Rd: tmp, Ra: base, Imm: 0})
	}
	return tmp
}

// memRef lowers an array subscript to its cheapest addressing form,
// preferring a hoisted invariant base plus an indexed register.
func (c *compiler) memRef(arr *ir.Array, idx []ir.Aff) memref {
	aff := byteAff(arr, idx)
	ab, ok := c.arrayBase[arr]
	if !ok {
		panic(fmt.Sprintf("array %s not in this kernel", arr.Name))
	}

	base := ab
	terms := aff.Terms
	if c.hoistVar != "" {
		if inv, coef := termsWithout(aff, c.hoistVar); len(inv) > 0 {
			if hr, ok := c.hoists[hoistKey(arr, inv)]; ok {
				base = hr
				terms = nil
				if coef != 0 {
					terms = []ir.Term{{Var: c.hoistVar, Coef: coef}}
				}
			}
		}
	}

	if len(terms) == 0 {
		return memref{base: base, off: int32(aff.Const)}
	}
	if len(terms) == 1 && aff.Const == 0 {
		if k, pow2 := log2of(terms[0].Coef); pow2 {
			vr, ok := c.loopVar[terms[0].Var]
			if !ok {
				panic(fmt.Sprintf("subscript references unknown loop var %q", terms[0].Var))
			}
			return memref{base: base, index: vr, shift: int32(k), hasIndex: true}
		}
	}
	tmp := c.sumTerms(base, terms)
	return memref{base: tmp, off: int32(aff.Const), ownedBase: true}
}

// emitMem emits the memory instruction for ref, choosing the indexed
// form when available. op is the base+offset opcode; xop its indexed
// twin (OpInvalid if none, e.g. PLD).
func (c *compiler) emitMem(op, xop isa.Opcode, reg isa.Reg, ref memref) {
	if ref.hasIndex {
		if xop != isa.OpInvalid {
			c.emit(isa.Inst{Op: xop, Rd: reg, Ra: ref.base, Rb: ref.index, Imm: ref.shift})
			return
		}
		tmp := c.ints.alloc()
		c.emit(isa.Inst{Op: isa.OpLSLI, Rd: tmp, Ra: ref.index, Imm: ref.shift})
		c.emit(isa.Inst{Op: isa.OpADD, Rd: tmp, Ra: tmp, Rb: ref.base})
		c.emit(isa.Inst{Op: op, Rd: reg, Ra: tmp, Imm: 0})
		c.ints.free(tmp)
		return
	}
	c.emit(isa.Inst{Op: op, Rd: reg, Ra: ref.base, Imm: ref.off})
	if ref.ownedBase {
		c.ints.free(ref.base)
	}
}

// accessRefs lists every (array, subscript) a statement subtree touches;
// used to plan innermost-loop address hoisting.
func accessRefs(ss []ir.Stmt, visit func(arr *ir.Array, idx []ir.Aff)) {
	var onExpr func(e ir.Expr)
	onExpr = func(e ir.Expr) {
		walkLoads(e, func(ld ir.Load) { visit(ld.Arr, ld.Idx) })
	}
	var onStmt func(s ir.Stmt)
	onStmt = func(s ir.Stmt) {
		switch st := s.(type) {
		case ir.Assign:
			visit(st.Arr, st.Idx)
			onExpr(st.RHS)
		case ir.Prefetch:
			visit(st.Arr, st.Idx)
		case ir.If:
			onExpr(st.Cond.L)
			onExpr(st.Cond.R)
			for _, t := range st.Then {
				onStmt(t)
			}
			for _, t := range st.Else {
				onStmt(t)
			}
		case ir.Loop:
			for _, t := range st.Body {
				onStmt(t)
			}
		}
	}
	for _, s := range ss {
		onStmt(s)
	}
}

func log2of(n int) (int, bool) {
	if n <= 0 || n&(n-1) != 0 {
		return 0, false
	}
	k := 0
	for 1<<uint(k) < n {
		k++
	}
	return k, true
}
