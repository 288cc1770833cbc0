// Package ir is a small loop-nest intermediate representation for the
// PolyBench-style kernels the paper evaluates: perfectly or imperfectly
// nested counted loops over multi-dimensional float32 arrays with affine
// subscripts, plus data-dependent conditionals.
//
// The kernels are authored in this IR; internal/compile lowers it to
// ARMlet and applies the paper's code transformations (vectorization,
// prefetch insertion, branch removal, alignment) on it. The package also
// contains a reference evaluator (eval.go) that executes the IR directly
// on float32 data — the oracle against which compiled code is checked.
package ir

import "fmt"

// Array is a float32 array in the kernel's data segment.
type Array struct {
	Name string
	Dims []int
	// Init gives the element value at idx before the kernel runs
	// (PolyBench-style deterministic initialization); it must not modify
	// idx. nil means zero.
	Init func(idx []int) float32
	// Base is the byte address assigned by Layout.
	Base uint32
	// Out marks arrays whose final contents are the kernel's result
	// (used by validation and result hashing).
	Out bool
}

// Elems is the total element count.
func (a *Array) Elems() int {
	n := 1
	for _, d := range a.Dims {
		n *= d
	}
	return n
}

// Strides returns the row-major element stride of each dimension.
func (a *Array) Strides() []int {
	s := make([]int, len(a.Dims))
	st := 1
	for d := len(a.Dims) - 1; d >= 0; d-- {
		s[d] = st
		st *= a.Dims[d]
	}
	return s
}

// Param is a scalar float32 kernel parameter (alpha, beta, ...).
type Param struct {
	Name  string
	Value float32
}

// Term is one coefficient*variable product of an affine expression.
type Term struct {
	Var  string
	Coef int
}

// Aff is an affine integer expression: Const + sum(Coef*Var).
type Aff struct {
	Const int
	Terms []Term
}

// C makes a constant affine expression.
func C(c int) Aff { return Aff{Const: c} }

// V makes a single-variable affine expression.
func V(v string) Aff { return Aff{Terms: []Term{{Var: v, Coef: 1}}} }

// VC makes coef*v + c.
func VC(v string, coef, c int) Aff { return Aff{Const: c, Terms: []Term{{Var: v, Coef: coef}}} }

// Plus returns a + b.
func (a Aff) Plus(b Aff) Aff {
	out := Aff{Const: a.Const + b.Const}
	out.Terms = append(out.Terms, a.Terms...)
	out.Terms = append(out.Terms, b.Terms...)
	return out.normalize()
}

// AddConst returns a + c.
func (a Aff) AddConst(c int) Aff {
	a.Const += c
	return a
}

func (a Aff) normalize() Aff {
	coef := map[string]int{}
	order := []string{}
	for _, t := range a.Terms {
		if _, seen := coef[t.Var]; !seen {
			order = append(order, t.Var)
		}
		coef[t.Var] += t.Coef
	}
	out := Aff{Const: a.Const}
	for _, v := range order {
		if coef[v] != 0 {
			out.Terms = append(out.Terms, Term{Var: v, Coef: coef[v]})
		}
	}
	return out
}

// CoefOf returns the coefficient of var v (0 if absent).
func (a Aff) CoefOf(v string) int {
	c := 0
	for _, t := range a.Terms {
		if t.Var == v {
			c += t.Coef
		}
	}
	return c
}

// UsesVar reports whether v appears with a nonzero coefficient.
func (a Aff) UsesVar(v string) bool { return a.CoefOf(v) != 0 }

func (a Aff) String() string {
	s := ""
	for _, t := range a.Terms {
		if s != "" {
			s += "+"
		}
		if t.Coef == 1 {
			s += t.Var
		} else {
			s += fmt.Sprintf("%d*%s", t.Coef, t.Var)
		}
	}
	if a.Const != 0 || s == "" {
		if s != "" {
			s += fmt.Sprintf("%+d", a.Const)
		} else {
			s = fmt.Sprintf("%d", a.Const)
		}
	}
	return s
}

// Bound is a loop bound: Const, or Const + Var (an enclosing loop
// variable), covering PolyBench's rectangular and triangular loops.
type Bound struct {
	Const int
	Var   string // "" for a constant bound
}

// BC makes a constant bound.
func BC(c int) Bound { return Bound{Const: c} }

// BV makes the bound var+c.
func BV(v string, c int) Bound { return Bound{Const: c, Var: v} }

func (b Bound) String() string {
	if b.Var == "" {
		return fmt.Sprintf("%d", b.Const)
	}
	if b.Const == 0 {
		return b.Var
	}
	return fmt.Sprintf("%s%+d", b.Var, b.Const)
}

// ---- Expressions ----

// Expr is a float32-valued expression.
type Expr interface{ exprNode() }

// ConstF is a float32 literal.
type ConstF struct{ V float32 }

// ParamRef reads a scalar kernel parameter.
type ParamRef struct{ Name string }

// Load reads Arr[Idx...].
type Load struct {
	Arr *Array
	Idx []Aff
}

// BinOp is a binary float operation.
type BinOp uint8

// Binary operations.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	Min
	Max
)

var binNames = [...]string{"+", "-", "*", "/", "min", "max"}

func (o BinOp) String() string { return binNames[o] }

// Bin applies Op to L and R.
type Bin struct {
	Op   BinOp
	L, R Expr
}

// CmpOp is a float comparison.
type CmpOp uint8

// Comparison operations.
const (
	LT CmpOp = iota
	LE
	EQ
)

var cmpNames = [...]string{"<", "<=", "=="}

func (o CmpOp) String() string { return cmpNames[o] }

// Cond is a boolean condition over float expressions.
type Cond struct {
	Op   CmpOp
	L, R Expr
}

// Ternary is Cond ? Then : Else — the branchless (predicated) form the
// Branchless pass produces from an If.
type Ternary struct {
	Cond       Cond
	Then, Else Expr
}

func (ConstF) exprNode()   {}
func (ParamRef) exprNode() {}
func (Load) exprNode()     {}
func (Bin) exprNode()      {}
func (Ternary) exprNode()  {}

// ---- Statements ----

// Stmt is a kernel statement.
type Stmt interface{ stmtNode() }

// Assign stores RHS into Arr[Idx...].
type Assign struct {
	Arr *Array
	Idx []Aff
	RHS Expr
}

// Loop is a counted loop: for Var = Lo; Var < Hi; Var += Step.
type Loop struct {
	Var    string
	Lo, Hi Bound
	// Step is 1 unless a transformation rewrote the loop.
	Step int
	Body []Stmt
	// Vectorizable is the kernel author's pragma ("we identify the
	// critical data and loops and vectorize them", paper §V); the
	// vectorizer still verifies legality before honoring it.
	Vectorizable bool
	// IVDep additionally asserts, on the author's authority (the moral
	// equivalent of #pragma ivdep), that cross-statement array aliases
	// in this loop carry no lane-order dependence, letting the
	// vectorizer skip its conservative alias rejection. Floyd-Warshall
	// and triangular solves need it.
	IVDep bool
	// InterchangeOK marks a loop whose single directly nested loop may
	// be legally interchanged with it (author pragma; the interchange
	// pass also checks the structural conditions). Used to turn
	// column-walk nests into vectorizable row walks — the "systematic
	// approach" the paper's §V leaves as future work.
	InterchangeOK bool
}

// If executes Then or Else depending on Cond (data-dependent control
// flow; the Branchless pass removes these in innermost loops).
type If struct {
	Cond Cond
	Then []Stmt
	Else []Stmt
}

// Prefetch is a software-prefetch hint for the line holding Arr[Idx...];
// it has no functional semantics. Inserted by the prefetch pass.
type Prefetch struct {
	Arr *Array
	Idx []Aff
}

func (Assign) stmtNode()   {}
func (Loop) stmtNode()     {}
func (If) stmtNode()       {}
func (Prefetch) stmtNode() {}

// Kernel is one benchmark: arrays, scalar parameters, and a loop nest.
type Kernel struct {
	Name   string
	Arrays []*Array
	Params []Param
	Body   []Stmt
}

// Array returns the kernel array named name, or nil.
func (k *Kernel) Array(name string) *Array {
	for _, a := range k.Arrays {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Param returns the value of the named scalar parameter.
func (k *Kernel) Param(name string) (float32, bool) {
	for _, p := range k.Params {
		if p.Name == name {
			return p.Value, true
		}
	}
	return 0, false
}

// StepOf returns the loop step (1 for the zero value).
func (l *Loop) StepOf() int {
	if l.Step == 0 {
		return 1
	}
	return l.Step
}
