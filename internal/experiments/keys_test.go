package experiments

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"sttdl1/internal/compile"
	"sttdl1/internal/dse"
	"sttdl1/internal/energy"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
	"sttdl1/internal/store"
)

// TestSuiteKeyMemo checks the suite's key memo against fresh renderings
// for every point and baseline of every registered space, with Check
// off and on: the run key, the canonical key and the model key a suite
// hands out must be the ones sim.CanonicalKey and energy.ModelKey
// render, on the first lookup and on every memo hit after it. The mega
// space's 144k points are walked in blocks of fresh suites to keep the
// memo small; under the race detector every 64th of them is.
func TestSuiteKeyMemo(t *testing.T) {
	const block = 4096
	b := storeBench(t)
	for _, sp := range dse.Spaces() {
		pts := sp.Enumerate()
		stride := 1
		if raceEnabled && len(pts) > block {
			stride = 64
		}
		for _, check := range []bool{false, true} {
			var s *Suite
			for i := 0; i < len(pts); i += stride {
				if i%block < stride {
					s = NewSuiteJobs([]polybench.Bench{b}, 1)
					s.SetCheck(check)
				}
				for _, cfg := range []sim.Config{pts[i].Config, sp.BaselineFor(pts[i].Config)} {
					cfg = s.applyCheck(cfg)
					canon := sim.CanonicalKey(cfg)
					model, err := energy.ModelKey(cfg)
					for pass := 0; pass < 2; pass++ {
						key, k := s.runKey(b, cfg)
						if key != benchKey(b)+"|"+canon || k.canon != canon {
							t.Fatalf("%s %s check=%t pass %d: run key %q, canonical %q; want canonical %q",
								sp.Name, pts[i].Label, check, pass, key, k.canon, canon)
						}
						if k.model != model || k.modelOK != (err == nil) {
							t.Fatalf("%s %s check=%t pass %d: model key %q (ok %t), want %q (err %v)",
								sp.Name, pts[i].Label, check, pass, k.model, k.modelOK, model, err)
						}
					}
				}
			}
		}
	}
}

// TestKeysRenderedOnlyInMemo keeps the memo the package's only renderer
// of configuration keys: a call to sim.CanonicalKey,
// sim.WriteCanonicalKey or energy.ModelKey anywhere else in the
// package's non-test sources would render a key per lookup again.
func TestKeysRenderedOnlyInMemo(t *testing.T) {
	renderers := map[string]bool{
		"sim.CanonicalKey": true, "sim.WriteCanonicalKey": true, "energy.ModelKey": true,
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			inMemo := false
			if fn.Recv != nil && fn.Name.Name == "get" {
				if star, ok := fn.Recv.List[0].Type.(*ast.StarExpr); ok {
					id, ok := star.X.(*ast.Ident)
					inMemo = ok && id.Name == "keyMemo"
				}
			}
			ast.Inspect(fn, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				pkg, ok := sel.X.(*ast.Ident)
				if !ok || !renderers[pkg.Name+"."+sel.Sel.Name] {
					return true
				}
				if !inMemo {
					t.Errorf("%s: %s.%s in %s: render configuration keys through the suite's keyMemo",
						fset.Position(sel.Pos()), pkg.Name, sel.Sel.Name, fn.Name.Name)
				}
				found++
				return true
			})
		}
	}
	if found == 0 {
		t.Error("no key rendering found at all; the scan no longer sees keyMemo.get")
	}
}

// TestWarmSweepSchedule sweeps smoke at 2 jobs from a fresh suite
// against a populated store: it runs no capture, compiles each kernel
// variant exactly once (resolveDigests leads the compiles, the tasks
// join them), and leaves no goroutine behind once Prefetch returns.
func TestWarmSweepSchedule(t *testing.T) {
	dir := t.TempDir()
	atax := storeBench(t)
	gemver, ok := polybench.ByName("gemver")
	if !ok {
		t.Fatal("benchmark gemver not registered")
	}
	gemver.Default = atax.Default
	benches := []polybench.Bench{atax, gemver}
	smokeCSV(t, benches, dir)

	sp := dse.Smoke()
	var cfgs []sim.Config
	type variantKey struct {
		bench string
		opts  compile.Options
	}
	variants := map[variantKey]bool{}
	for _, pt := range sp.Enumerate() {
		for _, cfg := range []sim.Config{pt.Config, sp.BaselineFor(pt.Config)} {
			cfgs = append(cfgs, cfg)
			for _, b := range benches {
				variants[variantKey{benchKey(b), sim.CompileOptions(cfg)}] = true
			}
		}
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuiteJobs(benches, 2)
	s.SetStore(st)
	start := runtime.NumGoroutine()
	if err := s.Prefetch(benches, cfgs...); err != nil {
		t.Fatal(err)
	}
	// A goroutine that has signalled its WaitGroup may still be exiting;
	// give those a moment, but nothing may stay.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > start && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n != start {
		t.Errorf("%d goroutine(s) after Prefetch returned, %d before", n, start)
	}
	if got := s.Captures(); got != 0 {
		t.Errorf("warm sweep performed %d capture(s), want 0", got)
	}
	if got := s.traces.Compiles(); got != len(variants) {
		t.Errorf("warm sweep compiled %d time(s), want once per kernel variant (%d)", got, len(variants))
	}
	if stats := st.Stats(); stats.Misses != 0 || stats.Hits == 0 {
		t.Errorf("warm sweep store stats = %+v, want all hits", stats)
	}
}
