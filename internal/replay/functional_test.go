// Soundness golden for the functional digest the persistent store keys
// on (Cache.Digest, DESIGN.md §7.7). The digest hashes a kernel
// variant's inputs — program and initial state — instead of its trace,
// so it cannot see a change to the interpreter, the capture machinery
// or compiler metadata that moves the trace under unchanged inputs.
// This test pins both digests for every kernel variant the registered
// design spaces and named configurations reach, and fails with "bump
// FunctionalVersion" when a trace moves under an unchanged key.
//
// Regenerate after an intended change with
//
//	go test ./internal/replay -run TestFunctionalDigests -update
package replay

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"sttdl1/internal/compile"
	"sttdl1/internal/dse"
	"sttdl1/internal/ir"
	"sttdl1/internal/isa"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/functional_digests.txt from the current code")

const digestsFile = "testdata/functional_digests.txt"

// reachableOptions lists the distinct compile options of every point of
// every registered design space and of its penalty baseline, plus the
// named configurations with and without the paper's optimizations
// (`sttexplore bench [-opt]`). Spaces are walked axis by axis keeping
// one configuration per distinct option set, so the mega space's 144k
// points cost a few dozen Apply calls; constraints are ignored, which
// can only add variants.
func reachableOptions() []compile.Options {
	seen := map[compile.Options]bool{}
	var out []compile.Options
	add := func(cfg sim.Config) {
		if o := sim.CompileOptions(cfg); !seen[o] {
			seen[o] = true
			out = append(out, o)
		}
	}
	for _, sp := range dse.Spaces() {
		frontier := []sim.Config{sp.Base()}
		for _, ax := range sp.Axes {
			var next []sim.Config
			local := map[compile.Options]bool{}
			for _, cfg := range frontier {
				for _, v := range ax.Values {
					c := cfg
					if v.Apply != nil {
						v.Apply(&c)
					}
					if o := sim.CompileOptions(c); !local[o] {
						local[o] = true
						next = append(next, c)
					}
				}
			}
			frontier = next
		}
		for _, cfg := range frontier {
			add(cfg)
			add(sp.BaselineFor(cfg))
		}
	}
	for _, mk := range []func() sim.Config{sim.BaselineSRAM, sim.DropInSTT, sim.ProposalVWB} {
		cfg := mk()
		add(cfg)
		cfg.Compile = compile.AllOptimizations()
		add(cfg)
	}
	return out
}

// digestLine is one golden entry: a kernel variant's cache key, its
// functional digest and the SHA-256 of its encoded trace.
type digestLine struct {
	variant, functional, trace string
}

// variantLabel names a kernel variant in the golden file: its
// benchmark, problem size and every compile option.
func variantLabel(b polybench.Bench, opts compile.Options) string {
	return fmt.Sprintf("%s@%d|v%t_p%t_b%t_a%t_i%t_s%d_l%d", b.Name, b.Default,
		opts.Vectorize, opts.Prefetch, opts.Branchless, opts.Align,
		opts.Interchange, opts.PrefetchStreams, opts.LineSize)
}

// currentDigests computes every golden entry from the current code.
// Each variant gets a fresh cache, so at most one trace is live at a
// time.
func currentDigests(t *testing.T) []digestLine {
	t.Helper()
	ctx := context.Background()
	var out []digestLine
	variants := reachableOptions()
	for _, b := range polybench.All() {
		for _, opts := range variants {
			c := NewCache()
			fd, err := c.Digest(ctx, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			_, tr, err := c.Trace(ctx, b, opts)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			if err := Encode(h, tr); err != nil {
				t.Fatal(err)
			}
			out = append(out, digestLine{variantLabel(b, opts), hex.EncodeToString(fd[:]), hex.EncodeToString(h.Sum(nil))})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].variant < out[j].variant })
	return out
}

func TestFunctionalDigests(t *testing.T) {
	got := currentDigests(t)
	if *update {
		var sb strings.Builder
		sb.WriteString("# bench@size|compile-options functional-digest trace-sha256\n")
		sb.WriteString("# regenerate: go test ./internal/replay -run TestFunctionalDigests -update\n")
		for _, l := range got {
			fmt.Fprintf(&sb, "%s %s %s\n", l.variant, l.functional, l.trace)
		}
		if err := os.MkdirAll(filepath.Dir(digestsFile), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestsFile, []byte(sb.String()), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}

	f, err := os.Open(digestsFile)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	defer f.Close()
	want := map[string]digestLine{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fs := strings.Fields(line)
		if len(fs) != 3 {
			t.Fatalf("malformed golden line %q", line)
		}
		want[fs[0]] = digestLine{fs[0], fs[1], fs[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	for _, g := range got {
		w, ok := want[g.variant]
		delete(want, g.variant)
		switch {
		case !ok:
			t.Errorf("%s: no golden line; regenerate with -update", g.variant)
		case g.functional == w.functional && g.trace != w.trace:
			t.Errorf("%s: trace moved but the functional digest did not: bump FunctionalVersion "+
				"(an interpreter, capture or compiler-metadata change the store key cannot see), then regenerate with -update",
				g.variant)
		case g.functional != w.functional:
			t.Errorf("%s: functional digest moved (trace moved: %t); regenerate with -update",
				g.variant, g.trace != w.trace)
		}
	}
	for v := range want {
		t.Errorf("%s: golden line for a variant no longer reachable; regenerate with -update", v)
	}
}

// TestFunctionalDigestLayout pins the digest's preimage layout
// independently of functionalDigest: it assembles the version 2
// preimage byte by byte from the compiled program, its encoding and its
// initial data segment, and checks Cache.Digest against its SHA-256.
// Every field but the last is a little-endian uint64 length followed by
// the bytes: the version tag, the program name, the encoded program,
// the decimal data-segment size and the initial data segment. The last
// is the stack's length alone, since the stack is always zeros.
func TestFunctionalDigestLayout(t *testing.T) {
	for _, tc := range []struct {
		bench string
		opts  compile.Options
	}{
		{"atax", compile.Options{LineSize: 64}},
		{"gemm", compile.AllOptimizations()},
		{"jacobi2d", compile.Options{Prefetch: true, PrefetchStreams: 2, LineSize: 64}},
	} {
		b, ok := polybench.ByName(tc.bench)
		if !ok {
			t.Fatalf("no benchmark %s", tc.bench)
		}
		ck, err := compile.Compile(b.Kernel(), tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		code, err := isa.EncodeProgram(ck.Prog)
		if err != nil {
			t.Fatal(err)
		}
		data := make([]byte, ck.Prog.DataSize)
		if err := ir.InitData(ck.Kernel, data); err != nil {
			t.Fatal(err)
		}
		var pre []byte
		for _, f := range [][]byte{
			[]byte("sttfunc/v2"),
			[]byte(ck.Prog.Name),
			code,
			[]byte(fmt.Sprint(ck.Prog.DataSize)),
			data,
		} {
			pre = binary.LittleEndian.AppendUint64(pre, uint64(len(f)))
			pre = append(pre, f...)
		}
		pre = binary.LittleEndian.AppendUint64(pre, 64<<10)
		want := sha256.Sum256(pre)

		got, err := NewCache().Digest(context.Background(), b, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: Cache.Digest = %x, hand-built v2 preimage hashes to %x", tc.bench, got, want)
		}
	}
}
