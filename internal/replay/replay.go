// Package replay runs simulations trace-first: each kernel is compiled
// and functionally executed exactly once per (benchmark, problem size,
// compile options), and every design point then re-runs only the timing
// model over the captured retired-instruction stream (cpu.Trace,
// DESIGN.md §7.4). Compile results and traces are memoized through the
// same singleflight engine as simulation results (internal/runner), so
// at any -j the workers sweeping a design space share one compile and
// one capture per kernel variant.
package replay

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"
	"sync/atomic"

	"sttdl1/internal/compile"
	"sttdl1/internal/cpu"
	"sttdl1/internal/ir"
	"sttdl1/internal/isa"
	"sttdl1/internal/polybench"
	"sttdl1/internal/runner"
	"sttdl1/internal/sim"
)

// FunctionalVersion versions the functional digest (Cache.Digest). The
// digest hashes the inputs that determine a kernel variant's trace —
// the encoded program and its initial memory image — so it
// cannot see a change to the machinery that turns those inputs into a
// trace. Bump it whenever the functional interpreter, trace capture or
// a compile.Compiled field that reaches a RunResult changes meaning, and
// whenever the digest's own layout changes (version 2 hashes the stack's
// length instead of its zero bytes); TestFunctionalDigests fails with
// "bump FunctionalVersion" when a trace moves under an unchanged digest.
const FunctionalVersion = 2

// variant is one compiled kernel variant and its functional digest.
type variant struct {
	ck     *compile.Compiled
	digest [sha256.Size]byte
}

// Cache memoizes compiled kernels and their execution traces. Keys cover
// everything the functional execution depends on — benchmark, problem
// size, compile options — and deliberately nothing the timing model
// depends on: the whole point is that one trace serves every cache and
// core configuration. Each variant is compiled once; the capture runs
// only when Trace asks for it, so a sweep served entirely from the
// persistent store never executes a kernel. Safe for concurrent use.
type Cache struct {
	compiles *runner.Pool[string, variant]
	traces   *runner.Pool[string, *cpu.Trace]
	captures atomic.Int64
	compiled atomic.Int64
	// warmUps counts the warm-up passes of the replays run through the
	// cache (a member that copied its warm group's state ran none).
	warmUps atomic.Int64
}

// NewCache builds an empty trace cache. Compiles and captures fan out
// over up to GOMAXPROCS goroutines each; callers nested inside another
// runner.Pool are fine because these tasks never wait on the caller's
// pool, and a capture resolves its compile before taking a slot.
func NewCache() *Cache {
	return &Cache{
		compiles: runner.New[string, variant](0),
		traces:   runner.New[string, *cpu.Trace](0),
	}
}

// key identifies one functional execution. The problem size must be in
// the key (not just the benchmark name) because tests rebind
// Bench.Default; the compile options must be in the key because every
// transformation changes the instruction stream.
func key(b polybench.Bench, opts compile.Options) string {
	return b.Name + "@" + strconv.Itoa(b.Default) + "|" + sim.CompileKey(opts)
}

// Trace returns the compiled kernel and captured trace for b under opts,
// compiling and capturing on first use and memoizing forever. Concurrent
// requests for the same kernel variant share one capture.
func (c *Cache) Trace(ctx context.Context, b polybench.Bench, opts compile.Options) (*compile.Compiled, *cpu.Trace, error) {
	k := key(b, opts)
	v, err := c.variant(ctx, k, b, opts)
	if err != nil {
		return nil, nil, err
	}
	tr, err := c.traces.DoLabeled(ctx, k, "capture "+b.Name,
		func(context.Context) (*cpu.Trace, error) {
			c.captures.Add(1)
			return sim.CaptureTrace(v.ck)
		})
	if err != nil {
		return nil, nil, fmt.Errorf("replay: %w", err)
	}
	return v.ck, tr, nil
}

// Digest returns the functional digest of b under opts: SHA-256 over
// length-delimited fields for FunctionalVersion, the program name, the
// encoded program, its data-segment size, the initial data segment and
// the stack's length (sim.InitialState's image, hashed without building
// a State) — every input the captured trace is a function of. It
// compiles (memoized, shared with Trace) on first use but never
// captures, which is what lets a stored evaluation be found without
// executing the kernel. The persistent store keys on it
// (internal/store); TestFunctionalDigests pins it against the trace
// bytes it stands in for.
func (c *Cache) Digest(ctx context.Context, b polybench.Bench, opts compile.Options) ([sha256.Size]byte, error) {
	v, err := c.variant(ctx, key(b, opts), b, opts)
	if err != nil {
		return [sha256.Size]byte{}, err
	}
	return v.digest, nil
}

// Captures returns how many functional captures the cache has
// performed (memoized and deduplicated requests not counted).
func (c *Cache) Captures() int { return int(c.captures.Load()) }

// Compiles returns how many kernel variants the cache has compiled
// (memoized and deduplicated requests not counted).
func (c *Cache) Compiles() int { return int(c.compiled.Load()) }

// WarmUps returns how many warm-up passes the replays run through the
// cache have performed.
func (c *Cache) WarmUps() int { return int(c.warmUps.Load()) }

// variant is the shared memoized compile + functional digest.
func (c *Cache) variant(ctx context.Context, k string, b polybench.Bench, opts compile.Options) (variant, error) {
	v, err := c.compiles.DoLabeled(ctx, k, "compile "+b.Name,
		func(context.Context) (variant, error) {
			c.compiled.Add(1)
			ck, err := compile.Compile(b.Kernel(), opts)
			if err != nil {
				return variant{}, err
			}
			d, err := functionalDigest(ck)
			if err != nil {
				return variant{}, err
			}
			return variant{ck: ck, digest: d}, nil
		})
	if err != nil {
		return variant{}, fmt.Errorf("replay: %w", err)
	}
	return v, nil
}

// functionalDigest hashes the inputs that determine ck's trace (see
// Digest). Fields are length-delimited so no two distinct field tuples
// collide by concatenation. The image is sim.InitialState's memory: the
// data segment ir.InitData fills, hashed as a field, and the stack above
// it, which is always cpu.StackBytes of zeros and so is hashed as its
// length alone. A State is built only for a capture or a live run.
func functionalDigest(ck *compile.Compiled) ([sha256.Size]byte, error) {
	code, err := isa.EncodeProgram(ck.Prog)
	if err != nil {
		return [sha256.Size]byte{}, fmt.Errorf("digest: %w", err)
	}
	data := make([]byte, ck.Prog.DataSize)
	if err := ir.InitData(ck.Kernel, data); err != nil {
		return [sha256.Size]byte{}, err
	}
	h := sha256.New()
	var n [8]byte
	length := func(l int) {
		binary.LittleEndian.PutUint64(n[:], uint64(l))
		h.Write(n[:])
	}
	field := func(p []byte) {
		length(len(p))
		h.Write(p)
	}
	field([]byte("sttfunc/v" + strconv.Itoa(FunctionalVersion)))
	field([]byte(ck.Prog.Name))
	field(code)
	field(strconv.AppendInt(nil, int64(ck.Prog.DataSize), 10))
	field(data)
	length(cpu.StackBytes)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d, nil
}

// Run executes bench b under cfg by timing replay: RunGang of one
// configuration. The result is byte-identical to sim.Run for the same
// inputs.
func Run(ctx context.Context, c *Cache, b polybench.Bench, cfg sim.Config) (*sim.RunResult, error) {
	rs, _, err := RunGang(ctx, c, b, []sim.Config{cfg}, nil)
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// finish counts the warm-ups sys ran and releases its caches for the
// next system: every replay here builds its own systems and hands back
// only RunResults, which hold no reference into them.
func (c *Cache) finish(sys *sim.System) {
	c.warmUps.Add(int64(sys.WarmUps()))
	sys.Release()
}

// cancelCtl merges ctx cancellation into a partial-replay control
// block: with a cancellable ctx the replay probes ctx.Err periodically
// and abandons the pass when it turns non-nil. A Background-like ctx
// (Done() == nil) adds no control at all, keeping the common path's
// zero-overhead nil-ctl replay. An Interrupt the caller installed
// itself wins over the ctx probe.
func cancelCtl(ctx context.Context, ctl *sim.ReplayCtl) *sim.ReplayCtl {
	if ctx.Done() == nil || (ctl != nil && ctl.Interrupt != nil) {
		return ctl
	}
	var out sim.ReplayCtl
	if ctl != nil {
		out = *ctl
	}
	out.Interrupt = func() error { return ctx.Err() }
	return &out
}

// RunGang executes bench b under a batch of configurations by timing
// replay (sim.ReplayGroup: shared warm-ups, then one trace walk per
// member and pass): the memoized compile + capture once, one fresh
// system per configuration, then the group replay under ctl; the
// systems are released once the results are assembled. Results are in
// cfgs order and each is byte-identical to Run of the same (b, cfg). All configurations must
// share CompileOptions — they would not share a trace otherwise — and a
// mismatch is an error, not a silent split.
//
// ctl may truncate the replay or abort it early (DESIGN.md §7.5); the
// returned bool reports whether a measured pass was aborted, and
// results under a truncating or aborting ctl describe a prefix of the
// run, so they must never be cached as if they were complete. A
// cancellable ctx is probed inside every walk, warm-ups included, so a
// canceled caller gets ctx's error back within ~65k replayed records
// instead of after the full simulation; the probe never fires on a live
// context, so results are unchanged. A member that fails gets a nil
// result while the others complete, as in sim.ReplayGroup.
func RunGang(ctx context.Context, c *Cache, b polybench.Bench, cfgs []sim.Config, ctl *sim.ReplayCtl) ([]*sim.RunResult, bool, error) {
	if len(cfgs) == 0 {
		return nil, false, nil
	}
	opts := sim.CompileOptions(cfgs[0])
	for i, cfg := range cfgs[1:] {
		if sim.CompileOptions(cfg) != opts {
			return nil, false, fmt.Errorf("replay: gang member %d of %s has different compile options", i+1, b.Name)
		}
	}
	ck, tr, err := c.Trace(ctx, b, opts)
	if err != nil {
		return nil, false, err
	}
	systems := make([]*sim.System, 0, len(cfgs))
	defer func() {
		for _, sys := range systems {
			c.finish(sys)
		}
	}()
	for _, cfg := range cfgs {
		sys, err := sim.New(cfg)
		if err != nil {
			return nil, false, err
		}
		systems = append(systems, sys)
	}
	return sim.ReplayGroup(systems, ck, tr, cancelCtl(ctx, ctl))
}
