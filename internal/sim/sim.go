// Package sim assembles the paper's evaluation platform: a 1 GHz
// Cortex-A9-like core (internal/cpu) with a 32 KB 2-way SRAM IL1, a
// 64 KB 2-way DL1 whose technology (SRAM or STT-MRAM) and front-end
// (direct / VWB / L0 / EMSHR) are the experimental variables, a 2 MB
// 16-way unified SRAM L2, and DRAM — gem5's SE-mode setup from §VI.
package sim

import (
	"errors"
	"fmt"
	"slices"

	"sttdl1/internal/cache"
	"sttdl1/internal/check"
	"sttdl1/internal/compile"
	"sttdl1/internal/core"
	"sttdl1/internal/cpu"
	"sttdl1/internal/ir"
	"sttdl1/internal/mem"
	"sttdl1/internal/tech"
)

// FrontEndKind selects the structure between the core and the DL1.
type FrontEndKind int

// Front-end choices.
const (
	FEDirect FrontEndKind = iota // no buffer: SRAM baseline / drop-in NVM
	FEVWB                        // the paper's Very Wide Buffer
	FEL0                         // Fig. 8 comparison: small L0 cache
	FEEMSHR                      // Fig. 8 comparison: enhanced MSHR
	FEBypass                     // prediction-driven NVM read-bypass (Kokolis-style)
)

var feNames = [...]string{"direct", "vwb", "l0", "emshr", "bypass"}

func (k FrontEndKind) String() string {
	if int(k) < len(feNames) {
		return feNames[k]
	}
	return fmt.Sprintf("fe(%d)", int(k))
}

// Config is one platform configuration.
type Config struct {
	Name string

	// DL1Cell is the DL1 bit-cell technology (tech.SRAM6T or
	// tech.STT2T2MTJ for the paper's two columns of Table I).
	DL1Cell tech.CellKind
	// DL1Banks is the banked-array split of the DL1 (paper §IV: "we have
	// simulated a banked NVM array").
	DL1Banks int

	// FrontEnd picks the DL1 front-end structure.
	FrontEnd FrontEndKind
	// BufferBits sizes the VWB/L0/EMSHR (2048 = the paper's 2 Kbit).
	BufferBits int

	// Compile selects the code transformations.
	Compile compile.Options

	// CPU overrides the core model; zero value means cpu.DefaultConfig.
	CPU cpu.Config

	// FreqGHz is the core clock (1 GHz in the paper).
	FreqGHz float64

	// DL1ReadLat/DL1WriteLat override the technology model's DL1
	// latencies in cycles (0 = use the model). Used by the read-latency
	// sensitivity ablation.
	DL1ReadLat, DL1WriteLat int64

	// VWBPolicy selects the buffer eviction policy (ablation).
	VWBPolicy core.EvictPolicy

	// VWBTransfer overrides the VWB row-transfer delay in cycles
	// (0 = default 1; words stream into the row in access order).
	VWBTransfer int64

	// BypassPredEntries sizes the FEBypass stride predictor's stream
	// table (0 = default 16; negative disables prediction, making the
	// front-end an exact pass-through — the metamorphic baseline).
	BypassPredEntries int

	// SRAMWays makes the NVM DL1 a Khoshavi-style hybrid: the first
	// SRAMWays ways of each set are built from SRAM cells (fast, own
	// pipelined bank clocks) with read-class fill steering into them;
	// the rest keep the configured NVM technology. Requires an NVM
	// DL1Cell; 0 (the default) is the homogeneous array.
	SRAMWays int

	// ShutdownInterval, when positive, enables Mittal-style dynamic way
	// shutdown of the DL1's cold NVM ways: every interval (in cycles) a
	// way with no activity is flushed and power-gated, and capacity
	// pressure wakes the gated ways. Gated way-cycles are credited
	// against the DL1's leakage by internal/energy. Requires an NVM
	// DL1Cell; 0 disables.
	ShutdownInterval int64

	// ColdStart skips the warm-up pass: by default a run executes the
	// kernel once to warm the hierarchy, resets all clocks and counters
	// (keeping cache contents), and measures a second execution —
	// standard steady-state simulation methodology.
	ColdStart bool

	// IL1Cell optionally replaces the instruction cache's technology
	// (default SRAM). Setting it to tech.STT2T2MTJ reproduces the
	// authors' earlier I-cache study (Komalan et al., DATE'14).
	IL1Cell tech.CellKind
	// IL1FrontEnd optionally puts a buffer structure in front of the
	// IL1 (FEEMSHR is the DATE'14 proposal; FEDirect means none).
	IL1FrontEnd FrontEndKind

	// Check wraps every hierarchy port (front-end, IL1, DL1, L2, DRAM)
	// in the internal/check timing oracle: causality, busy-clock
	// monotonicity and shadow-state agreement are verified on every
	// access, and a run that violates the timing contract fails with
	// the violation list (DESIGN.md §7.2). The wrapper is pass-through,
	// so checked runs report identical cycle counts.
	Check bool
}

// Platform cache geometry (paper §VI).
const (
	IL1Size  = 32 << 10
	IL1Assoc = 2
	DL1Size  = 64 << 10
	DL1Assoc = 2
	L2Size   = 2 << 20
	L2Assoc  = 16
	L2Line   = 64
	// L2 latency in core cycles (array + interconnect, gem5-like).
	L2Lat = 10
)

// BaselineSRAM is the paper's reference configuration.
func BaselineSRAM() Config {
	return Config{Name: "sram-baseline", DL1Cell: tech.SRAM6T, FrontEnd: FEDirect}
}

// DropInSTT is §III's motivation experiment: STT-MRAM DL1, no other help.
func DropInSTT() Config {
	return Config{Name: "stt-dropin", DL1Cell: tech.STT2T2MTJ, FrontEnd: FEDirect}
}

// ProposalVWB is the paper's proposal: STT-MRAM DL1 behind a 2 Kbit VWB.
func ProposalVWB() Config {
	return Config{Name: "stt-vwb", DL1Cell: tech.STT2T2MTJ, FrontEnd: FEVWB, BufferBits: 2048}
}

func (c Config) withDefaults() Config {
	if c.DL1Banks <= 0 {
		c.DL1Banks = 4
	}
	if c.BufferBits <= 0 {
		c.BufferBits = 2048
	}
	if c.FreqGHz <= 0 {
		c.FreqGHz = 1.0
	}
	if c.CPU.IssueWidth == 0 {
		c.CPU = cpu.DefaultConfig()
	}
	return c
}

// Validate reports whether New can assemble cfg, after the defaulting
// New applies: the DL1 banks must be a power of two no larger than the
// DL1's line count, the front-end buffer a whole number of DL1 lines no
// larger than the DL1 itself, and way partitioning and shutdown must
// sit on an NVM DL1. New calls it first, so a malformed configuration
// is an error instead of a panic or an out-of-memory in a component
// constructor.
func Validate(cfg Config) error {
	cfg = cfg.withDefaults()
	lineBytes := DL1Line(cfg.DL1Cell)
	if b := cfg.DL1Banks; b&(b-1) != 0 || b > DL1Size/lineBytes {
		return fmt.Errorf("sim: DL1Banks %d is not a power of two in [1, %d]", b, DL1Size/lineBytes)
	}
	if bits := cfg.BufferBits; bits%(lineBytes*8) != 0 || bits > DL1Size*8 {
		return fmt.Errorf("sim: BufferBits %d is not a whole number of %d-bit lines within the %d-bit DL1", bits, lineBytes*8, DL1Size*8)
	}
	if cfg.SRAMWays != 0 || cfg.ShutdownInterval != 0 {
		// Hybrid partitioning and way shutdown are defined against an
		// NVM array (the SRAM partition's latencies come from the SRAM
		// technology model; shutdown's leakage credit prices NVM ways).
		if cfg.DL1Cell == tech.SRAM6T {
			return fmt.Errorf("sim: SRAMWays/ShutdownInterval require an NVM DL1 cell")
		}
		if cfg.SRAMWays < 0 || cfg.SRAMWays > DL1Assoc {
			return fmt.Errorf("sim: SRAMWays %d outside [0, %d]", cfg.SRAMWays, DL1Assoc)
		}
		if cfg.ShutdownInterval < 0 {
			return fmt.Errorf("sim: ShutdownInterval must be non-negative")
		}
	}
	return nil
}

// DL1Line returns the DL1 line size used in the simulator: 64 B for every
// technology. Table I reports a narrower (256-bit) natural line for the
// SRAM array, but the paper's gem5 experiments replace the SRAM D-cache
// "by a NVM counterpart with similar characteristics (size,
// associativity...)" — keeping the line size equal isolates the latency
// effect, so we do the same and treat the line-width row of Table I as a
// technology observation.
func DL1Line(cell tech.CellKind) int { return 64 }

// System is one assembled platform.
type System struct {
	Cfg  Config
	CPU  *cpu.CPU
	IL1  *cache.Cache
	DL1  *cache.Cache
	L2   *cache.Cache
	DRAM *mem.DRAM
	FE   core.FrontEnd
	// DL1Model is the technology model behind the DL1 latencies.
	DL1Model tech.Model

	// il1FE is the structure in front of the IL1 (nil when fetches go
	// straight to it); ResetTiming must reset it with the rest.
	il1FE core.FrontEnd

	// checks holds the timing-oracle wrappers when Cfg.Check is set
	// (empty otherwise); runOnce turns their violations into an error.
	checks []*check.Port

	// warmUps counts the warm-up passes this system ran itself.
	warmUps int
}

// New assembles a platform.
func New(cfg Config) (*System, error) {
	if err := Validate(cfg); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()

	line := DL1Line(cfg.DL1Cell)
	arr := tech.DefaultArray(cfg.DL1Cell)
	model, err := tech.Compute(arr)
	if err != nil {
		return nil, fmt.Errorf("sim: DL1 tech model: %w", err)
	}
	rd, wr := model.CyclesAt(cfg.FreqGHz)
	if cfg.DL1ReadLat > 0 {
		rd = cfg.DL1ReadLat
	}
	if cfg.DL1WriteLat > 0 {
		wr = cfg.DL1WriteLat
	}

	// wrap interposes the timing oracle when the configuration asks for
	// checking; otherwise ports connect directly.
	var checks []*check.Port
	wrap := func(name string, p mem.Port) mem.Port {
		if !cfg.Check {
			return p
		}
		cp := check.Wrap(name, p)
		checks = append(checks, cp)
		return cp
	}

	dram := mem.NewDRAM(mem.DefaultDRAMConfig())
	l2 := cache.New(cache.Config{
		Name: "L2", Size: L2Size, Assoc: L2Assoc, LineSize: L2Line, Banks: 8,
		ReadLat: L2Lat, WriteLat: L2Lat, ReadInterval: 2, WriteInterval: 2,
		MSHRs: 16, WriteBufDepth: 8,
	}, wrap("DRAM", dram))
	l2Port := wrap("L2", l2)
	il1Cfg := cache.Config{
		Name: "IL1", Size: IL1Size, Assoc: IL1Assoc, LineSize: 64, Banks: 2,
		ReadLat: 1, WriteLat: 1, ReadInterval: 1, WriteInterval: 1,
		MSHRs: 2, WriteBufDepth: 2,
	}
	if cfg.IL1Cell != tech.SRAM6T {
		im := tech.MustCompute(tech.DefaultArray(cfg.IL1Cell))
		ir_, iw := im.CyclesAt(cfg.FreqGHz)
		// The NVM instruction array is non-pipelined like the DL1.
		il1Cfg.ReadLat, il1Cfg.WriteLat = ir_, iw
		il1Cfg.ReadInterval, il1Cfg.WriteInterval = 0, 0
	}
	il1 := cache.New(il1Cfg, l2Port)
	imem := wrap("IL1", il1)
	var il1FE core.FrontEnd
	switch cfg.IL1FrontEnd {
	case FEDirect:
		// fetch straight from the IL1
	case FEEMSHR:
		il1FE = core.NewEMSHR(core.EMSHRConfig{SizeBits: cfg.BufferBits, LineSize: 64, HitLat: 1, BeatBytes: 32}, imem)
		imem = wrap("IL1-emshr", il1FE)
	default:
		return nil, fmt.Errorf("sim: unsupported IL1 front-end %v", cfg.IL1FrontEnd)
	}
	// SRAM arrays at core clock are pipelined (initiation interval 1);
	// the STT-MRAM array's long differential sense is not — an access
	// occupies its bank for the full latency, which is exactly the
	// promotion-conflict effect §IV describes for the banked NVM array.
	dl1Cfg := cache.Config{
		Name: "DL1", Size: DL1Size, Assoc: DL1Assoc, LineSize: line, Banks: cfg.DL1Banks,
		ReadLat: rd, WriteLat: wr, MSHRs: 4, WriteBufDepth: 4,
	}
	if cfg.DL1Cell == tech.SRAM6T {
		dl1Cfg.ReadInterval, dl1Cfg.WriteInterval = 1, 1
	}
	dl1Cfg.SRAMWays = cfg.SRAMWays
	dl1Cfg.ShutdownInterval = cfg.ShutdownInterval
	if cfg.SRAMWays > 0 {
		sm := tech.MustCompute(tech.DefaultArray(tech.SRAM6T))
		dl1Cfg.SRAMReadLat, dl1Cfg.SRAMWriteLat = sm.CyclesAt(cfg.FreqGHz)
	}
	dl1 := cache.New(dl1Cfg, l2Port)
	dl1Port := wrap("DL1", dl1)

	var fe core.FrontEnd
	switch cfg.FrontEnd {
	case FEDirect:
		fe = core.NewDirect(dl1Port)
	case FEVWB:
		tc := cfg.VWBTransfer
		if tc == 0 {
			tc = 1
		}
		fe = core.NewVWB(core.VWBConfig{
			SizeBits: cfg.BufferBits, LineSize: line, HitLat: 1,
			TransferCycles: tc, Policy: cfg.VWBPolicy,
		}, dl1Port)
	case FEL0:
		fe = core.NewL0(core.L0Config{SizeBits: cfg.BufferBits, LineSize: line, HitLat: 1, BeatBytes: 32}, dl1Port)
	case FEEMSHR:
		fe = core.NewEMSHR(core.EMSHRConfig{SizeBits: cfg.BufferBits, LineSize: line, HitLat: 1, BeatBytes: 32}, dl1Port)
	case FEBypass:
		fe = core.NewBypass(core.BypassConfig{
			SizeBits: cfg.BufferBits, LineSize: line, HitLat: 1,
			TransferCycles: 1, PredEntries: cfg.BypassPredEntries,
			Policy: cfg.VWBPolicy,
		}, dl1Port)
	default:
		return nil, fmt.Errorf("sim: unknown front-end %v", cfg.FrontEnd)
	}

	c := &cpu.CPU{Cfg: cfg.CPU, IMem: imem, DMem: wrap("FE-"+fe.Name(), fe)}
	return &System{Cfg: cfg, CPU: c, IL1: il1, DL1: dl1, L2: l2, DRAM: dram, FE: fe, DL1Model: model, il1FE: il1FE, checks: checks}, nil
}

// RunResult is the outcome of one kernel on one configuration.
type RunResult struct {
	Config Config
	Bench  string
	CPU    *cpu.Result

	FEStats, DL1Stats, L2Stats, IL1Stats mem.Stats
	DL1BankConflictCycles                int64

	// Hybrid/shutdown accounting for internal/energy: array operations
	// served by the DL1's SRAM partition, and gated way-cycles as of
	// the end of the measured pass.
	DL1SRAMReads, DL1SRAMWrites uint64
	DL1WayOffCycles             int64
}

// ResetTiming clears every component's clocks and counters while keeping
// cache and buffer contents.
func (s *System) ResetTiming() {
	s.IL1.ResetTiming()
	s.DL1.ResetTiming()
	s.L2.ResetTiming()
	s.DRAM.Reset()
	s.FE.ResetTiming()
	if s.il1FE != nil {
		s.il1FE.ResetTiming()
	}
	// Re-baseline the oracle after the component clocks went back to 0.
	for _, cp := range s.checks {
		cp.ResetTiming()
	}
}

// Release returns the set storage of the IL1, DL1 and L2 for reuse by
// the next system (cache.Cache.Release). Results already assembled stay
// valid: a RunResult copies every counter by value. The system must not
// be used after it; a system that is never released is simply left to
// the garbage collector.
func (s *System) Release() {
	s.IL1.Release()
	s.DL1.Release()
	s.L2.Release()
}

// CheckErr audits the timing oracle (full shadow-state comparison) and
// returns the accumulated violations; nil when checking is off or the
// run was clean.
func (s *System) CheckErr() error {
	for _, cp := range s.checks {
		cp.Audit()
	}
	return check.Errs(s.checks)
}

// RunCompiled executes a compiled kernel on the system: a warm-up pass
// (unless the configuration says ColdStart), a timing reset, and the
// measured pass. The data segment is re-initialized for each pass.
func (s *System) RunCompiled(ck *compile.Compiled) (*RunResult, error) {
	if !s.Cfg.ColdStart {
		s.warmUps++
		if _, err := s.runOnce(ck); err != nil {
			return nil, err
		}
		s.ResetTiming()
	}
	return s.runOnce(ck)
}

// runOnce executes one pass over the kernel.
func (s *System) runOnce(ck *compile.Compiled) (*RunResult, error) {
	st, err := InitialState(ck)
	if err != nil {
		return nil, err
	}
	res, err := s.CPU.RunState(ck.Prog, st)
	if err != nil {
		return nil, fmt.Errorf("sim: %s on %s: %w", ck.Prog.Name, s.Cfg.Name, err)
	}
	if err := s.CheckErr(); err != nil {
		return nil, fmt.Errorf("sim: %s on %s: %w", ck.Prog.Name, s.Cfg.Name, err)
	}
	return s.assemble(ck.Prog.Name, res), nil
}

// assemble snapshots the system's hierarchy counters into a RunResult
// around a finished measured pass.
func (s *System) assemble(bench string, res *cpu.Result) *RunResult {
	return &RunResult{
		Config:                s.Cfg,
		Bench:                 bench,
		CPU:                   res,
		FEStats:               s.FE.Stats(),
		DL1Stats:              s.DL1.Stats(),
		L2Stats:               s.L2.Stats(),
		IL1Stats:              s.IL1.Stats(),
		DL1BankConflictCycles: s.DL1.BankConflictCycles,
		DL1SRAMReads:          s.DL1.SRAMReads,
		DL1SRAMWrites:         s.DL1.SRAMWrites,
		DL1WayOffCycles:       s.DL1.OffCyclesAt(res.Cycles),
	}
}

// InitialState is the architectural state every pass of ck starts
// from: fresh registers, the ck.Prog.DataSize-byte data segment
// initialized by ir.InitData, and cpu.StackBytes of zeroed stack above
// it. Live runs and trace capture start here; the functional digest the
// persistent store keys on (replay.Cache.Digest) hashes the same image
// built the same way, without a State, so what the digest hashes is
// what the capture runs.
func InitialState(ck *compile.Compiled) (*cpu.State, error) {
	st := cpu.NewState(ck.Prog)
	if err := ir.InitData(ck.Kernel, st.Mem[:ck.Prog.DataSize]); err != nil {
		return nil, err
	}
	return st, nil
}

// CaptureTrace functionally executes a compiled kernel once (no timing)
// and records its retired-instruction stream. Because the core is
// in-order and every pass starts from an identically initialized data
// segment, the same trace replays both the warm-up and the measured
// pass of any configuration (DESIGN.md §7.4).
func CaptureTrace(ck *compile.Compiled) (*cpu.Trace, error) {
	st, err := InitialState(ck)
	if err != nil {
		return nil, err
	}
	tr, err := cpu.Capture(ck.Prog, st, 0)
	if err != nil {
		return nil, fmt.Errorf("sim: capture %s: %w", ck.Prog.Name, err)
	}
	return tr, nil
}

// ReplayCompiled is RunCompiled with the functional interpreter replaced
// by a captured trace: warm-up replay (unless ColdStart), timing reset,
// measured replay. The result is byte-identical to RunCompiled for the
// same kernel and configuration.
func (s *System) ReplayCompiled(ck *compile.Compiled, tr *cpu.Trace) (*RunResult, error) {
	res, _, err := s.ReplayCompiledCtl(ck, tr, nil)
	return res, err
}

// ReplayCtl controls a partial timing replay; see cpu.ReplayCtl.
type ReplayCtl = cpu.ReplayCtl

// ReplayCompiledCtl is ReplayCompiled under partial-replay control, run
// as a group of one (ReplayGroup). The returned bool reports whether the
// measured pass was aborted by ctl.Abort.
func (s *System) ReplayCompiledCtl(ck *compile.Compiled, tr *cpu.Trace, ctl *ReplayCtl) (*RunResult, bool, error) {
	rs, aborted, err := ReplayGroup([]*System{s}, ck, tr, ctl)
	if err != nil {
		return nil, false, err
	}
	return rs[0], aborted, nil
}

// WarmUp replays the warm-up pass over the trace and resets timing,
// leaving the contents a measured pass starts from. Witness then tells
// whether those contents are shared by every configuration with the
// same WarmKey (DESIGN.md §7.9).
func (s *System) WarmUp(ck *compile.Compiled, tr *cpu.Trace) error {
	g := &groupReplay{ck: ck, tr: tr, errs: make(map[*System]error)}
	if err := g.warmPass([]*System{s}, nil); err != nil {
		return err
	}
	return g.errs[s]
}

// ReplayGang is ReplayGroup under Interrupt control alone: its systems
// replay one after another.
func ReplayGang(systems []*System, ck *compile.Compiled, tr *cpu.Trace, interrupt func() error, intrEvery int) ([]*RunResult, error) {
	rs, _, err := ReplayGroup(systems, ck, tr, &ReplayCtl{Interrupt: interrupt, InterruptEvery: intrEvery})
	return rs, err
}

// ReplayGroup is ReplayCompiledCtl for a batch of systems that replay
// one trace, with warm-ups shared across timing-only variants (DESIGN.md
// §7.9). A single system is a group of one.
//
//   - Members with equal WarmKey form a warm group. Only its first
//     member, the representative, runs the warm-up. If the
//     representative's Witness is 0 at the end of it, every other
//     member copies its post-warm-up state; otherwise each runs its
//     own warm-up. ColdStart members skip the warm-up.
//   - Under Check, sharing is verified instead of used: every member
//     runs its own warm-up, and one whose representative ended at
//     Witness 0 must end in the representative's state, field by
//     field, or it fails with ErrWarmState naming the field.
//   - Each pass — warm-ups and the measured pass — walks the trace
//     once per member, one member after another (cpu.ReplayTraceCtl).
//   - The warm-ups run under ctl without its Abort probe: their cycle
//     counts are discarded, so aborting one would save nothing and
//     desynchronize cache contents between abort-on and abort-off
//     runs. MaxRecords truncates them too, and Interrupt reaches them,
//     or half of every replay would be uncancellable. The measured
//     pass gets all of ctl; each member probes Abort with its own cycle
//     bound, and the returned bool reports whether a probe stopped any
//     member's measured pass.
//
// Every member's RunResult is byte-identical to its own group of one
// under the same ctl — all systems must therefore be freshly assembled,
// for configurations sharing CompileOptions. A member that fails (a
// functional fault such as its instruction budget, an oracle
// violation, ErrWarmState) gets a nil result and an error worded
// "sim: <bench> on <config>: ..."; the others still complete, and the
// first failed member's error in member order is returned next to
// their results. An Interrupt error abandons the group with no results.
func ReplayGroup(systems []*System, ck *compile.Compiled, tr *cpu.Trace, ctl *ReplayCtl) ([]*RunResult, bool, error) {
	if len(systems) == 0 {
		return nil, false, nil
	}
	g := &groupReplay{ck: ck, tr: tr, errs: make(map[*System]error)}
	warmCtl := ctl
	if ctl != nil && ctl.Abort != nil {
		wc := *ctl
		wc.Abort, wc.CheckEvery = nil, 0
		warmCtl = &wc
	}
	if err := g.warm(systems, warmCtl); err != nil {
		return nil, false, err
	}
	rs, aborted, err := g.pass(systems, ctl)
	if err != nil {
		return nil, false, err
	}
	out := make([]*RunResult, len(systems))
	var first error
	for i, s := range systems {
		if err := g.errs[s]; err != nil {
			if first == nil {
				first = err
			}
			continue
		}
		out[i] = s.assemble(ck.Prog.Name, rs[i])
	}
	return out, aborted, first
}

// ErrWarmState marks a checked group replay in which a member's own
// warm-up ended in a different state from its representative's although
// the representative's Witness was 0: a clock-reading decision the
// witness does not count (DESIGN.md §7.9).
var ErrWarmState = errors.New("warm-up state differs from the warm group's representative")

// groupReplay is one ReplayGroup in progress: the kernel and trace its
// members replay, and the error of every member that has failed.
type groupReplay struct {
	ck   *compile.Compiled
	tr   *cpu.Trace
	errs map[*System]error
}

// fail records a member's failure in the wording of every member error.
func (g *groupReplay) fail(s *System, err error) {
	g.errs[s] = fmt.Errorf("sim: %s on %s: %w", g.ck.Prog.Name, s.Cfg.Name, err)
}

// warm brings every member that is not ColdStart to its post-warm-up,
// timing-reset state, one warm-up per warm group where the
// representative's Witness proves sharing exact (see ReplayGroup).
func (g *groupReplay) warm(systems []*System, ctl *ReplayCtl) error {
	type group struct {
		rep  *System
		rest []*System
	}
	var groups []*group
	byKey := make(map[Config]*group)
	var own []*System // members warming up in the first round
	for _, s := range systems {
		if s.Cfg.ColdStart {
			continue
		}
		k := WarmKey(s.Cfg)
		wg := byKey[k]
		if wg == nil {
			wg = &group{rep: s}
			byKey[k] = wg
			groups = append(groups, wg)
			own = append(own, s)
			continue
		}
		wg.rest = append(wg.rest, s)
		if s.Cfg.Check {
			own = append(own, s)
		}
	}
	if err := g.warmPass(own, ctl); err != nil {
		return err
	}

	var late []*System // members of groups whose representative read a clock or failed
	for _, wg := range groups {
		shared := g.errs[wg.rep] == nil && wg.rep.Witness() == 0
		for _, s := range wg.rest {
			switch {
			case !s.Cfg.Check && shared:
				s.copyWarm(wg.rep)
			case !s.Cfg.Check:
				late = append(late, s)
			case shared && g.errs[s] == nil: // checked members warmed up themselves: verify
				if err := s.WarmDiff(wg.rep); err != nil {
					g.fail(s, fmt.Errorf("%w %s: %v", ErrWarmState, wg.rep.Cfg.Name, err))
				}
			}
		}
	}
	return g.warmPass(late, ctl)
}

// warmPass runs the warm-up pass of systems and resets the timing of
// every member that completed it.
func (g *groupReplay) warmPass(systems []*System, ctl *ReplayCtl) error {
	rs, _, err := g.pass(systems, ctl)
	if err != nil {
		return err
	}
	for i, s := range systems {
		s.warmUps++
		if rs[i] != nil {
			s.ResetTiming()
		}
	}
	return nil
}

// pass replays one pass of every member that has not failed, one member
// after another, and audits each under the oracle. It returns the
// results in member order, nil for a failed member, and whether an
// Abort probe stopped any member.
func (g *groupReplay) pass(systems []*System, ctl *ReplayCtl) ([]*cpu.Result, bool, error) {
	out := make([]*cpu.Result, len(systems))
	aborted := false
	for i, s := range systems {
		if g.errs[s] != nil {
			continue
		}
		res, ab, err := s.CPU.ReplayTraceCtl(g.tr, ctl)
		if res == nil { // an Interrupt error abandons the group
			return nil, false, fmt.Errorf("sim: %s on %s: %w", g.ck.Prog.Name, s.Cfg.Name, err)
		}
		aborted = aborted || ab
		if err == nil {
			err = s.CheckErr()
		}
		if err != nil {
			g.fail(s, err)
			continue
		}
		out[i] = res
	}
	return out, aborted, nil
}

// Witness sums the hierarchy's clock-reading functional decisions since
// the system was built (cache.Cache.Witness, core.Witness); timing
// resets keep it. A warm-up that ends at 0 changed every cache and
// buffer as a function of its access sequence alone; every
// configuration with the same WarmKey sends that same sequence, so by
// induction over it each one ends the warm-up in the same state
// (DESIGN.md §7.9).
func (s *System) Witness() uint64 {
	w := s.IL1.Witness + s.DL1.Witness + s.L2.Witness + core.Witness(s.FE)
	if s.il1FE != nil {
		w += core.Witness(s.il1FE)
	}
	return w
}

// WarmUps reports how many warm-up passes the system has run itself; a
// member that copied its warm group's state (ReplayGroup) ran none.
func (s *System) WarmUps() int { return s.warmUps }

// copyWarm copies rep's persistent state into s, a fresh system of the
// same warm group, once rep has finished its warm-up and timing reset:
// the contents of every cache and front end (cache.Cache.CopyWarm,
// core.CopyWarm). Every clock of both is zero at that point.
func (s *System) copyWarm(rep *System) {
	s.IL1.CopyWarm(rep.IL1)
	s.DL1.CopyWarm(rep.DL1)
	s.L2.CopyWarm(rep.L2)
	core.CopyWarm(s.FE, rep.FE)
	if s.il1FE != nil {
		core.CopyWarm(s.il1FE, rep.il1FE)
	}
}

// WarmDiff compares s's persistent state — what a timing reset keeps
// and copyWarm copies — with rep's, field by field, and names the first
// difference (nil when there is none). Both must be of one warm group.
func (s *System) WarmDiff(rep *System) error {
	for _, c := range []struct {
		name   string
		c, rep *cache.Cache
	}{{"IL1", s.IL1, rep.IL1}, {"DL1", s.DL1, rep.DL1}, {"L2", s.L2, rep.L2}} {
		if d := cacheDiff(c.c, c.rep); d != "" {
			return fmt.Errorf("%s %s", c.name, d)
		}
	}
	if d := core.WarmDiff(s.FE, rep.FE); d != "" {
		return fmt.Errorf("front end %s %s", s.FE.Name(), d)
	}
	if s.il1FE != nil {
		if d := core.WarmDiff(s.il1FE, rep.il1FE); d != "" {
			return fmt.Errorf("IL1 front end %s", d)
		}
	}
	return nil
}

// cacheDiff names the first difference in a cache's persistent state:
// the use clock, the gated ways, then every set way by way.
func cacheDiff(c, rep *cache.Cache) string {
	if c.UseClock() != rep.UseClock() {
		return fmt.Sprintf("useClock %d, representative has %d", c.UseClock(), rep.UseClock())
	}
	if g, r := c.GatedWays(), rep.GatedWays(); !slices.Equal(g, r) {
		return fmt.Sprintf("gated ways %v, representative has %v", g, r)
	}
	cfg := c.Config()
	var a, b []cache.LineView
	for set := 0; set < cfg.Sets(); set++ {
		a, b = c.AppendSetView(a[:0], set), rep.AppendSetView(b[:0], set)
		for w := range a {
			if a[w] != b[w] {
				return fmt.Sprintf("set %d way %d: %+v, representative has %+v", set, w, a[w], b[w])
			}
		}
	}
	return ""
}

// CompileOptions is the configuration's compile options with the
// simulator's defaulting applied (line size forced to the prefetch /
// alignment granule). Anything compiling kernels on a configuration's
// behalf — Run here, the replay trace cache — must use this so the
// compiled program is identical either way.
func CompileOptions(cfg Config) compile.Options {
	opts := cfg.Compile
	if opts.LineSize == 0 {
		opts.LineSize = 64 // prefetch/alignment granule: the larger line
	}
	return opts
}

// Run compiles k with the configuration's options (line size forced to
// the DL1 line) and executes it on a freshly assembled system.
func Run(k *ir.Kernel, cfg Config) (*RunResult, error) {
	cfg = cfg.withDefaults()
	ck, err := compile.Compile(k, CompileOptions(cfg))
	if err != nil {
		return nil, err
	}
	sys, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return sys.RunCompiled(ck)
}
