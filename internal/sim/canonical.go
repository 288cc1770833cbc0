package sim

// Config canonicalization: one resolved form and one deterministic
// string key per *effective design*, shared by the design-space engine's
// proposal detection (internal/dse) and the persistent evaluation
// store's content addressing (internal/store, DESIGN.md §7.7). Two
// configurations key the same simulation exactly when their canonical
// forms are equal, and the canonical key enumerates every field the
// timing model reads, so it is injective on distinct canonical configs
// by construction.

import (
	"strconv"
	"strings"

	"sttdl1/internal/compile"
	"sttdl1/internal/cpu"
	"sttdl1/internal/tech"
)

// ApplyDefaults resolves the knobs a run resolves before simulating
// (bank count, buffer size, clock, core config) — exactly the defaulting
// New and Run apply, so RunResult.Config of a fresh run equals
// ApplyDefaults of the requested configuration.
func ApplyDefaults(cfg Config) Config { return cfg.withDefaults() }

// Canonical resolves every defaulted knob of cfg to its effective value
// and strips the fields that don't change the simulated design (Name,
// Check), so two configs compare equal exactly when they describe the
// same design point:
//
//   - ApplyDefaults' resolutions (banks, buffer bits, clock, core);
//   - latency overrides resolved against the technology model, so an
//     explicit override equal to the model latency is the same design
//     as no override;
//   - the VWB transfer default;
//   - the bypass predictor size, which only exists behind the bypass
//     front-end and must not split equality classes elsewhere.
func Canonical(cfg Config) Config {
	cfg.Name = ""
	cfg.Check = false
	cfg = cfg.withDefaults()
	if m, err := tech.Compute(tech.DefaultArray(cfg.DL1Cell)); err == nil {
		rd, wr := m.CyclesAt(cfg.FreqGHz)
		if cfg.DL1ReadLat <= 0 {
			cfg.DL1ReadLat = rd
		}
		if cfg.DL1WriteLat <= 0 {
			cfg.DL1WriteLat = wr
		}
	}
	if cfg.VWBTransfer <= 0 {
		cfg.VWBTransfer = 1
	}
	// CompileOptions forces the line-size default before compiling, so a
	// zero here is the same kernel variant as an explicit 64.
	cfg.Compile = CompileOptions(cfg)
	// The predictor size only exists behind the bypass front-end; on any
	// other design it is dead state and must not split equality classes.
	if cfg.FrontEnd != FEBypass {
		cfg.BypassPredEntries = 0
	} else if cfg.BypassPredEntries == 0 {
		cfg.BypassPredEntries = 16
	}
	// SRAMWays and ShutdownInterval default to 0 (= homogeneous,
	// always-on), which is already their zero value — nothing to resolve.
	return cfg
}

// WarmKey names cfg's warm group: Canonical(cfg) with the fields that
// only move clocks zeroed. Configurations with one warm key send the
// hierarchy the same access sequence in the same order, so their
// post-warm-up contents can differ only through a functional decision
// that reads a clock — which System.Witness counts (DESIGN.md §7.9).
// The list names the fields to zero, not the fields to keep, so a field
// added later splits warm groups until it is shown to be timing-only.
func WarmKey(cfg Config) Config {
	k := Canonical(cfg)
	k.DL1ReadLat = 0        // when a DL1 read completes, never which line it touches
	k.DL1WriteLat = 0       // when a DL1 write completes, never which line it touches
	k.DL1Banks = 0          // which bank clock an access waits on; the line's set ignores banks
	k.VWBTransfer = 0       // when a promoted VWB row becomes readable, not which row it is
	k.CPU.StoreBufDepth = 0 // when a store issues; stores still reach the DL1 in program order
	return k
}

// CanonicalKey renders Canonical(cfg) as one deterministic string
// covering every design field the simulator reads, with the Check flag
// appended separately (checked runs produce identical counters but the
// persistent store keeps them addressable apart, mirroring the
// in-memory memo). Distinct canonical configs always produce distinct
// keys: every field lands in its own labeled, delimited slot.
func CanonicalKey(cfg Config) string {
	var b strings.Builder
	// Sized above the longest key the current axes can render (a
	// defaults-resolved key is ~200 bytes): one undersized Grow here
	// costs a second allocation per key.
	b.Grow(288)
	WriteCanonicalKey(&b, cfg)
	return b.String()
}

// WriteCanonicalKey appends CanonicalKey(cfg) to b, so a caller can
// build a key with a prefix in one allocation.
func WriteCanonicalKey(b *strings.Builder, cfg Config) {
	check := cfg.Check
	c := Canonical(cfg)
	b.WriteString(c.DL1Cell.String())
	b.WriteString("|fe=")
	b.WriteString(c.FrontEnd.String())
	b.WriteString("|buf=")
	b.WriteString(strconv.Itoa(c.BufferBits))
	b.WriteString("|bank=")
	b.WriteString(strconv.Itoa(c.DL1Banks))
	b.WriteString("|ghz=")
	b.WriteString(strconv.FormatFloat(c.FreqGHz, 'g', -1, 64))
	b.WriteString("|rl=")
	b.WriteString(strconv.FormatInt(c.DL1ReadLat, 10))
	b.WriteString("|wl=")
	b.WriteString(strconv.FormatInt(c.DL1WriteLat, 10))
	b.WriteString("|pol=")
	b.WriteString(c.VWBPolicy.String())
	b.WriteString("|tc=")
	b.WriteString(strconv.FormatInt(c.VWBTransfer, 10))
	b.WriteString("|bp=")
	b.WriteString(strconv.Itoa(c.BypassPredEntries))
	b.WriteString("|sw=")
	b.WriteString(strconv.Itoa(c.SRAMWays))
	b.WriteString("|sd=")
	b.WriteString(strconv.FormatInt(c.ShutdownInterval, 10))
	b.WriteString("|cold=")
	b.WriteString(strconv.FormatBool(c.ColdStart))
	b.WriteString("|il1=")
	b.WriteString(c.IL1Cell.String())
	b.WriteString("/")
	b.WriteString(c.IL1FrontEnd.String())
	b.WriteString("|cpu=")
	appendCPUKey(b, c.CPU)
	b.WriteString("|opt=")
	appendCompileKey(b, c.Compile)
	b.WriteString("|chk=")
	b.WriteString(strconv.FormatBool(check))
}

func appendCPUKey(b *strings.Builder, c cpu.Config) {
	b.WriteString(strconv.Itoa(c.IssueWidth))
	b.WriteByte(',')
	b.WriteString(strconv.FormatInt(c.MispredictPenalty, 10))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(c.StoreBufDepth))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(c.LoadQueueDepth))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(c.BpredEntries))
	b.WriteByte(',')
	b.WriteString(strconv.FormatUint(c.MaxInsts, 10))
	b.WriteByte(',')
	b.WriteString(strconv.FormatUint(uint64(c.CodeBase), 10))
}

// CompileKey renders compile options as the field list CanonicalKey
// embeds after "opt=". The trace cache keys kernel variants on it.
func CompileKey(o compile.Options) string {
	var b strings.Builder
	b.Grow(48)
	appendCompileKey(&b, o)
	return b.String()
}

func appendCompileKey(b *strings.Builder, o compile.Options) {
	b.WriteString(strconv.FormatBool(o.Vectorize))
	b.WriteByte(',')
	b.WriteString(strconv.FormatBool(o.Prefetch))
	b.WriteByte(',')
	b.WriteString(strconv.FormatBool(o.Branchless))
	b.WriteByte(',')
	b.WriteString(strconv.FormatBool(o.Align))
	b.WriteByte(',')
	b.WriteString(strconv.FormatBool(o.Interchange))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(o.PrefetchStreams))
	b.WriteByte(',')
	b.WriteString(strconv.Itoa(o.LineSize))
}
