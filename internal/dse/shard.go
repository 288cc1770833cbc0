package dse

// Multi-process sharded sweeps (DESIGN.md §7.7): a shard is one of N
// deterministic blocks of whole warm groups cut from a space's distinct
// configurations, so N concurrent processes — coordinating through
// nothing but the shared persistent evaluation store — together
// simulate the whole space, and a subsequent stitch run (the same sweep
// without -shard) assembles the full frontier from cached records,
// byte-identical to a single-process sweep.

import (
	"fmt"
	"math/bits"
	"strconv"
	"strings"

	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
)

// Shard is one of Count contiguous blocks of a space's work list
// (PlanShard). The zero value (Count 0) means "no sharding: every
// point".
type Shard struct {
	Index, Count int
}

// Enabled reports whether the shard actually partitions.
func (sh Shard) Enabled() bool { return sh.Count > 0 }

// String renders the shard the way ParseShard reads it.
func (sh Shard) String() string { return fmt.Sprintf("%d/%d", sh.Index, sh.Count) }

// ParseShard parses "i/n" (0 <= i < n). The empty string is the
// disabled shard.
func ParseShard(s string) (Shard, error) {
	if s == "" {
		return Shard{}, nil
	}
	i, n, ok := strings.Cut(s, "/")
	if !ok {
		return Shard{}, fmt.Errorf("dse: shard %q is not of the form i/n", s)
	}
	idx, err := strconv.Atoi(i)
	if err != nil {
		return Shard{}, fmt.Errorf("dse: shard index %q: %w", i, err)
	}
	cnt, err := strconv.Atoi(n)
	if err != nil {
		return Shard{}, fmt.Errorf("dse: shard count %q: %w", n, err)
	}
	if cnt < 1 || idx < 0 || idx >= cnt {
		return Shard{}, fmt.Errorf("dse: shard %d/%d out of range (need 0 <= i < n)", idx, cnt)
	}
	return Shard{Index: idx, Count: cnt}, nil
}

// ShardResult is the accounting of one shard pass.
type ShardResult struct {
	Space string
	Shard Shard
	// Points is the number of design points this shard owns;
	// SpacePoints the space's full pruned count.
	Points, SpacePoints int
	Benches             int
}

// ShardPlan is one shard's work list: the configurations — design
// points and penalty baselines alike — the shard owns. The sweep
// service leases shards as these resumable units: a re-leased shard
// re-plans identically, and whatever a crashed worker already published
// to the persistent store is a warm hit for its successor, so requeued
// work resumes instead of restarting (DESIGN.md §7.8).
type ShardPlan struct {
	Space string
	Shard Shard
	// Points is the number of design points the shard owns; SpacePoints
	// the space's full pruned count.
	Points, SpacePoints int
	// Configs is the concrete simulation work list, warm group by warm
	// group.
	Configs []sim.Config
}

// PlanShard computes the deterministic work list of one shard of the
// space (DESIGN.md §7.7). The work list holds each distinct
// configuration of the sweep once (by sim.Canonical): the points in
// enumeration order, then the baselines not already listed. Each of
// those two lists is laid out warm group by warm group (sim.WarmKey,
// groups in order of first appearance, enumeration order inside a
// group), and unit j of the U units goes to shard ⌊j·n/U⌋. So every
// configuration is simulated by exactly one shard, a warm group is split
// only where a block boundary falls inside it, and a point belongs to
// the shard that owns its configuration. Enumeration order is a pure
// function of the space definition, so every process — and every
// re-lease of a crashed worker's shard — partitions identically.
func PlanShard(sp Space, sh Shard) (*ShardPlan, error) {
	if !sh.Enabled() {
		return nil, fmt.Errorf("dse: PlanShard needs an enabled shard")
	}
	all := sp.Enumerate()
	if len(all) == 0 {
		return nil, fmt.Errorf("dse: space %q enumerates no points", sp.Name)
	}
	canon := make([]sim.Config, len(all))
	listed := make(map[sim.Config]bool)
	var points, baselines []sim.Config
	for i, pt := range all {
		canon[i] = sim.Canonical(pt.Config)
		if !listed[canon[i]] {
			listed[canon[i]] = true
			points = append(points, pt.Config)
		}
	}
	for _, pt := range all {
		base := sp.BaselineFor(pt.Config)
		if c := sim.Canonical(base); !listed[c] {
			listed[c] = true
			baselines = append(baselines, base)
		}
	}
	work := append(byWarmGroup(points), byWarmGroup(baselines)...)

	owned := make(map[sim.Config]bool)
	var cfgs []sim.Config
	for j, cfg := range work {
		if blockOf(j, len(work), sh.Count) == sh.Index {
			cfgs = append(cfgs, cfg)
			owned[sim.Canonical(cfg)] = true
		}
	}
	owns := 0
	for _, c := range canon {
		if owned[c] {
			owns++
		}
	}
	return &ShardPlan{
		Space: sp.Name, Shard: sh,
		Points: owns, SpacePoints: len(all),
		Configs: cfgs,
	}, nil
}

// byWarmGroup reorders cfgs warm group by warm group (sim.WarmKey):
// groups in order of first appearance, cfgs' order kept inside each.
func byWarmGroup(cfgs []sim.Config) []sim.Config {
	var keys []sim.Config
	groups := make(map[sim.Config][]sim.Config)
	for _, cfg := range cfgs {
		k := sim.WarmKey(cfg)
		if _, ok := groups[k]; !ok {
			keys = append(keys, k)
		}
		groups[k] = append(groups[k], cfg)
	}
	out := make([]sim.Config, 0, len(cfgs))
	for _, k := range keys {
		out = append(out, groups[k]...)
	}
	return out
}

// blockOf returns ⌊j·n/u⌋ (j < u), the shard that owns unit j of u when
// n shards split the work list into contiguous blocks. The product is
// taken in 128 bits, so any shard count ParseShard accepts is exact.
func blockOf(j, u, n int) int {
	hi, lo := bits.Mul64(uint64(j), uint64(n))
	q, _ := bits.Div64(hi, lo, uint64(u))
	return int(q)
}

// EvaluateShard simulates this shard's work list (PlanShard) over every
// benchmark through the engine, without scoring or ranking: its entire
// purpose is populating the engine's cache tiers (above all the
// persistent store) so a stitch run assembles the full evaluation from
// warm entries. Shards never overlap, so no two processes simulate one
// configuration.
func EvaluateShard(eng Engine, benches []polybench.Bench, sp Space, sh Shard) (*ShardResult, error) {
	if benches == nil {
		benches = polybench.All()
	}
	plan, err := PlanShard(sp, sh)
	if err != nil {
		return nil, err
	}
	if len(plan.Configs) > 0 {
		if err := eng.Prefetch(benches, plan.Configs...); err != nil {
			return nil, fmt.Errorf("dse: %s shard %s: %w", sp.Name, sh, err)
		}
	}
	return &ShardResult{
		Space: sp.Name, Shard: sh,
		Points: plan.Points, SpacePoints: plan.SpacePoints,
		Benches: len(benches),
	}, nil
}

// String renders the shard pass summary line the CLI prints.
func (r *ShardResult) String() string {
	return fmt.Sprintf("dse-%s shard %s: simulated %d of %d design point(s) over %d benchmark(s)",
		r.Space, r.Shard, r.Points, r.SpacePoints, r.Benches)
}
