package sim

import "sttdl1/internal/mem"

// Counter is one raw counter of a RunResult: the name the counter golden
// prints it under ("CPU.Cycles", "DL1Stats.ReadHits") and a pointer to
// its storage. Exactly one of Int and Uint is non-nil.
type Counter struct {
	Name string
	Int  *int64
	Uint *uint64
}

// Counters calls visit on every counter of r, in RunResult field order:
// every integer field reachable from r except those of the configuration
// and of the final architectural state, which are the run's input and
// output rather than counts of it. A nil r.CPU contributes no counters.
//
// This is the one definition of what a counter is. The counter golden
// (results_counters.json) prints exactly these, and the persistent
// store's record codec writes and reads exactly these, so a field left
// out here shows up as a golden diff and a failed store round trip
// rather than as a counter one of them silently drops.
func (r *RunResult) Counters(visit func(Counter)) {
	if c := r.CPU; c != nil {
		visit(Counter{Name: "CPU.Cycles", Int: &c.Cycles})
		visit(Counter{Name: "CPU.Insts", Uint: &c.Insts})
		visit(Counter{Name: "CPU.Loads", Uint: &c.Loads})
		visit(Counter{Name: "CPU.Stores", Uint: &c.Stores})
		visit(Counter{Name: "CPU.Prefetches", Uint: &c.Prefetches})
		visit(Counter{Name: "CPU.VecLoads", Uint: &c.VecLoads})
		visit(Counter{Name: "CPU.VecStores", Uint: &c.VecStores})
		visit(Counter{Name: "CPU.Branches", Uint: &c.Branches})
		visit(Counter{Name: "CPU.Mispredicts", Uint: &c.Mispredicts})
		visit(Counter{Name: "CPU.ReadStallCycles", Int: &c.ReadStallCycles})
		visit(Counter{Name: "CPU.WriteStallCycles", Int: &c.WriteStallCycles})
		visit(Counter{Name: "CPU.BranchStallCycles", Int: &c.BranchStallCycles})
		visit(Counter{Name: "CPU.FetchStallCycles", Int: &c.FetchStallCycles})
	}
	statsCounters(&feStatsNames, &r.FEStats, visit)
	statsCounters(&dl1StatsNames, &r.DL1Stats, visit)
	statsCounters(&l2StatsNames, &r.L2Stats, visit)
	statsCounters(&il1StatsNames, &r.IL1Stats, visit)
	visit(Counter{Name: "DL1BankConflictCycles", Int: &r.DL1BankConflictCycles})
	visit(Counter{Name: "DL1SRAMReads", Uint: &r.DL1SRAMReads})
	visit(Counter{Name: "DL1SRAMWrites", Uint: &r.DL1SRAMWrites})
	visit(Counter{Name: "DL1WayOffCycles", Int: &r.DL1WayOffCycles})
}

// statsCounters visits the counters of one component's mem.Stats under
// the names in names (field order).
func statsCounters(names *[9]string, s *mem.Stats, visit func(Counter)) {
	visit(Counter{Name: names[0], Uint: &s.Reads})
	visit(Counter{Name: names[1], Uint: &s.ReadHits})
	visit(Counter{Name: names[2], Uint: &s.Writes})
	visit(Counter{Name: names[3], Uint: &s.WriteHits})
	visit(Counter{Name: names[4], Uint: &s.Prefetches})
	visit(Counter{Name: names[5], Uint: &s.PrefetchHits})
	visit(Counter{Name: names[6], Uint: &s.WriteBacks})
	visit(Counter{Name: names[7], Uint: &s.Fills})
	visit(Counter{Name: names[8], Int: &s.BusyCycles})
}

// The mem.Stats counter names of each RunResult component, built once so
// a walk concatenates no strings.
var feStatsNames, dl1StatsNames, l2StatsNames, il1StatsNames = statsNames("FEStats"),
	statsNames("DL1Stats"), statsNames("L2Stats"), statsNames("IL1Stats")

func statsNames(prefix string) (names [9]string) {
	for i, f := range [9]string{"Reads", "ReadHits", "Writes", "WriteHits", "Prefetches", "PrefetchHits", "WriteBacks", "Fills", "BusyCycles"} {
		names[i] = prefix + "." + f
	}
	return names
}
