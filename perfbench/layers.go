package main

import (
	"fmt"
	"strings"

	"sttdl1/internal/dse"
	"sttdl1/internal/polybench"
	"sttdl1/internal/sim"
	"sttdl1/internal/stats"
)

// perOp divides a layer's summed self time over the traced ops.
func perOp(self map[string]layerTime, name string) (calls, ns float64) {
	ops := float64(self["op"].calls)
	if ops == 0 {
		return 0, 0
	}
	lt := self[name]
	return float64(lt.calls) / ops, lt.selfNS / ops
}

// spanItem is a ledger line for a span-measured layer.
func spanItem(self map[string]layerTime, layer, name string) ledgerItem {
	calls, ns := perOp(self, name)
	if calls == 0 {
		return ledgerItem{layer: layer}
	}
	return ledgerItem{layer: layer, calls: calls, unitNS: ns / calls}
}

// suiteMetrics reports the experiments layer's pool counters over one
// traced op of wall time wallNS.
func (r *runCtx) suiteMetrics(c *stats.Counters, wallNS float64) {
	busy := float64(c.BusyTime())
	r.layers["suite.sims"] = float64(c.Runs())
	r.layers["suite.busy_ms"] = busy / 1e6
	r.layers["suite.utilization"] = busy / (wallNS * float64(jobs))
	r.layers["suite.max_queued"] = float64(c.MaxQueued())
	r.layers["suite.max_in_flight"] = float64(c.MaxInFlight())
}

// finishLedger records the ledger's metrics and prints it.
func (r *runCtx) finishLedger(l ledger, remainder string) {
	l.opNS = median(msOf(r.ops, "*")) * 1e6
	l.traced = median(msOf(r.tops, "*")) * 1e6
	r.layers["ledger.unexplained_pct"] = l.unexplainedPct()
	r.layers["ledger.trace_overhead_pct"] = l.overheadPct()
	for _, line := range splitLines(l.render(r.workload, remainder)) {
		r.logf("%s", line)
	}
}

// sweepLayers derives the per-layer metrics and the ledger of a sweep
// workload from its last traced op, the spans of all traced ops and the
// layer probes on the sweep's own kernels.
func (r *runCtx) sweepLayers(t *tracer, op *sweepOp, benches []polybench.Bench, sp dse.Space) error {
	dir, err := r.freshDir("probe-store")
	if err != nil {
		return err
	}
	p, err := runProbes(benches, dir)
	if err != nil {
		return err
	}
	p.setUnitMetrics(r.layers)
	self := selfTimes(t.snapshot())

	sims := op.counters.Runs() - op.counters.Cached()
	var cfgs []sim.Config
	if sims > 0 {
		cfgs = configsOf(sp)
	}
	loopNS, hierNS, records, accesses, err := p.simCost(cfgs, benches)
	if err != nil {
		return err
	}
	opts := sim.CompileOptions(sp.Enumerate()[0].Config)
	compNS, capNS, codecNS, capRecords, capBytes, err := captureCost(benches, opts)
	if err != nil {
		return err
	}
	if _, ok := r.layers["store.hits"]; !ok && op.st != nil {
		s := op.st.Stats()
		r.layers["store.hits"], r.layers["store.misses"], r.layers["store.writes"] = float64(s.Hits), float64(s.Misses), float64(s.Writes)
	}
	r.layers["replay.records"] = float64(records)
	r.layers["hierarchy.accesses"] = float64(accesses)
	r.layers["sim_new.calls"] = float64(sims)
	r.layers["capture.calls"] = float64(len(benches))
	r.layers["capture.records"] = float64(capRecords)
	r.layers["codec.bytes"] = float64(capBytes)
	_, renderNS := perOp(self, "dse.render")
	r.layers["dse.render_ms"] = renderNS / 1e6
	r.suiteMetrics(&op.counters, op.wallNS)
	for _, k := range serveLayerNames {
		r.layers[k] = 0 // a sweep never loads the service
	}

	nb := float64(len(benches))
	items := []ledgerItem{
		{"compile", nb, compNS / nb},
		{"capture", float64(capRecords), capNS / float64(capRecords)},
		{"codec (trace digest)", float64(capBytes), codecNS / float64(capBytes)},
		{"sim.New", float64(sims), p.simNewNS},
		{"replay loop (self)", float64(records), safeDiv(loopNS, float64(records))},
		{"hierarchy (cache+core)", float64(accesses), safeDiv(hierNS, float64(accesses))},
		{"store.Put", r.layers["store.writes"], p.storePutNS},
		{"store.Get (hit)", r.layers["store.hits"], p.storeGetNS},
		{"store.Get (miss)", r.layers["store.misses"], p.storeMissNS},
		spanItem(self, "dse (self)", "dse.Evaluate"),
		spanItem(self, "experiments.Run (memo)", "experiments.Run"),
		spanItem(self, "render", "dse.render"),
		spanItem(self, "op (self)", "op"),
		{"Go GC (runtime/metrics)", 1, op.rt.gcNS},
	}
	gangSave := 0.0
	for _, fe := range feKinds {
		gangSave += p.replayNS[fe.name] / float64(len(feKinds))
	}
	gangSave = float64(records) * (gangSave - p.gangNS)
	budget := median(msOf(r.ops, "*")) * 1e6 * float64(jobs)
	remainder := fmt.Sprintf("idle CPU %.1f%% of the traced op's budget (serial scoring, rendering and the pool's tail), gang amortisation %.1f%% (gang vs serial replay probe), pool scheduling the rest",
		100*op.rt.idleNS/(op.wallNS*float64(jobs)), -100*gangSave/budget)
	r.finishLedger(ledger{items: items, lanes: jobs}, remainder)
	return nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func splitLines(s string) []string { return strings.Split(strings.TrimSuffix(s, "\n"), "\n") }
