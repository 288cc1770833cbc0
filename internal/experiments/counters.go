package experiments

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"sttdl1/internal/dse"
	"sttdl1/internal/sim"
	"sttdl1/internal/tech"
)

// counterSet is one named group of configurations of the counter golden.
type counterSet struct {
	name string
	cfgs []sim.Config
}

// counterSets lists the configurations results_counters.json pins:
// the Fig. 3 matrix, the Fig. 8 front ends (the only DL1 structure with
// a store-invalidation path), the ablation-icache pair, the proposal
// with the bypass front end, and every point of the hybrid space.
func counterSets() []counterSet {
	fig8 := func(fe sim.FrontEndKind, name string) sim.Config {
		cfg := withOpts(sim.ProposalVWB(), allOpts())
		cfg.FrontEnd, cfg.Name = fe, name
		return cfg
	}
	dropI := sim.BaselineSRAM()
	dropI.Name, dropI.IL1Cell = "stt-il1-dropin", tech.STT2T2MTJ
	emshrI := dropI
	emshrI.Name, emshrI.IL1FrontEnd = "stt-il1-emshr", sim.FEEMSHR
	bypass := sim.ProposalVWB()
	bypass.Name, bypass.FrontEnd = "stt-bypass", sim.FEBypass
	hybrid := counterSet{name: "hybrid"}
	for _, p := range dse.Hybrid().Enumerate() {
		cfg := p.Config
		cfg.Name = p.Label
		hybrid.cfgs = append(hybrid.cfgs, cfg)
	}
	return []counterSet{
		{"fig3", []sim.Config{sim.BaselineSRAM(), sim.DropInSTT(), sim.ProposalVWB()}},
		{"fig8", []sim.Config{
			withOpts(sim.BaselineSRAM(), allOpts()),
			fig8(sim.FEVWB, "stt-vwb"), fig8(sim.FEEMSHR, "stt-emshr"), fig8(sim.FEL0, "stt-l0"),
		}},
		{"ablation-icache", []sim.Config{dropI, emshrI}},
		{"bypass", []sim.Config{bypass}},
		hybrid,
	}
}

// CounterGolden renders every raw RunResult counter of the golden's
// configurations (counterSets) on every benchmark of the suite, as the
// JSON array of results_counters.json: one object per run, its "run"
// name first, then the counters in RunResult field order. The rendered
// tables round penalties to a tenth of a percent; this pins the cycles
// and event counts underneath them.
func (s *Suite) CounterGolden() ([]byte, error) {
	sets := counterSets()
	for _, set := range sets {
		if err := s.Prefetch(s.Benches, set.cfgs...); err != nil {
			return nil, err
		}
	}
	var b strings.Builder
	b.WriteString("[\n")
	first := true
	for _, set := range sets {
		for _, cfg := range set.cfgs {
			for _, bench := range s.Benches {
				r, err := s.Run(bench, cfg)
				if err != nil {
					return nil, err
				}
				if !first {
					b.WriteString(",\n")
				}
				first = false
				fmt.Fprintf(&b, "{%q:%q", "run", set.name+" / "+cfg.Name+" / "+bench.Name)
				appendCounters(&b, "", reflect.ValueOf(*r))
				b.WriteString("}")
			}
		}
	}
	b.WriteString("\n]\n")
	return []byte(b.String()), nil
}

// appendCounters writes every integer field reachable from v as
// `,"Path.Field":value`, descending into structs and struct pointers.
// The configuration and the final architectural state are inputs and
// outputs of the run, not counters, and are skipped.
func appendCounters(b *strings.Builder, prefix string, v reflect.Value) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f, fv := t.Field(i), v.Field(i)
		if !f.IsExported() || f.Name == "Config" || f.Name == "State" {
			continue
		}
		name := prefix + f.Name
		switch fv.Kind() {
		case reflect.Pointer:
			if !fv.IsNil() {
				appendCounters(b, name+".", fv.Elem())
			}
		case reflect.Struct:
			appendCounters(b, name+".", fv)
		case reflect.Int, reflect.Int64:
			fmt.Fprintf(b, ",%q:%s", name, strconv.FormatInt(fv.Int(), 10))
		case reflect.Uint, reflect.Uint64:
			fmt.Fprintf(b, ",%q:%s", name, strconv.FormatUint(fv.Uint(), 10))
		}
	}
}
