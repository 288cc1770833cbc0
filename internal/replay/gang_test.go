// Gang-replay equivalence suite (DESIGN.md §7.9): walking one trace for
// a batch of configurations is a pure performance mode, so every
// member's result must be byte-identical to its own serial replay — at
// any gang width, under any batch composition, in any member order.
package replay_test

import (
	"context"
	"testing"

	"sttdl1/internal/polybench"
	"sttdl1/internal/replay"
	"sttdl1/internal/sim"
)

// gangConfigs builds a batch of gang members sharing compile options
// (the plain arm of the Fig. 3 matrix, cycled to the requested width),
// so one gang mixes both kinds of data port: a Direct front end (SRAM
// baseline, drop-in STT) and the VWB. Repeats are deliberate: a sound
// gang must give duplicated members identical results.
func gangConfigs(width int) []sim.Config {
	presets := []func() sim.Config{sim.BaselineSRAM, sim.DropInSTT, sim.ProposalVWB}
	out := make([]sim.Config, width)
	for i := range out {
		out[i] = presets[i%len(presets)]()
	}
	return out
}

// TestGangReplayMatchesSerial replays the same members serially and
// ganged at widths 1, 2 and 8 and demands bit-identical results per
// member. Because every gang width is compared against the same serial
// reference, this also pins composition independence: a member's result
// cannot depend on who else is in its batch.
func TestGangReplayMatchesSerial(t *testing.T) {
	b, ok := polybench.ByName("atax")
	if !ok {
		t.Fatal("unknown benchmark atax")
	}
	traces := replay.NewCache()
	ctx := context.Background()
	cfgs := gangConfigs(8)
	serial := make([]*sim.RunResult, len(cfgs))
	for i, cfg := range cfgs {
		res, err := replay.Run(ctx, traces, b, cfg)
		if err != nil {
			t.Fatalf("serial replay %s: %v", cfg.Name, err)
		}
		serial[i] = res
	}
	for _, width := range []int{1, 2, 8} {
		for lo := 0; lo < len(cfgs); lo += width {
			hi := min(lo+width, len(cfgs))
			batch, _, err := replay.RunGang(ctx, traces, b, cfgs[lo:hi], 0, nil)
			if err != nil {
				t.Fatalf("gang width %d [%d:%d]: %v", width, lo, hi, err)
			}
			for i, res := range batch {
				mustEqualResults(t, b.Name+" gang width "+cfgs[lo+i].Name, serial[lo+i], res)
			}
		}
	}
}

// TestGangReplayOrderIndependent permutes the batch and checks the
// results follow the permutation exactly: member order inside a gang is
// timing-irrelevant.
func TestGangReplayOrderIndependent(t *testing.T) {
	b, ok := polybench.ByName("atax")
	if !ok {
		t.Fatal("unknown benchmark atax")
	}
	traces := replay.NewCache()
	ctx := context.Background()
	cfgs := gangConfigs(6)
	perm := []int{4, 2, 0, 5, 1, 3}
	permuted := make([]sim.Config, len(cfgs))
	for i, p := range perm {
		permuted[i] = cfgs[p]
	}
	straight, _, err := replay.RunGang(ctx, traces, b, cfgs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	shuffled, _, err := replay.RunGang(ctx, traces, b, permuted, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range perm {
		mustEqualResults(t, "permuted member "+cfgs[p].Name, straight[p], shuffled[i])
	}
}
