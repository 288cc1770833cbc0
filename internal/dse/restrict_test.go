package dse

import (
	"strings"
	"testing"
)

// TestRestrictSubsequence pins the core soundness property: a
// restricted space's pruned enumeration is exactly the subsequence of
// the full space's enumeration whose points use only the selected
// labels — same labels, same configs, re-indexed densely.
func TestRestrictSubsequence(t *testing.T) {
	sp := Smoke()
	sel := map[string][]string{
		"front-end": {"vwb", "direct"},
		"banks":     {"4bank"},
	}
	rsp, err := Restrict(sp, sel)
	if err != nil {
		t.Fatal(err)
	}
	if rsp.Name != sp.Name {
		t.Errorf("restricted space renamed: %q", rsp.Name)
	}

	keep := func(p Point) bool {
		fe := p.AxisLabel(sp, "front-end")
		return (fe == "vwb" || fe == "direct") && p.AxisLabel(sp, "banks") == "4bank"
	}
	var want []Point
	for _, p := range sp.Enumerate() {
		if keep(p) {
			want = append(want, p)
		}
	}
	got := rsp.Enumerate()
	if len(got) != len(want) {
		t.Fatalf("restricted enumeration has %d points, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Label != want[i].Label {
			t.Errorf("point %d: label %q, want %q", i, got[i].Label, want[i].Label)
		}
		if got[i].Index != i {
			t.Errorf("point %d: index %d, want dense re-index", i, got[i].Index)
		}
		if got[i].Config != want[i].Config {
			t.Errorf("point %d (%s): config diverged from full-space assembly", i, got[i].Label)
		}
	}
	if len(got) == 0 {
		t.Fatal("restriction selected nothing — test space drifted")
	}
}

// TestRestrictSelectionOrderIrrelevant pins that the selection's own
// label order does not leak into enumeration order.
func TestRestrictSelectionOrderIrrelevant(t *testing.T) {
	sp := Smoke()
	a, err := Restrict(sp, map[string][]string{"front-end": {"vwb", "direct"}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Restrict(sp, map[string][]string{"front-end": {"direct", "vwb"}})
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Enumerate(), b.Enumerate()
	if len(pa) != len(pb) {
		t.Fatalf("selection order changed point count: %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if pa[i].Label != pb[i].Label {
			t.Errorf("point %d: %q vs %q", i, pa[i].Label, pb[i].Label)
		}
	}
}

// TestRestrictErrors pins that unknown axes and labels are loud errors
// (a job must not silently sweep a different space), and that the empty
// selection is the identity.
func TestRestrictErrors(t *testing.T) {
	sp := Smoke()
	if _, err := Restrict(sp, map[string][]string{"no-such-axis": {"x"}}); err == nil ||
		!strings.Contains(err.Error(), "no axis") {
		t.Errorf("unknown axis: got %v", err)
	}
	if _, err := Restrict(sp, map[string][]string{"front-end": {"no-such-value"}}); err == nil ||
		!strings.Contains(err.Error(), "no value") {
		t.Errorf("unknown label: got %v", err)
	}
	if _, err := Restrict(sp, map[string][]string{"front-end": {}}); err == nil {
		t.Error("empty axis selection: want error")
	}
	same, err := Restrict(sp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(same.Enumerate()) != len(sp.Enumerate()) {
		t.Error("nil selection changed the space")
	}
}
