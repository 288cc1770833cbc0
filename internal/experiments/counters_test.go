package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// TestCounterGolden regenerates results_counters.json and names the
// first counter that moved. Regenerate the file with
// `go run ./scripts/counters > results_counters.json` after an intended
// model change (and bump store.SchemaVersion with it).
func TestCounterGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("full-size sweep; scripts/check.sh compares the same bytes without the race detector")
	}
	want, err := os.ReadFile("../../results_counters.json")
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSuite(nil).CounterGolden()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	if diff := firstCounterDiff(got, want); diff != "" {
		t.Fatalf("counter golden differs: %s", diff)
	}
	t.Fatal("counter golden differs in formatting only; regenerate it")
}

// firstCounterDiff names the first run and counter whose value differs
// between two renderings of the golden ("" when every counter agrees).
func firstCounterDiff(got, want []byte) string {
	g, err := decodeCounters(got)
	if err != nil {
		return "regenerated golden: " + err.Error()
	}
	w, err := decodeCounters(want)
	if err != nil {
		return "committed golden: " + err.Error()
	}
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i][0].name != w[i][0].name || g[i][0].value != w[i][0].value {
			return fmt.Sprintf("entry %d is %s, golden has %s", i, g[i][0].value, w[i][0].value)
		}
		for j := 1; j < len(g[i]) || j < len(w[i]); j++ {
			switch {
			case j >= len(w[i]):
				return fmt.Sprintf("%s: new counter %s", g[i][0].value, g[i][j].name)
			case j >= len(g[i]):
				return fmt.Sprintf("%s: counter %s is gone", g[i][0].value, w[i][j].name)
			case g[i][j] != w[i][j]:
				return fmt.Sprintf("%s: %s = %s, golden %s = %s", g[i][0].value, g[i][j].name, g[i][j].value, w[i][j].name, w[i][j].value)
			}
		}
	}
	if len(g) != len(w) {
		return fmt.Sprintf("%d runs, golden has %d", len(g), len(w))
	}
	return ""
}

type counterField struct{ name, value string }

// decodeCounters parses the golden's array of flat objects keeping each
// object's field order (a map would lose it).
func decodeCounters(data []byte) ([][]counterField, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var runs [][]counterField
	if _, err := dec.Token(); err != nil { // [
		return nil, err
	}
	for dec.More() {
		if _, err := dec.Token(); err != nil { // {
			return nil, err
		}
		var fields []counterField
		for dec.More() {
			k, err := dec.Token()
			if err != nil {
				return nil, err
			}
			v, err := dec.Token()
			if err != nil {
				return nil, err
			}
			fields = append(fields, counterField{fmt.Sprint(k), fmt.Sprint(v)})
		}
		if _, err := dec.Token(); err != nil { // }
			return nil, err
		}
		if len(fields) == 0 {
			return nil, fmt.Errorf("run %d has no fields", len(runs))
		}
		runs = append(runs, fields)
	}
	return runs, nil
}
