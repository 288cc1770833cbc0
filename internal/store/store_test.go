package store

import (
	"crypto/sha256"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"sttdl1/internal/cpu"
	"sttdl1/internal/sim"
)

// testResult builds a small but fully populated RunResult, the way a
// real simulation hands one to the store (CPU.State attached — the
// codec must strip it without mutating the original).
func testResult() *sim.RunResult {
	cfg := sim.ApplyDefaults(sim.ProposalVWB())
	r := &sim.RunResult{
		Config: cfg,
		Bench:  "gemm",
		CPU: &cpu.Result{
			Cycles: 123456, Insts: 65432,
			Loads: 1000, Stores: 500, Prefetches: 7,
			Branches: 90, Mispredicts: 3,
			ReadStallCycles: 11, WriteStallCycles: 22,
			State: &cpu.State{},
		},
		DL1BankConflictCycles: 42,
		DL1SRAMReads:          5,
		DL1WayOffCycles:       17,
	}
	r.DL1Stats.Reads, r.DL1Stats.ReadHits = 1000, 900
	r.FEStats.Writes, r.FEStats.WriteHits = 500, 450
	return r
}

func testKey(tag string) Key {
	var digest [sha256.Size]byte
	copy(digest[:], tag)
	return KeyFor("gemm@32", digest, "cfg:"+tag, "model")
}

func TestRecordRoundTrip(t *testing.T) {
	res := testResult()
	rec := NewRecord("gemm", 32, res)
	data, err := EncodeRecord(rec)
	if err != nil {
		t.Fatalf("EncodeRecord: %v", err)
	}
	if res.CPU.State == nil {
		t.Fatal("EncodeRecord mutated the input: CPU.State cleared on the shared result")
	}
	got, err := DecodeRecord(data)
	if err != nil {
		t.Fatalf("DecodeRecord: %v", err)
	}
	if got.Schema != SchemaVersion || got.Bench != "gemm" || got.Size != 32 {
		t.Errorf("decoded header = (%d, %q, %d)", got.Schema, got.Bench, got.Size)
	}
	if got.Result.CPU.State != nil {
		t.Error("decoded record carries CPU.State; it must never be stored")
	}
	want := *res.CPU
	want.State = nil
	if *got.Result.CPU != want {
		t.Errorf("decoded CPU counters = %+v, want %+v", *got.Result.CPU, want)
	}
	if got.Result.Bench != "gemm" {
		t.Errorf("decoded Result.Bench = %q, want the record's bench", got.Result.Bench)
	}
	if want := counters(res); !reflect.DeepEqual(counters(got.Result), want) {
		t.Errorf("decoded counters = %v, want %v", counters(got.Result), want)
	}
}

// counters lists every counter of r by name.
func counters(r *sim.RunResult) map[string]uint64 {
	m := make(map[string]uint64)
	r.Counters(func(c sim.Counter) {
		if c.Int != nil {
			m[c.Name] = uint64(*c.Int)
		} else {
			m[c.Name] = *c.Uint
		}
	})
	return m
}

// eachInteger calls f on every integer field reachable from v, except
// those of the configuration and the final architectural state,
// descending into structs and non-nil struct pointers. It walks the type
// itself rather than sim.RunResult.Counters, so a counter the walker
// leaves out is still seen here.
func eachInteger(v reflect.Value, prefix string, f func(name string, fv reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		sf, fv := v.Type().Field(i), v.Field(i)
		if !sf.IsExported() || sf.Name == "Config" || sf.Name == "State" {
			continue
		}
		switch fv.Kind() {
		case reflect.Pointer:
			if !fv.IsNil() {
				eachInteger(fv.Elem(), prefix+sf.Name+".", f)
			}
		case reflect.Struct:
			eachInteger(fv, prefix+sf.Name+".", f)
		case reflect.Int, reflect.Int64, reflect.Uint, reflect.Uint64:
			f(prefix+sf.Name, fv)
		}
	}
}

// TestRecordRoundTripEveryCounter gives every integer field of a
// RunResult a distinct value and requires the decoded result to equal
// the original in all of them: a field the counter walker leaves out
// comes back zero and fails here.
func TestRecordRoundTripEveryCounter(t *testing.T) {
	res := &sim.RunResult{Bench: "atax", CPU: &cpu.Result{}}
	var n int64
	eachInteger(reflect.ValueOf(res).Elem(), "", func(_ string, fv reflect.Value) {
		n++
		if fv.CanInt() {
			fv.SetInt(n * -7919) // negative: the sign must survive
		} else {
			fv.SetUint(uint64(n)<<40 | uint64(n))
		}
	})
	walked := int64(0)
	res.Counters(func(sim.Counter) { walked++ })
	if walked != n {
		t.Errorf("the counter walker yields %d counters, RunResult has %d integer fields", walked, n)
	}
	data, err := EncodeRecord(NewRecord("atax", 40, res))
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRecord(data)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]any)
	eachInteger(reflect.ValueOf(res).Elem(), "", func(name string, fv reflect.Value) { want[name] = fv.Interface() })
	eachInteger(reflect.ValueOf(got.Result).Elem(), "", func(name string, fv reflect.Value) {
		if fv.Interface() != want[name] {
			t.Errorf("%s = %v after the round trip, want %v", name, fv.Interface(), want[name])
		}
	})
	if !reflect.DeepEqual(got.Result, res) {
		t.Error("round trip changed the result")
	}
}

// TestRecordRoundTripQuick is the round trip as a property over random
// counters, bench names and sizes.
func TestRecordRoundTripQuick(t *testing.T) {
	prop := func(vals []uint64, bench string, size int) bool {
		res := &sim.RunResult{Bench: bench, CPU: &cpu.Result{}}
		i := 0
		res.Counters(func(c sim.Counter) {
			var v uint64
			if len(vals) > 0 {
				v = vals[i%len(vals)] + uint64(i)
			}
			i++
			if c.Int != nil {
				*c.Int = int64(v)
			} else {
				*c.Uint = v
			}
		})
		data, err := EncodeRecord(NewRecord(bench, size, res))
		if err != nil {
			return false
		}
		got, err := DecodeRecord(data)
		return err == nil && got.Schema == SchemaVersion && got.Bench == bench &&
			got.Size == size && reflect.DeepEqual(got.Result, res)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	valid, err := EncodeRecord(NewRecord("gemm", 32, testResult()))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":          nil,
		"short":          valid[:10],
		"header only":    valid[:headerBytes],
		"bad magic":      append([]byte("NOTAMAGIC"), valid[9:]...),
		"truncated tail": valid[:len(valid)-7],
		"extended tail":  append(append([]byte{}, valid...), 'x'),
		"all zero":       make([]byte, 256),
	}
	// Checksum mismatch: flip one payload byte.
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)-1] ^= 0x01
	cases["payload bitflip"] = flipped
	// Implausible declared length with a matching checksum position: the
	// bound must reject before any giant allocation.
	huge := append([]byte{}, valid...)
	for i := 0; i < 8; i++ {
		huge[len(recordMagic)+i] = 0xff
	}
	cases["huge length"] = huge

	for name, data := range cases {
		if _, err := DecodeRecord(data); err == nil {
			t.Errorf("%s: DecodeRecord accepted invalid input", name)
		}
	}
}

func TestStorePutGet(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("a")
	if _, ok := st.Get(k); ok {
		t.Fatal("Get on an empty store reported a hit")
	}
	rec := NewRecord("gemm", 32, testResult())
	if err := st.Put(k, rec); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, ok := st.Get(k)
	if !ok {
		t.Fatal("Get after Put missed")
	}
	if got.Result.CPU.Cycles != rec.Result.CPU.Cycles {
		t.Errorf("stored cycles = %d, want %d", got.Result.CPU.Cycles, rec.Result.CPU.Cycles)
	}
	if !st.Contains(k) {
		t.Error("Contains is false for a stored key")
	}
	if st.Contains(testKey("other")) {
		t.Error("Contains is true for a never-stored key")
	}
	want := Stats{Hits: 1, Misses: 1, Writes: 1}
	if got := st.Stats(); got != want {
		t.Errorf("Stats = %+v, want %+v", got, want)
	}
}

// entryFiles lists the .rec files under the store root.
func entryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && filepath.Ext(path) == ".rec" {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStoreHealsCorruptEntry is the regression test for the kill -9
// mid-write / bit-rot scenario: a present-but-invalid entry must be
// detected, deleted from disk and reported as a miss — never returned
// and never fatal — and the next Put must restore it.
func TestStoreHealsCorruptEntry(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)/2] },
		"bitflip":    func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b },
		"garbage":    func([]byte) []byte { return []byte("not a record at all") },
		"empty file": func([]byte) []byte { return nil },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			k := testKey("x")
			rec := NewRecord("gemm", 32, testResult())
			if err := st.Put(k, rec); err != nil {
				t.Fatal(err)
			}
			files := entryFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("expected exactly one entry file, found %v", files)
			}
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], corrupt(data), 0o666); err != nil {
				t.Fatal(err)
			}

			if _, ok := st.Get(k); ok {
				t.Fatal("Get returned a corrupt entry")
			}
			if n := len(entryFiles(t, dir)); n != 0 {
				t.Errorf("corrupt entry not deleted: %d file(s) remain", n)
			}
			s := st.Stats()
			if s.Corrupt != 1 || s.Hits != 0 {
				t.Errorf("Stats after corrupt read = %+v, want Corrupt 1 / Hits 0", s)
			}
			// Re-evaluation path: a fresh Put repairs the entry.
			if err := st.Put(k, rec); err != nil {
				t.Fatal(err)
			}
			if got, ok := st.Get(k); !ok || got.Result.CPU.Cycles != rec.Result.CPU.Cycles {
				t.Error("Get after repair did not serve the fresh record")
			}
		})
	}
}

func TestContainsDropsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("c")
	if err := st.Put(k, NewRecord("gemm", 32, testResult())); err != nil {
		t.Fatal(err)
	}
	files := entryFiles(t, dir)
	if err := os.WriteFile(files[0], []byte("torn"), 0o666); err != nil {
		t.Fatal(err)
	}
	if st.Contains(k) {
		t.Fatal("Contains validated a torn entry")
	}
	if n := len(entryFiles(t, dir)); n != 0 {
		t.Errorf("Contains left the torn entry on disk (%d files)", n)
	}
}

// TestKeyForFieldSeparation pins the length-delimited hashing: moving
// bytes between adjacent fields must change the key, and every field
// must participate.
func TestKeyForFieldSeparation(t *testing.T) {
	var digest [sha256.Size]byte
	base := KeyFor("ab", digest, "cd", "ef")
	distinct := []Key{
		KeyFor("a", digest, "bcd", "ef"), // bench/cfg boundary shifted
		KeyFor("ab", digest, "c", "def"), // cfg/model boundary shifted
		KeyFor("xb", digest, "cd", "ef"), // bench changed
		KeyFor("ab", digest, "xd", "ef"), // cfg changed
		KeyFor("ab", digest, "cd", "xf"), // model changed
	}
	var digest2 [sha256.Size]byte
	digest2[0] = 1
	distinct = append(distinct, KeyFor("ab", digest2, "cd", "ef"))
	seen := map[Key]bool{base: true}
	for i, k := range distinct {
		if seen[k] {
			t.Errorf("key %d collides: %s", i, k)
		}
		seen[k] = true
	}
	if got := KeyFor("ab", digest, "cd", "ef"); got != base {
		t.Error("KeyFor is not deterministic")
	}
}

func TestStatsString(t *testing.T) {
	s := Stats{Hits: 90, Misses: 6, Writes: 6}
	if got, want := s.String(), "90 cached / 6 evaluated, 6 written"; got != want {
		t.Errorf("Stats.String() = %q, want %q", got, want)
	}
	s.Corrupt = 2
	if got := s.String(); got != "90 cached / 6 evaluated, 6 written, 2 corrupt entry(ies) dropped" {
		t.Errorf("Stats.String() with corruption = %q", got)
	}
}

// TestEncodeStable pins byte-level determinism of the codec: equal
// records encode to equal bytes (the property that makes concurrent
// last-writer-wins publication a no-op).
func TestEncodeStable(t *testing.T) {
	a, err := EncodeRecord(NewRecord("gemm", 32, testResult()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeRecord(NewRecord("gemm", 32, testResult()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("equal records encode to different bytes")
	}
}

// BenchmarkRecordCodec prices one record through the codec, the part
// of a store hit or write that is not file I/O.
func BenchmarkRecordCodec(b *testing.B) {
	rec := NewRecord("gemm", 32, testResult())
	data, err := EncodeRecord(rec)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := EncodeRecord(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(data)))
		for i := 0; i < b.N; i++ {
			if _, err := DecodeRecord(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
