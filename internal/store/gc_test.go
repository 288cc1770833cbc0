package store

import (
	"os"
	"strings"
	"testing"
	"time"
)

// fill publishes n records under distinct keys and returns them in
// publication order.
func fill(t *testing.T, s *Store, n int) []Key {
	t.Helper()
	keys := make([]Key, n)
	for i := range keys {
		keys[i] = testKey(string(rune('a'+i)) + "-gc")
		if err := s.Put(keys[i], NewRecord("gemm", 32, testResult())); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

func TestScanAndVerify(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := fill(t, s, 3)

	d, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if d.Records != 3 || d.Bytes <= 0 || d.Healed != 0 {
		t.Fatalf("Scan = %+v, want 3 records, positive bytes, no heals", d)
	}

	// Corrupt one entry on disk; Verify must heal it and report one
	// fewer surviving record.
	if err := os.WriteFile(s.path(keys[1]), []byte("not a record"), 0o666); err != nil {
		t.Fatal(err)
	}
	v, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if v.Records != 2 || v.Healed != 1 {
		t.Fatalf("Verify = %+v, want 2 surviving records and 1 heal", v)
	}
	if _, found := s.Get(keys[1]); found {
		t.Error("healed entry still served")
	}
	if _, found := s.Get(keys[0]); !found {
		t.Error("Verify damaged a valid entry")
	}
}

// TestVerifyCountsStaleSchemaApart pins the schema-bump contract: an
// intact record written under an older SchemaVersion is removed by a
// deep scan but reported as stale, never as corruption.
func TestVerifyCountsStaleSchemaApart(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := fill(t, s, 3)
	old := NewRecord("gemm", 32, testResult())
	old.Schema = SchemaVersion - 1
	data, err := EncodeRecord(old)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(keys[0]), data, 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(keys[1]), []byte("not a record"), 0o666); err != nil {
		t.Fatal(err)
	}

	v, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if v.Records != 1 || v.Healed != 1 || v.Stale != 1 {
		t.Fatalf("Verify = %+v, want 1 surviving record, 1 heal, 1 stale", v)
	}
	if got := s.Stats().Corrupt; got != 1 {
		t.Errorf("corrupt counter = %d, want 1 (the stale record is not corruption)", got)
	}
	if got, want := v.String(), ", 1 corrupt entry(ies) healed, 1 stale-schema record(s) removed"; !strings.HasSuffix(got, want) {
		t.Errorf("DirStats.String() = %q, want suffix %q", got, want)
	}
	if _, found := s.Get(keys[0]); found {
		t.Error("stale record still served")
	}
}

func TestGCEvictsOldestFirst(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	keys := fill(t, s, 4)
	// Filesystem mtime granularity can make same-instant writes
	// order-ambiguous; pin an explicit, strictly increasing mtime per
	// entry so "oldest" is well-defined.
	base := time.Now().Add(-time.Hour)
	for i, k := range keys {
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.path(k), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	d, err := s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	per := d.Bytes / int64(d.Records)

	// Budget for two records: the two oldest must go, the two newest
	// stay.
	res, err := s.GC(2 * per)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 2 || res.Kept.Records != 2 {
		t.Fatalf("GC = %+v, want 2 evicted / 2 kept", res)
	}
	for i, k := range keys {
		_, found := s.Get(k)
		if wantFound := i >= 2; found != wantFound {
			t.Errorf("key %d: found=%v, want %v", i, found, wantFound)
		}
	}

	// maxBytes <= 0 empties the store.
	res, err = s.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Kept.Records != 0 {
		t.Fatalf("GC(0) kept %d record(s)", res.Kept.Records)
	}
	d, err = s.Scan()
	if err != nil {
		t.Fatal(err)
	}
	if d.Records != 0 || d.Bytes != 0 {
		t.Fatalf("post-GC Scan = %+v, want empty", d)
	}

	// An evicted key re-publishes cleanly: eviction costs warmth only.
	if err := s.Put(keys[0], NewRecord("gemm", 32, testResult())); err != nil {
		t.Fatal(err)
	}
	if _, found := s.Get(keys[0]); !found {
		t.Error("re-publish after GC not served")
	}
}
