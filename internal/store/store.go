// Package store is the persistent, content-addressed evaluation cache
// behind cross-run and cross-process sweep memoization (DESIGN.md
// §7.7). Each entry maps the content address of one evaluation — the
// kernel variant's functional digest (its compiled program and initial
// data image, the inputs its trace is a function of), the canonicalized
// simulator configuration, the energy/technology model parameters and
// the store schema version — to the full counter record of that
// simulation. The key is derived from a compile alone, so a stored
// evaluation is served without ever executing the kernel. Because
// simulation is deterministic (byte-identical at any worker count, live
// or replay), a stored result is indistinguishable from a fresh one,
// which is what makes serving results across runs, processes and
// sharded sweeps sound.
//
// Concurrency model: writes go to a private temp file and are published
// with an atomic rename, so readers never observe a torn entry through
// the store's own API and concurrent writers of one key race benignly —
// both rename identical bytes (last writer wins). A reader that does
// find a corrupt file (a process killed mid-write on a filesystem that
// reorders metadata, cosmic-ray bit rot, a hostile edit) deletes it and
// reports a miss: corruption is always repaired by re-evaluation, never
// returned and never fatal.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"

	"sttdl1/internal/sim"
)

// Key is the content address of one evaluation.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (the on-disk name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyFor derives the content address of one evaluation:
//
//   - benchKey names the kernel variant ("bench@size"), keeping the
//     benchmarks' address spaces apart independently of the digest;
//   - funcDigest is the variant's functional digest
//     (replay.Cache.Digest): SHA-256 over the encoded program, its
//     initial memory image and replay.FunctionalVersion — every
//     input the captured trace is a function of, known after a compile
//     and before any capture;
//   - cfgKey is sim.CanonicalKey of the configuration — every field the
//     timing model reads, defaults resolved;
//   - modelKey names the energy/technology model parameters the
//     objectives are derived under (energy.ModelKey);
//   - SchemaVersion invalidates the whole store on a semantic change.
//
// Fields are length-delimited before hashing so no two distinct field
// tuples can collide by concatenation.
func KeyFor(benchKey string, funcDigest [sha256.Size]byte, cfgKey, modelKey string) Key {
	// The preimage is assembled in one buffer and hashed with Sum256:
	// byte-for-byte the same stream the previous incremental-hash
	// version fed sha256.New, without the hash-state and per-field
	// conversion allocations (this runs once per store probe).
	buf := make([]byte, 0, 4*8+len(keyVersion)+len(benchKey)+len(funcDigest)+len(cfgKey)+len(modelKey))
	field := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		buf = append(buf, n[:]...)
		buf = append(buf, s...)
	}
	field(keyVersion)
	field(benchKey)
	buf = append(buf, funcDigest[:]...)
	field(cfgKey)
	field(modelKey)
	return Key(sha256.Sum256(buf))
}

// keyVersion is the schema field of every key preimage, rendered once.
var keyVersion = "sttstore/v" + strconv.Itoa(SchemaVersion)

// Stats is a snapshot of the store's counters since Open.
type Stats struct {
	// Hits counts evaluations served from disk.
	Hits int64
	// Misses counts lookups that found no (valid) entry.
	Misses int64
	// Writes counts records published.
	Writes int64
	// Corrupt counts invalid entries detected, deleted and re-missed.
	Corrupt int64
}

// String renders the snapshot the way warm sweeps report it.
func (s Stats) String() string {
	out := fmt.Sprintf("%d cached / %d evaluated, %d written", s.Hits, s.Misses, s.Writes)
	if s.Corrupt > 0 {
		out += fmt.Sprintf(", %d corrupt entry(ies) dropped", s.Corrupt)
	}
	return out
}

// Store is a persistent content-addressed evaluation cache rooted at a
// directory. Safe for concurrent use by any number of goroutines and
// processes.
type Store struct {
	dir string

	hits, misses, writes, corrupt atomic.Int64
}

// Open creates (if needed) and opens a store rooted at dir.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Writes:  s.writes.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

// path is the entry file for a key: two-hex-char fan-out directories
// keep any single directory's entry count filesystem-friendly for
// six-figure sweeps.
func (s *Store) path(k Key) string {
	// Built in one buffer rather than k.String() + slicing +
	// filepath.Join: this runs once per store probe on the warm sweep
	// path, and the Join route costs four intermediate strings.
	var name [2 * len(k)]byte
	hex.Encode(name[:], k[:])
	b := make([]byte, 0, len(s.dir)+len(name)+len("//.rec"))
	b = append(b, s.dir...)
	b = append(b, os.PathSeparator)
	b = append(b, name[:2]...)
	b = append(b, os.PathSeparator)
	b = append(b, name[2:]...)
	b = append(b, ".rec"...)
	return string(b)
}

// Get returns the record stored under k, or (nil, false) on a miss. A
// present-but-invalid entry — truncated write, checksum mismatch,
// foreign bytes — is deleted and reported as a miss, so corruption
// always heals by re-evaluation.
func (s *Store) Get(k Key) (*Record, bool) {
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		// Any read error is a miss; only a clean "not found" skips the
		// corruption accounting.
		if !errors.Is(err, fs.ErrNotExist) {
			s.dropCorrupt(k)
		}
		s.misses.Add(1)
		return nil, false
	}
	rec, err := DecodeRecord(data)
	if err != nil {
		s.dropCorrupt(k)
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return rec, true
}

// Contains reports whether a valid entry for k is on disk, without
// touching the hit/miss counters. It fully validates the entry (the
// guided search uses it to route already-evaluated points through the
// store), so a torn file answers false.
func (s *Store) Contains(k Key) bool {
	data, err := os.ReadFile(s.path(k))
	if err != nil {
		return false
	}
	if _, err := DecodeRecord(data); err != nil {
		s.dropCorrupt(k)
		return false
	}
	return true
}

// dropCorrupt removes an invalid entry so the next writer publishes a
// fresh one.
func (s *Store) dropCorrupt(k Key) {
	if err := os.Remove(s.path(k)); err == nil || errors.Is(err, fs.ErrNotExist) {
		s.corrupt.Add(1)
	}
}

// Put publishes rec under k: encode, write to a same-directory temp
// file, fsync-free atomic rename. A failed evaluation is never stored
// (callers only Put successful results); a failed Put leaves no partial
// entry behind. Concurrent writers of one key are benign — determinism
// makes their bytes identical, so last-writer-wins is a no-op.
func (s *Store) Put(k Key, rec *Record) error {
	data, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	dst := s.path(k)
	if err := os.MkdirAll(filepath.Dir(dst), 0o777); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.writes.Add(1)
	return nil
}

// NewRecord assembles a Record for one completed simulation.
func NewRecord(bench string, size int, r *sim.RunResult) *Record {
	return &Record{Schema: SchemaVersion, Bench: bench, Size: size, Result: r}
}
