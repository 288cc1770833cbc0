package store

// Maintenance entry points (DESIGN.md §7.8): an always-on sweep service
// accretes store records without bound, so the store grows scan,
// verify and GC operations — `sttexplore store stats|gc` on the CLI,
// and the light scan behind the server's /v1/healthz.
//
// Concurrent-reader safety: every operation here works on immutable
// published entries (writers publish by atomic rename; see Put) and
// deletes whole files. A reader racing an eviction — or a GC racing
// another process's GC — observes either the valid entry or a clean
// miss, never a torn record; a miss re-evaluates and may re-publish,
// so eviction can only cost warmth, never correctness. That is the
// same contract corruption healing already relies on.

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// DirStats summarizes the records on disk.
type DirStats struct {
	// Records is the number of entry files; Bytes their summed size.
	Records int   `json:"records"`
	Bytes   int64 `json:"bytes"`
	// Healed counts the invalid entries a deep scan (Verify) detected
	// and deleted; a light Scan never validates, so it reports 0.
	Healed int `json:"healed,omitempty"`
	// Stale counts the intact records of another SchemaVersion a deep
	// scan deleted: no key of this version can address them, but they
	// are not corruption and do not raise the corrupt counter.
	Stale int `json:"stale,omitempty"`
}

// String renders the stats the way `sttexplore store stats` and the
// server's health line print them.
func (d DirStats) String() string {
	out := fmt.Sprintf("%d record(s), %d bytes", d.Records, d.Bytes)
	if d.Healed > 0 {
		out += fmt.Sprintf(", %d corrupt entry(ies) healed", d.Healed)
	}
	if d.Stale > 0 {
		out += fmt.Sprintf(", %d stale-schema record(s) removed", d.Stale)
	}
	return out
}

// entry is one on-disk record file, as GC ordering sees it.
type entry struct {
	path    string
	size    int64
	modTime time.Time
}

// entries walks the store directory collecting record files. Stray temp
// files and foreign names are ignored — they are either an in-flight
// writer's (about to be renamed or removed) or not ours to touch. Files
// that vanish mid-walk (a concurrent GC or corruption heal) are skipped,
// not errors.
func (s *Store) entries() ([]entry, error) {
	var out []entry
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() || !strings.HasSuffix(d.Name(), ".rec") {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		out = append(out, entry{path: path, size: info.Size(), modTime: info.ModTime()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return out, nil
}

// Scan reports the record count and byte total without reading record
// contents — cheap enough for a health endpoint polled by a load
// balancer.
func (s *Store) Scan() (DirStats, error) {
	ents, err := s.entries()
	if err != nil {
		return DirStats{}, err
	}
	var d DirStats
	for _, e := range ents {
		d.Records++
		d.Bytes += e.size
	}
	return d, nil
}

// Verify is the deep scan: every entry is read and decoded, and invalid
// ones — truncated writes, checksum mismatches, foreign bytes — are
// deleted so the next evaluation re-publishes them (the same healing
// Get performs lazily, applied eagerly to the whole store). Intact
// records of another SchemaVersion are deleted too, but counted as
// stale rather than corrupt. The returned stats describe the surviving
// records.
func (s *Store) Verify() (DirStats, error) {
	ents, err := s.entries()
	if err != nil {
		return DirStats{}, err
	}
	var d DirStats
	for _, e := range ents {
		data, err := os.ReadFile(e.path)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue // lost a race with another healer/GC: already gone
			}
			return DirStats{}, fmt.Errorf("store: %w", err)
		}
		if _, derr := DecodeRecord(data); derr != nil {
			if rerr := os.Remove(e.path); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
				return DirStats{}, fmt.Errorf("store: healing %s: %w", e.path, rerr)
			}
			if errors.Is(derr, errStaleSchema) {
				d.Stale++
			} else {
				d.Healed++
				s.corrupt.Add(1)
			}
			continue
		}
		d.Records++
		d.Bytes += int64(len(data))
	}
	return d, nil
}

// GCResult is the accounting of one eviction pass.
type GCResult struct {
	// Evicted is the number of records deleted; FreedBytes their summed
	// size.
	Evicted    int   `json:"evicted"`
	FreedBytes int64 `json:"freed_bytes"`
	// Kept describes the records surviving the pass.
	Kept DirStats `json:"kept"`
}

// String renders the result the way `sttexplore store gc` prints it.
func (r GCResult) String() string {
	return fmt.Sprintf("evicted %d record(s) (%d bytes); kept %s",
		r.Evicted, r.FreedBytes, r.Kept)
}

// GC evicts records, oldest modification time first, until the store's
// byte total is at or under maxBytes (maxBytes <= 0 empties the store).
// Eviction order is deterministic for a quiet store: mtime ascending,
// ties by path. Concurrent readers of an evicted key see a clean miss
// and re-evaluate; concurrent writers re-publish — GC bounds disk, it
// never breaks the cache contract.
func (s *Store) GC(maxBytes int64) (GCResult, error) {
	ents, err := s.entries()
	if err != nil {
		return GCResult{}, err
	}
	var total int64
	for _, e := range ents {
		total += e.size
	}
	sort.Slice(ents, func(i, j int) bool {
		if !ents[i].modTime.Equal(ents[j].modTime) {
			return ents[i].modTime.Before(ents[j].modTime)
		}
		return ents[i].path < ents[j].path
	})
	var res GCResult
	kept := ents
	for len(kept) > 0 && total > maxBytes {
		e := kept[0]
		kept = kept[1:]
		if err := os.Remove(e.path); err != nil && !errors.Is(err, fs.ErrNotExist) {
			return GCResult{}, fmt.Errorf("store: gc: %w", err)
		}
		res.Evicted++
		res.FreedBytes += e.size
		total -= e.size
	}
	for _, e := range kept {
		res.Kept.Records++
		res.Kept.Bytes += e.size
	}
	return res, nil
}
