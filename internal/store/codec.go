package store

// Record codec: one evaluation result as a self-validating byte blob.
// The framing is deliberately simple — magic, payload length, payload
// checksum, JSON payload — because the failure mode that matters is not
// format evolution (the schema version participates in the *key*, so an
// incompatible change just misses) but torn or corrupted files from a
// process killed mid-write: Decode must reject those cheaply and
// unambiguously so the store can delete and re-evaluate.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"

	"sttdl1/internal/sim"
)

// SchemaVersion is the store's record-semantics version. It participates
// in every content address, so bumping it orphans (never corrupts) all
// previously stored results: old entries simply stop being addressable
// and a sweep re-evaluates. Bump it whenever the meaning of a stored
// counter changes — a timing-model fix, a new RunResult field the energy
// model reads, a codec change, a change to what the key covers. Version
// 2 keys on the functional digest instead of the trace bytes; version 3
// resets the IL1 front end between warm-up and measured pass; version 4
// stops tag misses from merging into the MSHR of an evicted line.
const SchemaVersion = 4

// recordMagic frames a record on disk. The trailing digit tracks the
// framing only; record semantics are versioned by SchemaVersion.
const recordMagic = "STTEVAL1"

// maxPayload bounds a record's JSON payload. Real records are a few KB;
// the bound exists so a corrupted length field cannot demand a
// multi-gigabyte allocation before the checksum gets a chance to reject
// the file.
const maxPayload = 16 << 20

// Record is one stored evaluation: the full counter record of a
// (kernel-variant, configuration) simulation. Energy and area are
// derived deterministically from these counters by internal/energy, so
// storing the counters stores the whole result; the model parameters
// still participate in the key so a model change re-evaluates rather
// than serving counters whose derived objectives silently moved.
//
// The result's CPU.State (final memory image and registers) is never
// stored: it is megabytes of replayable data no experiment consumer
// reads — a store hit returns Result.CPU.State == nil.
type Record struct {
	// Schema echoes SchemaVersion at write time (defense in depth; the
	// version is already part of the content address).
	Schema int
	// Bench and Size identify the kernel variant the counters belong to.
	Bench string
	Size  int
	// Result is the full simulation outcome minus CPU.State.
	Result *sim.RunResult
}

// EncodeRecord renders rec as a self-validating blob:
//
//	"STTEVAL1" | uint64 LE payload length | sha256(payload) | payload
//
// The input record is not mutated: the CPU.State strip happens on
// shallow copies (the result is shared with the in-memory memo).
func EncodeRecord(rec *Record) ([]byte, error) {
	if rec == nil || rec.Result == nil || rec.Result.CPU == nil {
		return nil, fmt.Errorf("store: encode: incomplete record")
	}
	// Shallow-copy the chain down to the State pointer being cleared;
	// everything else is plain data.
	r := *rec
	res := *rec.Result
	cpuRes := *rec.Result.CPU
	cpuRes.State = nil
	res.CPU = &cpuRes
	r.Result = &res

	payload, err := json.Marshal(&r)
	if err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	if len(payload) > maxPayload {
		return nil, fmt.Errorf("store: encode: payload %d bytes exceeds limit", len(payload))
	}
	out := make([]byte, 0, len(recordMagic)+8+sha256.Size+len(payload))
	out = append(out, recordMagic...)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	sum := sha256.Sum256(payload)
	out = append(out, sum[:]...)
	out = append(out, payload...)
	return out, nil
}

// errStaleSchema marks an intact record written under another
// SchemaVersion: unaddressable by this version's keys, but not corrupt.
var errStaleSchema = errors.New("store: stale schema")

// DecodeRecord parses and validates a blob EncodeRecord produced. Any
// deviation — short file, wrong magic, length mismatch, checksum
// mismatch, malformed JSON, wrong schema — returns an error; the caller
// treats every error as "delete and re-evaluate", and Verify reports the
// wrong-schema case (errStaleSchema) apart from corruption. The
// function never panics and never allocates more than the (bounded)
// declared payload length on garbage input.
func DecodeRecord(data []byte) (*Record, error) {
	header := len(recordMagic) + 8 + sha256.Size
	if len(data) < header {
		return nil, fmt.Errorf("store: record truncated (%d bytes)", len(data))
	}
	if string(data[:len(recordMagic)]) != recordMagic {
		return nil, fmt.Errorf("store: bad record magic %q", data[:len(recordMagic)])
	}
	n := binary.LittleEndian.Uint64(data[len(recordMagic) : len(recordMagic)+8])
	if n > maxPayload {
		return nil, fmt.Errorf("store: implausible payload length %d", n)
	}
	payload := data[header:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("store: payload length %d, header declares %d", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[len(recordMagic)+8:header]) {
		return nil, fmt.Errorf("store: record checksum mismatch")
	}
	var rec Record
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rec); err != nil {
		return nil, fmt.Errorf("store: record payload: %w", err)
	}
	if rec.Schema != SchemaVersion {
		return nil, fmt.Errorf("%w: record schema %d, want %d", errStaleSchema, rec.Schema, SchemaVersion)
	}
	if rec.Result == nil || rec.Result.CPU == nil {
		return nil, fmt.Errorf("store: record missing result")
	}
	return &rec, nil
}
