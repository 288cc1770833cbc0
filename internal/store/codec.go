package store

// Record codec: one evaluation result as a self-validating byte blob.
// The framing is deliberately simple — magic, payload length, payload
// checksum, payload — because the failure mode that matters is not
// format evolution (the schema version participates in the *key*, so an
// incompatible change just misses) but torn or corrupted files from a
// process killed mid-write: Decode must reject those cheaply and
// unambiguously so the store can delete and re-evaluate.
//
// The payload is a fixed layout, not a self-describing format: a warm
// sweep decodes one record per design point, and a generic decoder
// (JSON, up to schema 5) cost several times the file read and the
// checksum together. What keeps the layout honest is the layout
// fingerprint, a hash of the counter list (sim.RunResult.Counters) the
// payload was written under.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"sttdl1/internal/cpu"
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
// stops tag misses from merging into the MSHR of an evicted line;
// version 5 lets a bypass pre-read reuse a row a store dropped; version
// 6 stores the counters in a fixed binary layout instead of JSON.
const SchemaVersion = 6

// recordMagic frames a record on disk. The trailing digit tracks the
// framing only; record semantics are versioned by SchemaVersion.
// jsonMagic framed the JSON payloads of schemas 1–5: an intact record
// under it is stale, not corrupt.
const (
	recordMagic = "STTEVAL2"
	jsonMagic   = "STTEVAL1"
)

// maxPayload bounds a record's payload. Real records are about half a
// KB; the bound exists so a corrupted length field cannot demand a
// multi-gigabyte allocation before the checksum gets a chance to reject
// the file.
const maxPayload = 16 << 20

// headerBytes is the frame before the payload: magic, payload length,
// payload checksum.
const headerBytes = len(recordMagic) + 8 + sha256.Size

// Record is one stored evaluation: the full counter record of a
// (kernel-variant, configuration) simulation. Energy and area are
// derived deterministically from these counters by internal/energy, so
// storing the counters stores the whole result; the model parameters
// still participate in the key so a model change re-evaluates rather
// than serving counters whose derived objectives silently moved.
//
// Only the counters are stored. The result's configuration is not: the
// key covers it, and the reader already holds it (a decoded
// Result.Config is zero, and the suite sets it to the configuration it
// asked for). Nor is the result's CPU.State (final memory image and
// registers), megabytes of replayable data no experiment consumer reads
// — a store hit returns Result.CPU.State == nil. A decoded Result.Bench
// is the record's Bench.
type Record struct {
	// Schema echoes SchemaVersion at write time (defense in depth; the
	// version is already part of the content address).
	Schema int
	// Bench and Size identify the kernel variant the counters belong to.
	Bench string
	Size  int
	// Result is the simulation outcome's counters.
	Result *sim.RunResult
}

// layout describes the counter list of this build: how many counters a
// payload carries and the fingerprint of their names and kinds, so a
// record written under another list reads as stale rather than as
// shifted counters.
var layout = func() (l struct {
	counters    int
	fingerprint [8]byte
}) {
	h := sha256.New()
	r := sim.RunResult{CPU: &cpu.Result{}}
	r.Counters(func(c sim.Counter) {
		l.counters++
		kind := "u"
		if c.Int != nil {
			kind = "i"
		}
		h.Write([]byte(c.Name + " " + kind + "\n"))
	})
	copy(l.fingerprint[:], h.Sum(nil))
	return l
}()

// EncodeRecord renders rec as a self-validating blob:
//
//	"STTEVAL2" | uint64 LE payload length | sha256(payload) | payload
//
// where the payload is, every integer 8 bytes little-endian,
//
//	Schema | len(Bench) | Bench | Size | layout fingerprint | counters
//
// with the counters in sim.RunResult.Counters order. The input record is
// not mutated.
func EncodeRecord(rec *Record) ([]byte, error) {
	if rec == nil || rec.Result == nil || rec.Result.CPU == nil {
		return nil, fmt.Errorf("store: encode: incomplete record")
	}
	n := 8 + 8 + len(rec.Bench) + 8 + len(layout.fingerprint) + 8*layout.counters
	if n > maxPayload {
		return nil, fmt.Errorf("store: encode: payload %d bytes exceeds limit", n)
	}
	le := binary.LittleEndian
	out := make([]byte, headerBytes, headerBytes+n)
	copy(out, recordMagic)
	le.PutUint64(out[len(recordMagic):], uint64(n))
	out = le.AppendUint64(out, uint64(rec.Schema))
	out = le.AppendUint64(out, uint64(len(rec.Bench)))
	out = append(out, rec.Bench...)
	out = le.AppendUint64(out, uint64(rec.Size))
	out = append(out, layout.fingerprint[:]...)
	rec.Result.Counters(func(c sim.Counter) {
		if c.Int != nil {
			out = le.AppendUint64(out, uint64(*c.Int))
		} else {
			out = le.AppendUint64(out, *c.Uint)
		}
	})
	sum := sha256.Sum256(out[headerBytes:])
	copy(out[len(recordMagic)+8:], sum[:])
	return out, nil
}

// errStaleSchema marks an intact record written under another
// SchemaVersion, counter layout or framing: unaddressable by this
// version's keys, but not corrupt.
var errStaleSchema = errors.New("store: stale schema")

// decoded holds a decoded record and the results it points to in one
// allocation.
type decoded struct {
	rec Record
	res sim.RunResult
	cpu cpu.Result
}

// DecodeRecord parses and validates a blob EncodeRecord produced. Any
// deviation — short file, wrong magic, length mismatch, checksum
// mismatch, a payload that is not exactly the layout, wrong schema —
// returns an error; the caller treats every error as "delete and
// re-evaluate", and Verify reports an intact record of another schema,
// counter layout or framing (errStaleSchema) apart from corruption. The
// function never panics and never allocates more than the (bounded)
// declared payload length on garbage input.
func DecodeRecord(data []byte) (*Record, error) {
	if len(data) < headerBytes {
		return nil, fmt.Errorf("store: record truncated (%d bytes)", len(data))
	}
	magic := string(data[:len(recordMagic)])
	if magic != recordMagic && magic != jsonMagic {
		return nil, fmt.Errorf("store: bad record magic %q", data[:len(recordMagic)])
	}
	n := binary.LittleEndian.Uint64(data[len(recordMagic) : len(recordMagic)+8])
	if n > maxPayload {
		return nil, fmt.Errorf("store: implausible payload length %d", n)
	}
	payload := data[headerBytes:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("store: payload length %d, header declares %d", len(payload), n)
	}
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], data[len(recordMagic)+8:headerBytes]) {
		return nil, fmt.Errorf("store: record checksum mismatch")
	}
	if magic == jsonMagic {
		return nil, fmt.Errorf("%w: JSON-framed record", errStaleSchema)
	}

	le := binary.LittleEndian
	if len(payload) < 16 {
		return nil, fmt.Errorf("store: record payload truncated (%d bytes)", len(payload))
	}
	if schema := le.Uint64(payload); schema != SchemaVersion {
		return nil, fmt.Errorf("%w: record schema %d, want %d", errStaleSchema, schema, SchemaVersion)
	}
	benchLen := le.Uint64(payload[8:])
	payload = payload[16:]
	if benchLen > uint64(len(payload)) {
		return nil, fmt.Errorf("store: record bench name of %d bytes overruns the payload", benchLen)
	}
	bench := payload[:benchLen]
	payload = payload[benchLen:]
	if len(payload) < 8+len(layout.fingerprint) {
		return nil, fmt.Errorf("store: record payload truncated after the bench name")
	}
	size := int(int64(le.Uint64(payload)))
	if !bytes.Equal(payload[8:8+len(layout.fingerprint)], layout.fingerprint[:]) {
		return nil, fmt.Errorf("%w: record counter layout %x, want %x", errStaleSchema,
			payload[8:8+len(layout.fingerprint)], layout.fingerprint)
	}
	payload = payload[8+len(layout.fingerprint):]
	if len(payload) != 8*layout.counters {
		return nil, fmt.Errorf("store: record carries %d counter bytes, layout has %d counters", len(payload), layout.counters)
	}

	d := &decoded{}
	d.res.CPU = &d.cpu
	d.res.Bench = string(bench)
	d.rec = Record{Schema: SchemaVersion, Bench: d.res.Bench, Size: size, Result: &d.res}
	d.res.Counters(func(c sim.Counter) {
		v := le.Uint64(payload)
		payload = payload[8:]
		if c.Int != nil {
			*c.Int = int64(v)
		} else {
			*c.Uint = v
		}
	})
	return &d.rec, nil
}
