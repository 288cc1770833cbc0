// Trace serialization: a compact varint stream of a captured execution.
// PCs and addresses are delta-encoded (zigzag) — the retired stream is
// overwhelmingly sequential PCs and strided addresses, so deltas keep
// most records to two or three bytes. Nothing reads the stream back:
// the persistent store keys on the functional digest, never on trace
// bytes (DESIGN.md §7.7). The format stays as the canonical byte form
// of a trace, which TestFunctionalDigests hashes to pin the digest
// against the trace it stands in for.
package replay

import (
	"bufio"
	"encoding/binary"
	"io"

	"sttdl1/internal/cpu"
)

// traceMagic guards the stream format; bump the trailing digit on any
// incompatible change.
const traceMagic = "sttrace1"

// Encode writes tr to w in the versioned varint format: the magic, the
// record count, every PC delta, every address delta, then the taken
// bitset as one uvarint per 64 records.
func Encode(w io.Writer, tr *cpu.Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(traceMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(tr.Len())); err != nil {
		return err
	}
	var prevPC int32
	for k := range tr.Chunks() {
		pcs, _, _ := tr.Chunk(k)
		for _, pc := range pcs {
			if err := putVarint(int64(pc - prevPC)); err != nil {
				return err
			}
			prevPC = pc
		}
	}
	var prevAddr uint32
	for k := range tr.Chunks() {
		_, addrs, _ := tr.Chunk(k)
		for _, a := range addrs {
			if err := putVarint(int64(int32(a - prevAddr))); err != nil {
				return err
			}
			prevAddr = a
		}
	}
	// Chunks hold a multiple of 64 records, so their bitsets concatenate
	// into the whole trace's.
	for k := range tr.Chunks() {
		_, _, taken := tr.Chunk(k)
		for _, word := range taken {
			if err := putUvarint(word); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
