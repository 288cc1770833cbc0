package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"reflect"
	"testing"
)

// FuzzRecordDecode hardens the record codec against arbitrary disk
// contents — the store reads files any process (or bit rot) may have
// written. Two properties:
//
//  1. DecodeRecord never panics and never over-allocates on garbage
//     (the bounded declared length is checked before the payload is
//     touched);
//  2. anything that decodes re-encodes to a blob that decodes to the
//     same record — the codec round-trips through its own output.
//
// Seeds cover a valid record, systematic truncations of it, a checksum
// flip, a max-length header and a JSON-era record; go test -fuzz grows
// the corpus from there (committed under testdata/fuzz/FuzzRecordDecode,
// where the files from before the binary payload are garbage inputs
// now). scripts/check.sh runs the fuzzer for a short while on every
// check: the decoder parses bytes from disk by hand.
func FuzzRecordDecode(f *testing.F) {
	valid, err := EncodeRecord(NewRecord("gemm", 32, testResult()))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	for _, cut := range []int{0, 1, len(recordMagic), len(recordMagic) + 8, headerBytes, headerBytes + 8, headerBytes + 16, len(valid) - 8, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)-1] ^= 0x80
	f.Add(flipped)
	huge := append([]byte{}, valid[:len(recordMagic)]...)
	huge = binary.LittleEndian.AppendUint64(huge, maxPayload+1)
	f.Add(huge)
	f.Add([]byte(recordMagic))
	f.Add(bytes.Repeat([]byte{0}, 64))
	jsonEra, err := os.ReadFile("testdata/schema5.rec")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(jsonEra)

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return // rejected garbage: the only requirement is no panic
		}
		out, err := EncodeRecord(rec)
		if err != nil {
			t.Fatalf("decoded record fails to re-encode: %v", err)
		}
		rec2, err := DecodeRecord(out)
		if err != nil {
			t.Fatalf("re-encoded record fails to decode: %v", err)
		}
		if rec2.Schema != rec.Schema || rec2.Bench != rec.Bench || rec2.Size != rec.Size {
			t.Fatalf("round trip changed the header: %+v vs %+v", rec2, rec)
		}
		if !reflect.DeepEqual(rec2.Result, rec.Result) {
			t.Fatal("round trip changed the result")
		}
	})
}
