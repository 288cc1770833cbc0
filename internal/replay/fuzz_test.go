package replay_test

import (
	"bytes"
	"reflect"
	"testing"

	"sttdl1/internal/compile"
	"sttdl1/internal/polybench"
	"sttdl1/internal/replay"
	"sttdl1/internal/sim"
)

// FuzzTraceDecode feeds arbitrary bytes to the sttrace1 decoder. The
// honest-encoder round trip is pinned by TestTraceEncodeDecodeRoundTrip;
// this target covers the hostile half of the contract:
//
//   - Decode must reject malformed input with an error, never a panic,
//     and never an allocation proportional to a claimed-but-absent
//     length (a three-byte body may claim 2^32 records);
//   - any input Decode accepts must re-encode and decode again to the
//     identical streams (varints are not canonical — a non-minimal
//     encoding may legally decode — so the fixpoint is stream equality
//     after one re-encode, not byte equality of the input).
//
// Committed corpus seeds (testdata/fuzz/FuzzTraceDecode) are encodings
// of real captured traces; the in-code seeds add truncated, corrupted
// and length-lying variants of one.
func FuzzTraceDecode(f *testing.F) {
	b, ok := polybench.ByName("atax")
	if !ok {
		f.Fatal("unknown benchmark atax")
	}
	ck, err := compile.Compile(b.Build(6), sim.CompileOptions(sim.ProposalVWB()))
	if err != nil {
		f.Fatal(err)
	}
	tr, err := sim.CaptureTrace(ck)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := replay.Encode(&buf, tr); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(append([]byte{}, raw...))
	f.Add(append([]byte{}, raw[:len(raw)/2]...)) // truncated mid-stream
	mut := append([]byte{}, raw...)
	mut[len(mut)/2] ^= 0xff // corrupted delta
	f.Add(mut)
	f.Add([]byte("sttrace1"))                                         // header only
	f.Add([]byte("sttrace0"))                                         // wrong version
	f.Add([]byte("sttrace1\xff\xff\xff\xff\xff\xff\xff\x0f"))         // huge claimed length, empty body
	f.Add([]byte("sttrace1\x80\x80\x80\x80\x80\x80\x80\x80\x80\x02")) // > maxLen
	f.Add([]byte("sttrace1\x02\x00\x00\x00"))                         // plausible length, short body

	f.Fuzz(func(t *testing.T, data []byte) {
		tr1, err := replay.Decode(bytes.NewReader(data), ck.Prog)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		var out bytes.Buffer
		if err := replay.Encode(&out, tr1); err != nil {
			t.Fatalf("Encode of accepted trace failed: %v", err)
		}
		tr2, err := replay.Decode(bytes.NewReader(out.Bytes()), ck.Prog)
		if err != nil {
			t.Fatalf("re-decode of re-encoded trace failed: %v", err)
		}
		if !reflect.DeepEqual(tr1.PCs, tr2.PCs) {
			t.Fatal("PC stream not a re-encode fixpoint")
		}
		if !reflect.DeepEqual(tr1.Addrs, tr2.Addrs) {
			t.Fatal("address stream not a re-encode fixpoint")
		}
		for i := range tr1.PCs {
			if tr1.TakenAt(i) != tr2.TakenAt(i) {
				t.Fatalf("taken bit %d not a re-encode fixpoint", i)
			}
		}
	})
}
