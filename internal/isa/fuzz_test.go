package isa

import (
	"bytes"
	"testing"
)

// FuzzCodecRoundTrip is the decode-side half of the codec's bijectivity
// contract (DESIGN.md §7): any byte image that Decode accepts must
// re-encode to exactly the bytes it was decoded from, and decode again
// to the identical instruction. Rejections must be errors, not panics.
func FuzzCodecRoundTrip(f *testing.F) {
	// Seed with one encoding per operand format plus hostile shapes.
	seeds := []Inst{
		{Op: OpADD, Rd: 1, Ra: 2, Rb: 3},
		{Op: OpADDI, Rd: 4, Ra: 5, Imm: -64},
		{Op: OpMOVI, Rd: 31, Imm: 1 << 30},
		{Op: OpFMOVI, Rd: 7, Imm: BitsFromF32(1.5)},
		{Op: OpFMOV, Rd: 0, Ra: 31},
		{Op: OpLDR, Rd: 3, Ra: 29, Imm: 4096},
		{Op: OpSTRX, Rd: 2, Ra: 3, Rb: 4, Imm: 2},
		{Op: OpVLDR, Rd: 15, Ra: 1, Imm: 16},
		{Op: OpPLD, Ra: 6, Imm: 128},
		{Op: OpB, Imm: -3},
		{Op: OpBEQ, Ra: 1, Rb: 2, Imm: 7},
		{Op: OpJR, Ra: 14},
		{Op: OpHALT},
	}
	for _, in := range seeds {
		var buf [InstBytes]byte
		if err := Encode(in, buf[:]); err != nil {
			f.Fatalf("seed %v: %v", in, err)
		}
		f.Add(buf[:])
	}
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})            // OpInvalid
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255}) // short + illegal
	f.Add([]byte{byte(OpADD), 40, 0, 0, 0, 0, 0, 0}) // register out of range
	f.Add([]byte{byte(OpHALT), 1, 0, 0, 0, 0, 0, 0}) // unused field nonzero

	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := Decode(data)
		if err != nil {
			return // rejected inputs only need to not panic
		}
		if verr := in.Validate(); verr != nil {
			t.Fatalf("Decode accepted invalid instruction %v: %v", in, verr)
		}
		var buf [InstBytes]byte
		if err := Encode(in, buf[:]); err != nil {
			t.Fatalf("Encode(Decode(%x)) = %v", data[:InstBytes], err)
		}
		if !bytes.Equal(buf[:], data[:InstBytes]) {
			t.Fatalf("re-encode mismatch: decoded %v from %x, encoded %x", in, data[:InstBytes], buf)
		}
		in2, err := Decode(buf[:])
		if err != nil || in2 != in {
			t.Fatalf("second decode = %v, %v; want %v", in2, err, in)
		}
	})
}

// FuzzEncodeDecodeRoundTrip is the encode-side half: every instruction
// that validates must encode, decode back to the identical instruction,
// and survive a program-level EncodeProgram/DecodeProgram round trip.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add(byte(OpADD), byte(1), byte(2), byte(3), int32(0))
	f.Add(byte(OpMOVI), byte(0), byte(0), byte(0), int32(-1))
	f.Add(byte(OpVFMA), byte(15), byte(14), byte(13), int32(0))
	f.Add(byte(OpLDRX), byte(9), byte(8), byte(7), int32(2))
	f.Add(byte(OpHALT), byte(0), byte(0), byte(0), int32(0))
	f.Add(byte(255), byte(255), byte(255), byte(255), int32(-1))

	f.Fuzz(func(t *testing.T, op, rd, ra, rb byte, imm int32) {
		in := Inst{Op: Opcode(op), Rd: rd, Ra: ra, Rb: rb, Imm: imm}
		if in.Validate() != nil {
			return
		}
		var buf [InstBytes]byte
		if err := Encode(in, buf[:]); err != nil {
			t.Fatalf("valid instruction %v failed to encode: %v", in, err)
		}
		out, err := Decode(buf[:])
		if err != nil {
			t.Fatalf("Decode(Encode(%v)) = %v", in, err)
		}
		if out != in {
			t.Fatalf("round trip changed instruction: %v -> %v", in, out)
		}

		p := &Program{Insts: []Inst{in, {Op: OpHALT}}}
		img, err := EncodeProgram(p)
		if err != nil {
			t.Fatalf("EncodeProgram: %v", err)
		}
		p2, err := DecodeProgram(img)
		if err != nil {
			t.Fatalf("DecodeProgram: %v", err)
		}
		if len(p2.Insts) != 2 || p2.Insts[0] != in {
			t.Fatalf("program round trip changed instructions: %v", p2.Insts)
		}
	})
}
