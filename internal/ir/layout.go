package ir

import "fmt"

// LayoutOptions control data-segment placement.
type LayoutOptions struct {
	// Align aligns every array base to AlignBytes (the cache line) — the
	// "alignment of loops, jumps, pointers" part of the paper's §V
	// optimizations. When false, arrays are packed with a small skew
	// that leaves most bases misaligned with respect to cache lines,
	// like ordinary malloc'd data.
	Align      bool
	AlignBytes int
	// SkewBytes is the deliberate misalignment applied between arrays
	// when Align is false (default 4: word- but not line-aligned).
	SkewBytes int
}

// DefaultLayoutOptions matches an unoptimized build.
func DefaultLayoutOptions() LayoutOptions {
	return LayoutOptions{Align: false, AlignBytes: 64, SkewBytes: 4}
}

// Layout assigns Base addresses to every array of k and returns the total
// data-segment size in bytes.
func Layout(k *Kernel, opt LayoutOptions) int {
	if opt.AlignBytes <= 0 {
		opt.AlignBytes = 64
	}
	if opt.SkewBytes <= 0 {
		opt.SkewBytes = 4
	}
	addr := 0
	for _, a := range k.Arrays {
		if opt.Align {
			addr = roundUp(addr, opt.AlignBytes)
		} else {
			// Pack with a skew so bases are word-aligned but usually not
			// line-aligned: vector accesses then straddle lines.
			addr = roundUp(addr, 4) + opt.SkewBytes
		}
		a.Base = uint32(addr)
		addr += a.Elems() * 4
	}
	return roundUp(addr, opt.AlignBytes)
}

func roundUp(x, to int) int { return (x + to - 1) / to * to }

// InitData writes every array's initial contents into data (the start of
// the functional memory image), which must be at least Layout()'s size.
// Elements go in row-major order, the index vector stepping like an
// odometer (last dimension fastest), so no element pays a division per
// dimension to recover its index.
func InitData(k *Kernel, data []byte) error {
	for _, a := range k.Arrays {
		if int(a.Base)+a.Elems()*4 > len(data) {
			return fmt.Errorf("ir: array %s [base %d, %d elems] exceeds data segment %d", a.Name, a.Base, a.Elems(), len(data))
		}
		if a.Init == nil {
			continue
		}
		idx := make([]int, len(a.Dims))
		out := data[a.Base : int(a.Base)+a.Elems()*4]
		for off := 0; off < len(out); off += 4 {
			putF32(out[off:], a.Init(idx))
			for d := len(idx) - 1; d >= 0; d-- {
				if idx[d]++; idx[d] < a.Dims[d] {
					break
				}
				idx[d] = 0
			}
		}
	}
	return nil
}

// ReadArray extracts the named array's contents from a memory image.
func ReadArray(a *Array, data []byte) []float32 {
	out := make([]float32, a.Elems())
	for e := range out {
		out[e] = getF32(data[a.Base+uint32(4*e):])
	}
	return out
}
