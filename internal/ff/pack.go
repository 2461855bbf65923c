package ff

import "fmt"

// Bit-packing of field-element vectors: each element occupies exactly
// `bits` bits on the wire, the encoding the paper's communication
// accounting uses (e.g. a PASTA-4 block of 32 × 17-bit elements is 544
// bits = 68 bytes; Sec. V uses 32 × 33 bits = 132 bytes).

// PackedSize returns the byte length of n elements at the given width.
func PackedSize(n int, bits uint) int {
	return (n*int(bits) + 7) / 8
}

// AppendPackBits appends the encoding of v at the given per-element bit
// width to dst, little-endian bit order, and returns the extended slice
// (dst is typically a pooled frame buffer or a presized blob, so the
// append does not allocate). Elements must fit the width. It packs
// through a 64-bit accumulator, one byte store per output byte.
func AppendPackBits(dst []byte, v Vec, bits uint) ([]byte, error) {
	if bits == 0 || bits > 64 {
		return nil, fmt.Errorf("ff: invalid pack width %d", bits)
	}
	need := PackedSize(len(v), bits)
	off := len(dst)
	dst = append(dst, make([]byte, need)...)
	out := dst[off:]
	var acc uint64
	var nacc uint
	idx := 0
	for i, e := range v {
		if bits < 64 && e>>bits != 0 {
			return nil, fmt.Errorf("ff: element %d = %d exceeds %d bits", i, e, bits)
		}
		acc |= e << nacc
		if nacc > 0 && nacc+bits >= 64 {
			// The shift dropped the top nacc+bits-64 bits of e; flush the
			// full accumulator and carry them over.
			carry := e >> (64 - nacc)
			for k := 0; k < 8; k++ {
				out[idx] = byte(acc >> (8 * uint(k)))
				idx++
			}
			acc = carry
			nacc = nacc + bits - 64
		} else {
			nacc += bits
			for nacc >= 8 {
				out[idx] = byte(acc)
				idx++
				acc >>= 8
				nacc -= 8
			}
		}
	}
	if nacc > 0 {
		out[idx] = byte(acc)
	}
	return dst, nil
}

// UnpackBitsInto inverts AppendPackBits for exactly len(dst) elements
// without allocating. data must hold at least PackedSize(len(dst), bits)
// bytes.
func UnpackBitsInto(dst Vec, data []byte, bits uint) error {
	if bits == 0 || bits > 64 {
		return fmt.Errorf("ff: invalid pack width %d", bits)
	}
	if len(data) < PackedSize(len(dst), bits) {
		return fmt.Errorf("ff: %d bytes too short for %d × %d-bit elements", len(data), len(dst), bits)
	}
	mask := ^uint64(0)
	if bits < 64 {
		mask = 1<<bits - 1
	}
	var acc uint64
	var nacc uint
	idx := 0
	for i := range dst {
		for nacc < bits {
			b := uint64(data[idx])
			idx++
			if nacc > 56 {
				// The byte straddles the accumulator boundary. Since
				// nacc < bits ≤ 64 < nacc+8, this byte completes the
				// element: emit it and carry b's unconsumed top bits.
				acc |= b << nacc
				dst[i] = acc & mask
				acc = b >> (bits - nacc)
				nacc += 8 - bits
				goto next
			}
			acc |= b << nacc
			nacc += 8
		}
		dst[i] = acc & mask
		if bits == 64 {
			acc = 0
		} else {
			acc >>= bits
		}
		nacc -= bits
	next:
	}
	return nil
}
