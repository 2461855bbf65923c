package ff

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// packBitsRef is the reference encoder the word-at-a-time packer is held
// to: it writes v one bit at a time, little-endian bit order, and
// rejects elements wider than bits.
func packBitsRef(v Vec, bits uint) ([]byte, error) {
	if bits == 0 || bits > 64 {
		return nil, fmt.Errorf("invalid pack width %d", bits)
	}
	out := make([]byte, PackedSize(len(v), bits))
	bitPos := 0
	for i, e := range v {
		if bits < 64 && e>>bits != 0 {
			return nil, fmt.Errorf("element %d = %d exceeds %d bits", i, e, bits)
		}
		for b := uint(0); b < bits; b++ {
			if e>>b&1 == 1 {
				out[bitPos/8] |= 1 << (bitPos % 8)
			}
			bitPos++
		}
	}
	return out, nil
}

// unpackBitsRef inverts packBitsRef for n elements, one bit at a time.
func unpackBitsRef(data []byte, n int, bits uint) Vec {
	v := NewVec(n)
	bitPos := 0
	for i := range v {
		for b := uint(0); b < bits; b++ {
			if data[bitPos/8]>>(bitPos%8)&1 == 1 {
				v[i] |= 1 << b
			}
			bitPos++
		}
	}
	return v
}

// checkPackAgainstRef holds AppendPackBits (after prefix) and
// UnpackBitsInto to the bit-loop reference for one vector.
func checkPackAgainstRef(t *testing.T, prefix []byte, v Vec, bits uint) {
	t.Helper()
	want, wantErr := packBitsRef(v, bits)
	got, err := AppendPackBits(append([]byte(nil), prefix...), v, bits)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("bits=%d n=%d: AppendPackBits error %v, reference %v", bits, len(v), err, wantErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
		t.Fatalf("bits=%d n=%d: encoding diverges from the reference\n got %x\nwant %x%x", bits, len(v), got, prefix, want)
	}
	back := NewVec(len(v))
	if err := UnpackBitsInto(back, want, bits); err != nil {
		t.Fatalf("bits=%d n=%d: UnpackBitsInto: %v", bits, len(v), err)
	}
	if !back.Equal(v) || !back.Equal(unpackBitsRef(want, len(v), bits)) {
		t.Fatalf("bits=%d n=%d: UnpackBitsInto does not invert the encoding", bits, len(v))
	}
}

// TestAppendPackBitsMatchesOracle pins the accumulator-based packers to
// the reference bit loop across widths that exercise every accumulator
// edge: sub-byte, byte-aligned, the PASTA widths, and the 57..64
// straddle region where a byte can split across elements.
func TestAppendPackBitsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, bits := range []uint{1, 3, 7, 8, 9, 16, 17, 33, 54, 56, 57, 58, 63, 64} {
		mask := ^uint64(0)
		if bits < 64 {
			mask = 1<<bits - 1
		}
		for _, n := range []int{0, 1, 2, 3, 7, 8, 31, 32, 37} {
			v := NewVec(n)
			for i := range v {
				v[i] = rng.Uint64() & mask
			}
			checkPackAgainstRef(t, nil, v, bits)
			checkPackAgainstRef(t, []byte{0xaa, 0xbb}, v, bits)
		}
	}
}

// FuzzPackBits: for any width 1..64, any vector and any prefix,
// AppendPackBits emits the reference bytes after the untouched prefix,
// refuses exactly the elements the reference refuses, and
// UnpackBitsInto inverts it.
func FuzzPackBits(f *testing.F) {
	f.Add(uint8(17), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{0xaa})
	f.Add(uint8(64), bytes.Repeat([]byte{0xff}, 24), []byte(nil))
	f.Add(uint8(57), bytes.Repeat([]byte{0x5a}, 40), []byte{1, 2, 3})
	f.Add(uint8(1), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, width uint8, words, prefix []byte) {
		bits := uint(width)%64 + 1
		mask := ^uint64(0)
		if bits < 64 {
			mask = 1<<bits - 1
		}
		v := NewVec((len(words) + 7) / 8)
		for i := range v {
			var w [8]byte
			copy(w[:], words[8*i:])
			v[i] = binary.LittleEndian.Uint64(w[:])
		}
		// Raw words exercise the width check; masked ones the encoding.
		checkPackAgainstRef(t, prefix, v, bits)
		for i := range v {
			v[i] &= mask
		}
		checkPackAgainstRef(t, prefix, v, bits)
	})
}

func TestAppendPackBitsValidation(t *testing.T) {
	if _, err := AppendPackBits(nil, Vec{1 << 20}, 17); err == nil {
		t.Fatal("oversized element packed")
	}
	if _, err := AppendPackBits(nil, Vec{1}, 0); err == nil {
		t.Fatal("zero width accepted")
	}
	if _, err := AppendPackBits(nil, Vec{1}, 65); err == nil {
		t.Fatal("overwide width accepted")
	}
	if _, err := AppendPackBits(nil, Vec{^uint64(0)}, 64); err != nil {
		t.Fatalf("full-width element refused: %v", err)
	}
}

// TestUnpackBitsIntoZeroAlloc: the hot-path pair must not allocate once
// the destination capacity exists.
func TestUnpackBitsIntoZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by race-detector instrumentation")
	}
	v := Vec{11, 22, 33, 44, 55, 66, 77, 88}
	packed, err := AppendPackBits(nil, v, 17)
	if err != nil {
		t.Fatal(err)
	}
	dst := NewVec(len(v))
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if err := UnpackBitsInto(dst, packed, 17); err != nil {
			t.Fatal(err)
		}
		var perr error
		buf, perr = AppendPackBits(buf[:0], dst, 17)
		if perr != nil {
			t.Fatal(perr)
		}
	})
	if allocs != 0 {
		t.Fatalf("pack/unpack hot pair allocated %v times per run", allocs)
	}
}
