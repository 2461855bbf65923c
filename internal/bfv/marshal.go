package bfv

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/ff"
	"repro/internal/rlwe"
)

// Ciphertext serialization: a small header (degree, level, N) followed by
// each residue polynomial bit-packed at its prime's width. This is the
// wire format whose measured size drives the communication-expansion
// experiment (the 10,000–100,000× FHE overhead of the paper's Sec. I).

const ctMagic = 0x42465601 // "BFV",1

// MarshalBinary serializes the ciphertext into one allocation of its
// exact size.
func (ct *Ciphertext) MarshalBinary(c *Context) ([]byte, error) {
	out := make([]byte, 0, 12+len(ct.C)*c.polyBytes())
	out = binary.LittleEndian.AppendUint32(out, ctMagic)
	out = binary.LittleEndian.AppendUint16(out, uint16(len(ct.C)))
	out = binary.LittleEndian.AppendUint16(out, uint16(c.RQ.Level()))
	out = binary.LittleEndian.AppendUint32(out, uint32(c.Params.N))
	var err error
	for _, poly := range ct.C {
		if out, err = c.marshalRNSPoly(out, poly); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// UnmarshalCiphertext parses a ciphertext serialized for this context.
func (c *Context) UnmarshalCiphertext(data []byte) (*Ciphertext, error) {
	if len(data) < 12 {
		return nil, fmt.Errorf("bfv: ciphertext blob too short")
	}
	if binary.LittleEndian.Uint32(data) != ctMagic {
		return nil, fmt.Errorf("bfv: bad ciphertext magic")
	}
	nPolys := int(binary.LittleEndian.Uint16(data[4:]))
	level := int(binary.LittleEndian.Uint16(data[6:]))
	n := int(binary.LittleEndian.Uint32(data[8:]))
	if level != c.RQ.Level() || n != c.Params.N {
		return nil, fmt.Errorf("bfv: ciphertext parameters (N=%d, L=%d) do not match context (N=%d, L=%d)",
			n, level, c.Params.N, c.RQ.Level())
	}
	if nPolys < 2 || nPolys > 8 {
		return nil, fmt.Errorf("bfv: implausible ciphertext degree %d", nPolys-1)
	}
	if want := 12 + nPolys*c.polyBytes(); len(data) != want {
		return nil, fmt.Errorf("bfv: ciphertext blob has %d bytes, want %d", len(data), want)
	}
	ct := &Ciphertext{C: make([]rlwe.RNSPoly, nPolys)}
	off := 12
	var err error
	for i := range ct.C {
		if ct.C[i], off, err = c.unmarshalRNSPoly(data, off); err != nil {
			return nil, err
		}
	}
	return ct, nil
}

// --- key material serialization ---------------------------------------------

const (
	rlkMagic = 0x42465603
	gkMagic  = 0x42465604
	parMagic = 0x42465605
)

// limbWidth is the packed bit width of residues modulo q.
func limbWidth(q uint64) uint { return uint(bits.Len64(q - 1)) }

// polyBytes is the packed size of one RNS polynomial: each limb's N
// residues at its prime's width.
func (c *Context) polyBytes() int {
	sz := 0
	for _, ring := range c.RQ.Rings {
		sz += ff.PackedSize(c.Params.N, limbWidth(ring.Q))
	}
	return sz
}

// marshalRNSPoly appends the bit-packed residues of p.
func (c *Context) marshalRNSPoly(out []byte, p rlwe.RNSPoly) ([]byte, error) {
	if len(p) != c.RQ.Level() {
		return nil, fmt.Errorf("bfv: polynomial has %d limbs, context %d", len(p), c.RQ.Level())
	}
	var err error
	for l, ring := range c.RQ.Rings {
		if out, err = ff.AppendPackBits(out, ff.Vec(p[l]), limbWidth(ring.Q)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// unmarshalRNSPoly reads one RNS polynomial at data[off:], unpacking
// straight into its limbs and range-checking every residue, and returns
// the offset past it.
func (c *Context) unmarshalRNSPoly(data []byte, off int) (rlwe.RNSPoly, int, error) {
	p := c.RQ.NewPoly()
	for l, ring := range c.RQ.Rings {
		w := limbWidth(ring.Q)
		end := off + ff.PackedSize(c.Params.N, w)
		if end > len(data) {
			return nil, 0, fmt.Errorf("bfv: truncated polynomial")
		}
		if err := ff.UnpackBitsInto(ff.Vec(p[l]), data[off:end], w); err != nil {
			return nil, 0, err
		}
		for _, v := range p[l] {
			if v >= ring.Q {
				return nil, 0, fmt.Errorf("bfv: residue %d out of range for prime %d", v, ring.Q)
			}
		}
		off = end
	}
	return p, off, nil
}

// marshalPairs appends a key-switching key: its digit count, then each
// decomposition pair.
func (c *Context) marshalPairs(out []byte, pairs [][2]rlwe.RNSPoly) ([]byte, error) {
	out = binary.LittleEndian.AppendUint16(out, uint16(len(pairs)))
	var err error
	for _, pair := range pairs {
		for _, p := range pair {
			if out, err = c.marshalRNSPoly(out, p); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// pairsBytes is the encoded size of a key-switching key of the given
// digit count.
func (c *Context) pairsBytes(digits int) int { return 2 + 2*digits*c.polyBytes() }

// unmarshalPairs reads a key-switching key written by marshalPairs at
// data[off:] and returns the offset past it. The blob must hold every
// digit before any polynomial is allocated.
func (c *Context) unmarshalPairs(data []byte, off int) ([][2]rlwe.RNSPoly, int, error) {
	if off+2 > len(data) {
		return nil, 0, fmt.Errorf("bfv: truncated key blob")
	}
	digits := int(binary.LittleEndian.Uint16(data[off:]))
	if digits < 1 || digits > 64 {
		return nil, 0, fmt.Errorf("bfv: implausible digit count %d", digits)
	}
	if off+c.pairsBytes(digits) > len(data) {
		return nil, 0, fmt.Errorf("bfv: truncated key blob")
	}
	off += 2
	pairs := make([][2]rlwe.RNSPoly, digits)
	var err error
	for k := range pairs {
		for j := range pairs[k] {
			if pairs[k][j], off, err = c.unmarshalRNSPoly(data, off); err != nil {
				return nil, 0, err
			}
		}
	}
	return pairs, off, nil
}

// MarshalBinary serializes the relinearization key.
func (rlk *RelinKey) MarshalBinary(c *Context) ([]byte, error) {
	out := make([]byte, 0, 6+c.pairsBytes(len(rlk.pairs)))
	out = binary.LittleEndian.AppendUint32(out, rlkMagic)
	out = binary.LittleEndian.AppendUint16(out, uint16(rlk.base))
	return c.marshalPairs(out, rlk.pairs)
}

// UnmarshalRelinKey parses a relinearization key for this context.
func (c *Context) UnmarshalRelinKey(data []byte) (*RelinKey, error) {
	if len(data) < 6 || binary.LittleEndian.Uint32(data) != rlkMagic {
		return nil, fmt.Errorf("bfv: bad relin-key blob")
	}
	pairs, off, err := c.unmarshalPairs(data, 6)
	if err != nil {
		return nil, err
	}
	if off != len(data) {
		return nil, fmt.Errorf("bfv: trailing bytes in relin-key blob")
	}
	return &RelinKey{base: uint(binary.LittleEndian.Uint16(data[4:])), pairs: pairs}, nil
}

// MarshalBinary serializes the Galois key set. Galois elements are
// emitted in ascending order so equal key sets marshal to identical
// bytes (the e2e tests compare server replies byte-for-byte, and any
// map-iteration nondeterminism here would leak into derived blobs).
func (gks *GaloisKeys) MarshalBinary(c *Context) ([]byte, error) {
	elems := make([]uint64, 0, len(gks.keys))
	size := 8
	for g, pairs := range gks.keys {
		elems = append(elems, g)
		size += 8 + c.pairsBytes(len(pairs))
	}
	slices.Sort(elems)
	out := make([]byte, 0, size)
	out = binary.LittleEndian.AppendUint32(out, gkMagic)
	out = binary.LittleEndian.AppendUint16(out, uint16(gks.base))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(gks.keys)))
	var err error
	for _, g := range elems {
		out = binary.LittleEndian.AppendUint64(out, g)
		if out, err = c.marshalPairs(out, gks.keys[g]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// UnmarshalGaloisKeys parses a Galois key set for this context.
func (c *Context) UnmarshalGaloisKeys(data []byte) (*GaloisKeys, error) {
	if len(data) < 8 || binary.LittleEndian.Uint32(data) != gkMagic {
		return nil, fmt.Errorf("bfv: bad galois-key blob")
	}
	base := uint(binary.LittleEndian.Uint16(data[4:]))
	count := int(binary.LittleEndian.Uint16(data[6:]))
	if count < 1 || count > 4096 {
		return nil, fmt.Errorf("bfv: implausible galois-key count %d", count)
	}
	gks := &GaloisKeys{keys: map[uint64][][2]rlwe.RNSPoly{}, base: base}
	off := 8
	for k := 0; k < count; k++ {
		if off+8 > len(data) {
			return nil, fmt.Errorf("bfv: truncated galois-key blob")
		}
		g := binary.LittleEndian.Uint64(data[off:])
		if _, dup := gks.keys[g]; dup {
			return nil, fmt.Errorf("bfv: duplicate galois element %d", g)
		}
		pairs, next, err := c.unmarshalPairs(data, off+8)
		if err != nil {
			return nil, err
		}
		gks.keys[g], off = pairs, next
	}
	if off != len(data) {
		return nil, fmt.Errorf("bfv: trailing bytes in galois-key blob")
	}
	return gks, nil
}

// MarshalBinary serializes the parameter set, so a remote peer can build
// the exact Context a key blob was generated under before parsing it.
func (p Params) MarshalBinary() ([]byte, error) {
	out := binary.LittleEndian.AppendUint32(nil, parMagic)
	out = binary.LittleEndian.AppendUint32(out, uint32(p.N))
	out = binary.LittleEndian.AppendUint64(out, p.T)
	out = binary.LittleEndian.AppendUint16(out, uint16(p.Eta))
	out = binary.LittleEndian.AppendUint16(out, uint16(p.RelinBits))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(p.Qs)))
	for _, q := range p.Qs {
		out = binary.LittleEndian.AppendUint64(out, q)
	}
	out = binary.LittleEndian.AppendUint16(out, uint16(len(p.Ps)))
	for _, q := range p.Ps {
		out = binary.LittleEndian.AppendUint64(out, q)
	}
	return out, nil
}

// UnmarshalParams parses a serialized parameter set.
func UnmarshalParams(data []byte) (Params, error) {
	var p Params
	if len(data) < 22 || binary.LittleEndian.Uint32(data) != parMagic {
		return p, fmt.Errorf("bfv: bad params blob")
	}
	p.N = int(binary.LittleEndian.Uint32(data[4:]))
	p.T = binary.LittleEndian.Uint64(data[8:])
	p.Eta = int(binary.LittleEndian.Uint16(data[16:]))
	p.RelinBits = uint(binary.LittleEndian.Uint16(data[18:]))
	if p.N < 8 || p.N > 1<<20 || p.N&(p.N-1) != 0 {
		return p, fmt.Errorf("bfv: implausible ring degree %d", p.N)
	}
	off := 20
	for pass := 0; pass < 2; pass++ {
		if off+2 > len(data) {
			return p, fmt.Errorf("bfv: truncated params blob")
		}
		n := int(binary.LittleEndian.Uint16(data[off:]))
		off += 2
		if n > 64 {
			return p, fmt.Errorf("bfv: implausible prime count %d", n)
		}
		if off+8*n > len(data) {
			return p, fmt.Errorf("bfv: truncated params blob")
		}
		qs := make([]uint64, n)
		for i := range qs {
			qs[i] = binary.LittleEndian.Uint64(data[off:])
			off += 8
		}
		if pass == 0 {
			p.Qs = qs
		} else {
			p.Ps = qs
		}
	}
	if off != len(data) {
		return p, fmt.Errorf("bfv: trailing bytes in params blob")
	}
	return p, nil
}

// CiphertextBytes returns the wire size of a degree-1 ciphertext under
// these parameters without materializing one.
func (c *Context) CiphertextBytes() int { return 12 + 2*c.polyBytes() }
