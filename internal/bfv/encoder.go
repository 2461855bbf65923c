package bfv

import (
	"fmt"

	"repro/internal/ff"
	"repro/internal/rlwe"
)

// Encoder maps vectors of N plaintext slots to polynomials of
// Z_t[X]/(X^N+1) via the CRT/NTT isomorphism (BFV batching). It requires
// the plaintext modulus to be a prime with t ≡ 1 (mod 2N) — satisfied by
// PASTA's p = 65537 for every ring size used here, which is exactly why
// HHE transciphering into batched BFV works so naturally.
//
// Slots are arranged in the standard 2 × N/2 hypercube: RotateColumns
// cyclically rotates within each row of N/2 slots (X → X^{5^k}); the
// encoder's slot order matches that automorphism.
type Encoder struct {
	ctx *Context
	pt  *rlwe.Ring // Z_t[X]/(X^N+1): reuses the NTT machinery

	// slotToNTT[s] is the NTT-output position holding slot s.
	slotToNTT []int
	nttToSlot []int
}

// NewEncoder builds the batching encoder for the context.
func NewEncoder(ctx *Context) (*Encoder, error) {
	n := ctx.Params.N
	t := ctx.Params.T
	if (t-1)%uint64(2*n) != 0 {
		return nil, fmt.Errorf("bfv: plaintext modulus %d does not support batching at N=%d (t ≢ 1 mod 2N)", t, n)
	}
	ring, err := rlwe.NewRing(n, t)
	if err != nil {
		return nil, err
	}
	e := &Encoder{ctx: ctx, pt: ring}
	if err := e.buildSlotPermutation(); err != nil {
		return nil, err
	}
	return e, nil
}

// buildSlotPermutation determines empirically which NTT output position
// evaluates the polynomial at ζ^(5^s) (row 0) and ζ^(-5^s) (row 1),
// avoiding any dependence on the NTT's internal ordering conventions:
// it transforms the monomial X and reads off each position's evaluation
// point, then takes a discrete log over the 2N roots.
func (e *Encoder) buildSlotPermutation() error {
	n := e.pt.N
	mod := e.pt.Mod()
	m := uint64(2 * n)

	// NTT(X): position i holds ζ^{e_i} where e_i is that position's
	// evaluation exponent.
	x := e.pt.NewPoly()
	x[1] = 1
	e.pt.NTT(x)

	// Discrete-log table over the cyclic group of 2N-th roots: recover ζ
	// itself first. ζ generates all primitive 2N-th roots; X's NTT values
	// are exactly those roots, so take any of them as the dlog base.
	base := x[0]
	logTable := make(map[uint64]uint64, m)
	acc := uint64(1)
	for j := uint64(0); j < m; j++ {
		logTable[acc] = j
		acc = mod.Mul(acc, base)
	}
	if acc != 1 {
		return fmt.Errorf("bfv: slot base has wrong order")
	}

	expAt := make([]uint64, n) // exponent of base at each NTT position
	posOf := make(map[uint64]int, n)
	for i := 0; i < n; i++ {
		lg, ok := logTable[x[i]]
		if !ok {
			return fmt.Errorf("bfv: NTT output %d is not a 2N-th root", i)
		}
		expAt[i] = lg
		posOf[lg] = i
	}
	_ = expAt

	// Slot s of row 0 lives at exponent 5^s (times the base ordering);
	// row 1 at -5^s. All arithmetic on exponents is mod 2N.
	e.slotToNTT = make([]int, n)
	e.nttToSlot = make([]int, n)
	g := uint64(1) // 5^s mod 2N, as power of the *base* exponent 1? base exponent is x[0]'s root.
	// The base above is ζ^{e_0}; exponents recorded are relative to it.
	// Absolute exponents: every evaluation point is an odd power of the
	// primitive 2N-th root ψ; relative logs differ by the unit e_0, so
	// the orbit structure under multiplication by 5 is preserved. Walk
	// the orbit of 5 directly on the relative exponents.
	for s := 0; s < n/2; s++ {
		p0, ok0 := posOf[g]
		p1, ok1 := posOf[(m-g)%m]
		if !ok0 || !ok1 {
			return fmt.Errorf("bfv: missing evaluation point for slot %d", s)
		}
		e.slotToNTT[s] = p0
		e.slotToNTT[s+n/2] = p1
		g = g * 5 % m
	}
	for s, p := range e.slotToNTT {
		e.nttToSlot[p] = s
	}
	return nil
}

// Encode maps up to N slot values (mod t) to a plaintext polynomial.
// Unfilled slots are zero.
func (e *Encoder) Encode(slots []uint64) (Plaintext, error) {
	n := e.pt.N
	if len(slots) > n {
		return nil, fmt.Errorf("bfv: %d slots exceed capacity %d", len(slots), n)
	}
	vals := e.pt.NewPoly()
	for s, v := range slots {
		vals[e.slotToNTT[s]] = v % e.ctx.Params.T
	}
	e.pt.INTT(vals)
	return Plaintext(vals), nil
}

// Decode recovers all N slot values from a plaintext polynomial.
func (e *Encoder) Decode(pt Plaintext) []uint64 {
	vals := rlwe.Poly(pt).Clone()
	e.pt.NTT(vals)
	out := make([]uint64, e.pt.N)
	for p, v := range vals {
		out[e.nttToSlot[p]] = v
	}
	return out
}

// Slots returns the column count N/2 (each of the two rows holds that
// many slots).
func (e *Encoder) Slots() int { return e.pt.N / 2 }

// EncodeReplicated fills row 0 (and row 1) with v repeated cyclically —
// the packing that makes slot rotations act as rotations modulo len(v)
// for the packed matrix–vector method. len(v) must divide N/2.
func (e *Encoder) EncodeReplicated(v []uint64) (Plaintext, error) {
	half := e.pt.N / 2
	if len(v) == 0 || half%len(v) != 0 {
		return nil, fmt.Errorf("bfv: replicated length %d must divide %d", len(v), half)
	}
	slots := make([]uint64, e.pt.N)
	for i := 0; i < half; i++ {
		slots[i] = v[i%len(v)]
		slots[half+i] = v[i%len(v)]
	}
	return e.Encode(slots)
}

// DecodeReplicated reads the first n slots of row 0.
func (e *Encoder) DecodeReplicated(pt Plaintext, n int) []uint64 {
	return e.Decode(pt)[:n]
}

// Mod returns the plaintext-side modulus wrapper.
func (e *Encoder) Mod() ff.Modulus { return e.pt.Mod() }
