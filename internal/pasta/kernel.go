package pasta

import (
	"math"
	"math/bits"

	"repro/internal/ff"
)

// Kernel computes one affine layer and the round after it the way the
// datapath does (Sec. III-C): each matrix row comes out of the MAC
// recurrence of eq. (1), a bank of multipliers forms its products with
// the state half, an adder tree sums them unreduced, and the sum is
// reduced once per row. The software cipher and the accelerator model's
// event engine both run on it.
//
// NewKernel picks the arithmetic once, from the modulus. For a Fermat
// prime p = 2^a + 1 whose bounds allow it (the paper's ω = 17) every
// product folds with a-bit limbs, 2^a ≡ -1 and 2^2a ≡ 1 (mod p), using
// shifts and conditional subtractions only. Every other modulus keeps its
// rows lazily reduced in [0, 2p) with Shoup multiplication by the seed
// constants. Both are bit-identical to the oracles ExpandMatrix·x + rc,
// Mix, SboxFeistel and SboxCube.
//
// A Kernel is read-only after construction and safe for concurrent use;
// callers own the row buffers.
type Kernel struct {
	mod      ff.Modulus
	rounds   int
	smallDot bool // t products of a lazy row value (< 2p) and an element (< p) fit a uint64
	fold     bool // the Fermat limb fold's bounds hold for p = 2^a + 1
	a        uint
}

// NewKernel returns the kernel for par's block size, round count and
// modulus.
func NewKernel(par Params) Kernel {
	mod := par.Mod
	p := mod.P()
	t := uint64(par.T)
	k := Kernel{mod: mod, rounds: par.Rounds}
	hi, lo := bits.Mul64(2*p-1, p-1)
	k.smallDot = hi == 0 && lo <= math.MaxUint64/t
	// The fold needs MAC products (2p-1)(p-1) to fold below 2p with one
	// subtraction (overflow limb ≤ 2), and row sums t·(2p-1)(p-1) to fold
	// below 3p (overflow limb < p). Both hold for P17 at every t PASTA
	// uses; small toy Fermat primes with large t fail the second.
	if k.smallDot && mod.Kind() == ff.Fermat {
		a := mod.Bits() - 1
		if lo>>(2*a) <= 2 && lo*t>>(2*a) < p {
			k.fold, k.a = true, a
		}
	}
	return k
}

// MatVecInto computes out = M(seed)·x, where M is the invertible matrix
// eq. (1) expands from seed. rowA and rowB are t-element scratch: the
// fold path ping-pongs matrix rows between them, the Shoup path keeps the
// current row in rowA and the seed's Shoup constants in rowB. No two
// arguments may alias.
func (k *Kernel) MatVecInto(out, seed, x, rowA, rowB ff.Vec) {
	if k.fold {
		matVecFold(k.mod.P(), k.a, seed, x, out, rowA, rowB)
		return
	}
	matVecShoup(k.mod, seed, x, out, rowA, rowB, k.smallDot)
}

// FinishLayer completes affine layer `layer` from its two matrix
// products and runs the round after it: state ← (outL + rcL, outR + rcR),
// then Mix, then the Feistel S-box after layers 0 … R-2, the cube S-box
// after layer R-1, and nothing after the final layer R.
func (k *Kernel) FinishLayer(state, outL, outR, rcL, rcR ff.Vec, layer int) {
	t := len(outL)
	p := k.mod.P()
	l, r := state[:t], state[t:t+t]
	outR, rcL, rcR = outR[:t], rcL[:t], rcR[:t]
	// One pass for the round-constant add and Mix's three vector adds
	// (s = L + R, L' = L + s, R' = R + s). Operands are canonical and
	// p ≤ 2^60, so each sum needs one conditional subtraction.
	for i, v := range outL {
		lv := v + rcL[i]
		if lv >= p {
			lv -= p
		}
		rv := outR[i] + rcR[i]
		if rv >= p {
			rv -= p
		}
		s := lv + rv
		if s >= p {
			s -= p
		}
		if lv += s; lv >= p {
			lv -= p
		}
		if rv += s; rv >= p {
			rv -= p
		}
		l[i], r[i] = lv, rv
	}
	switch {
	case layer < k.rounds-1 && k.fold:
		sboxFeistelFold(p, k.a, state)
	case layer < k.rounds-1:
		SboxFeistel(k.mod, state)
	case layer == k.rounds-1 && k.fold:
		sboxCubeFold(p, k.a, state)
	case layer == k.rounds-1:
		SboxCube(k.mod, state)
	}
}

// matVecShoup keeps rows lazily reduced in [0, 2p) via Shoup
// multiplication by the per-matrix seed constants and fuses row
// generation with the dot product; outputs are fully reduced. When
// smallDot holds the dot accumulates in a plain uint64; otherwise the
// 192-bit lazy chain of ff.DotLazy carries the products exactly.
func matVecShoup(mod ff.Modulus, seed, x, out, row, shoup ff.Vec, smallDot bool) {
	t := len(seed)
	twoP := 2 * mod.P()
	for j := 0; j < t; j++ {
		shoup[j] = mod.ShoupPrecomp(seed[j])
		row[j] = seed[j]
	}
	if smallDot {
		var acc uint64
		for j := 0; j < t; j++ {
			acc += seed[j] * x[j]
		}
		out[0] = mod.Reduce(acc)
		for i := 1; i < t; i++ {
			last := row[t-1]
			acc = 0
			// Descending j so row[j-1] is still the previous row's value.
			for j := t - 1; j >= 1; j-- {
				v := mod.MulShoupLazy(last, seed[j], shoup[j]) + row[j-1]
				if v >= twoP {
					v -= twoP
				}
				row[j] = v
				acc += v * x[j]
			}
			v0 := mod.MulShoupLazy(last, seed[0], shoup[0])
			row[0] = v0
			acc += v0 * x[0]
			out[i] = mod.Reduce(acc)
		}
		return
	}
	out[0] = ff.DotLazy(mod, row, x)
	for i := 1; i < t; i++ {
		last := row[t-1]
		for j := t - 1; j >= 1; j-- {
			v := mod.MulShoupLazy(last, seed[j], shoup[j]) + row[j-1]
			if v >= twoP {
				v -= twoP
			}
			row[j] = v
		}
		row[0] = mod.MulShoupLazy(last, seed[0], shoup[0])
		out[i] = ff.DotLazy(mod, row, x)
	}
}

// foldConsts returns the limb shifts a and 2a and the limb mask 2^a - 1
// for p = 2^a + 1. Masking the shifts to [0, 64) (a no-op: a ≤ 16 for
// every Fermat prime) lets the compiler emit bare shift instructions;
// the fold functions call it locally rather than take the shifts as
// arguments, which keeps the hot loop out of guarded shifts and spills.
func foldConsts(a uint) (sh1, sh2 uint, maskA uint64) {
	sh1, sh2 = a&63, (2*a)&63
	return sh1, sh2, 1<<sh1 - 1
}

// fold returns a value ≡ x (mod p = 2^a + 1) from x's a-bit limbs,
// x = l0 + 2^a·l1 + 2^2a·l2: r = l0 + l2 + p - l1. The caller bounds l2
// and finishes with conditional subtractions.
func fold(x, p uint64, sh1, sh2 uint, maskA uint64) uint64 {
	return (x & maskA) + (x >> sh2) + p - (x >> sh1 & maskA)
}

// matVecFold is the fold path of MatVecInto: the same recurrence and
// product as matVecShoup, with no Shoup precomputation (a Div64 per seed
// element) and no generic reduction.
func matVecFold(p uint64, a uint, seed, x, out, rowA, rowB ff.Vec) {
	t := len(seed)
	twoP := 2 * p
	sh1, sh2, maskA := foldConsts(a)
	seed = seed[:t]
	x = x[:t]
	out = out[:t]
	// Rows ping-pong between two buffers so both loops run ascending with
	// provably in-bounds indices (src holds row i-1 while dst fills row i).
	src := rowA[:t]
	dst := rowB[:t]
	copy(src, seed)
	var acc uint64
	for j := 0; j < t; j++ {
		acc += seed[j] * x[j]
	}
	out[0] = foldReduce(acc, p, sh1, sh2, maskA)
	for i := 1; i < t; i++ {
		src = src[:t]
		dst = dst[:t]
		last := src[t-1]
		r := fold(last*seed[0], p, sh1, sh2, maskA)
		if r >= twoP {
			r -= twoP
		}
		dst[0] = r
		acc = r * x[0]
		for j := 1; j < t; j++ {
			// The folded product is ≤ 2p and the previous lazy row value
			// < 2p, so their sum folds back into [0, 2p) with a single
			// conditional subtraction of 2p.
			v := fold(last*seed[j], p, sh1, sh2, maskA) + src[j-1]
			if v >= twoP {
				v -= twoP
			}
			dst[j] = v
			acc += v * x[j]
		}
		out[i] = foldReduce(acc, p, sh1, sh2, maskA)
		src, dst = dst, src
	}
}

// foldReduce fully reduces a row sum. Requires acc>>(2a) < p, which
// bounds the folded value below 3p.
func foldReduce(acc, p uint64, sh1, sh2 uint, maskA uint64) uint64 {
	r := fold(acc, p, sh1, sh2, maskA)
	if r >= p {
		r -= p
	}
	if r >= p {
		r -= p
	}
	return r
}

// The S-boxes on the fold path: a product of canonical elements is below
// p² = 2^2a + 2^(a+1) + 1, so its overflow limb is ≤ 1 and one
// conditional subtraction canonicalises the fold.

func mulFold(x, y, p uint64, sh1, sh2 uint, maskA uint64) uint64 {
	r := fold(x*y, p, sh1, sh2, maskA)
	if r >= p {
		r -= p
	}
	return r
}

func sboxFeistelFold(p uint64, a uint, state ff.Vec) {
	sh1, sh2, maskA := foldConsts(a)
	for j := len(state) - 1; j >= 1; j-- {
		x := state[j-1]
		v := state[j] + mulFold(x, x, p, sh1, sh2, maskA)
		if v >= p {
			v -= p
		}
		state[j] = v
	}
}

func sboxCubeFold(p uint64, a uint, state ff.Vec) {
	sh1, sh2, maskA := foldConsts(a)
	for j, x := range state {
		state[j] = mulFold(mulFold(x, x, p, sh1, sh2, maskA), x, p, sh1, sh2, maskA)
	}
}
