// Package rlwe provides the ring-LWE substrate the paper's comparisons
// rest on: power-of-two negacyclic polynomial rings Z_q[x]/(x^N + 1) with
// number-theoretic transforms, RNS (residue number system) polynomial
// arithmetic, and the samplers used by BFV-style encryption.
//
// The prior FHE client-side accelerators the paper compares against
// ([18]–[22]) all accelerate exactly this workload: public-key RLWE
// encryption at N = 2^13 with three ≈30–60-bit moduli, three NTTs per
// modulus (Sec. I-A). Implementing the substrate lets the benchmark
// harness run the PKE baseline rather than assume it.
//
// Two transform implementations coexist, mirroring how internal/pasta
// keeps its sequential engine next to the parallel one: NTT/INTT are the
// straightforward division-based oracles, and NTTLazy/INTTLazy are the
// production path — Harvey-style butterflies over Shoup-precomputed
// twiddles that keep coefficients lazily in [0, 2q)–[0, 4q) through the
// whole transform and correct once at the end. One reduction per butterfly
// with no hardware division is exactly the single-reduction-per-stage
// datapath the prior NTT accelerators ([18]–[22], and Medha's microcoded
// butterflies) implement; the two paths are tested bit-identical.
package rlwe

import (
	"fmt"
	"math/bits"
	"sync"

	"repro/internal/ff"
)

// Ring is Z_q[x]/(x^N + 1) for an NTT-friendly prime q ≡ 1 (mod 2N).
type Ring struct {
	N   int
	Q   uint64
	mod ff.Modulus

	// Precomputed twiddle factors in bit-reversed order for the
	// negacyclic Cooley–Tukey / Gentleman–Sande butterflies, with their
	// Shoup representations (floor(w·2^64/q)) for the lazy fast path.
	psiPow      []uint64 // psi^bitrev(i)
	psiInvPow   []uint64
	psiShoup    []uint64
	psiInvShoup []uint64
	nInv        uint64 // N^{-1} mod q
	nInvShoup   uint64
	twoQ        uint64

	// brt[i] = bit-reversal of i over log2(N) bits, computed once at ring
	// construction and used by the twiddle layout.
	brt []int

	// pool recycles NTT-domain scratch polynomials for MulPolyInto so the
	// steady-state 3-NTT multiply allocates nothing.
	pool sync.Pool
}

// NewRing builds the ring, deriving a primitive 2N-th root of unity.
func NewRing(n int, q uint64) (*Ring, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("rlwe: N = %d must be a power of two ≥ 2", n)
	}
	if (q-1)%uint64(2*n) != 0 {
		return nil, fmt.Errorf("rlwe: q = %d is not ≡ 1 (mod 2N = %d)", q, 2*n)
	}
	mod, err := ff.NewModulus(q)
	if err != nil {
		return nil, fmt.Errorf("rlwe: %w", err)
	}
	psi, err := primitiveRoot2N(mod, n, maxRootCandidates)
	if err != nil {
		return nil, err
	}
	r := &Ring{N: n, Q: q, mod: mod, twoQ: 2 * q}
	logN := bits.Len(uint(n)) - 1
	r.brt = make([]int, n)
	for i := 1; i < n; i++ {
		r.brt[i] = r.brt[i>>1]>>1 | (i&1)<<(logN-1)
	}
	// Successive powers psi^j (N multiplies total, instead of N Exp calls
	// of ~log q multiplies each), scattered through the bit-reversal table.
	psiInv := mod.Inv(psi)
	pow, powInv := make([]uint64, n), make([]uint64, n)
	pow[0], powInv[0] = 1, 1
	for j := 1; j < n; j++ {
		pow[j] = mod.Mul(pow[j-1], psi)
		powInv[j] = mod.Mul(powInv[j-1], psiInv)
	}
	r.psiPow = make([]uint64, n)
	r.psiInvPow = make([]uint64, n)
	r.psiShoup = make([]uint64, n)
	r.psiInvShoup = make([]uint64, n)
	for i := 0; i < n; i++ {
		j := r.brt[i]
		r.psiPow[i] = pow[j]
		r.psiInvPow[i] = powInv[j]
		r.psiShoup[i] = mod.ShoupPrecomp(pow[j])
		r.psiInvShoup[i] = mod.ShoupPrecomp(powInv[j])
	}
	r.nInv = mod.Inv(uint64(n))
	r.nInvShoup = mod.ShoupPrecomp(r.nInv)
	return r, nil
}

// Mod returns the coefficient modulus wrapper.
func (r *Ring) Mod() ff.Modulus { return r.mod }

// maxRootCandidates bounds the generator scan of primitiveRoot2N. Half of
// all field elements are quadratic non-residues, so a valid candidate
// appears within the first few tries for every real prime; the bound only
// exists to turn a pathological (or buggy) modulus into a clear error
// instead of an O(q) spin.
const maxRootCandidates = 512

// primitiveRoot2N finds psi with psi^(2N) = 1 and psi^N = -1, trying at
// most maxCandidates generator candidates.
func primitiveRoot2N(mod ff.Modulus, n int, maxCandidates uint64) (uint64, error) {
	q := mod.P()
	order := uint64(2 * n)
	exp := (q - 1) / order
	for g := uint64(2); g < q && g < 2+maxCandidates; g++ {
		psi := mod.Exp(g, exp)
		if mod.Exp(psi, order/2) == q-1 { // psi^N = -1 ⇒ primitive 2N-th root
			return psi, nil
		}
	}
	return 0, fmt.Errorf("rlwe: no primitive 2N-th root of unity mod %d among the first %d generator candidates", q, maxCandidates)
}

// Poly is a polynomial with N coefficients in [0, q).
type Poly []uint64

// NewPoly returns the zero polynomial of the ring's dimension.
func (r *Ring) NewPoly() Poly { return make(Poly, r.N) }

// Clone copies p.
func (p Poly) Clone() Poly {
	q := make(Poly, len(p))
	copy(q, p)
	return q
}

// Equal reports coefficient-wise equality.
func (p Poly) Equal(q Poly) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// NTT transforms p in place to the negacyclic evaluation domain
// (Cooley–Tukey, decimation in time, with the psi twist merged into the
// twiddles). One call performs (N/2)·log2(N) butterflies — the
// multiplication-count basis of the paper's Sec. I-A analysis.
//
// This is the division-based reference path, retained as the bit-exact
// oracle for NTTLazy (every butterfly pays a full reduction via
// Modulus.Mul); hot paths should call NTTLazy instead.
func (r *Ring) NTT(p Poly) {
	n := r.N
	m := r.mod
	t := n
	for l, numPhi := 1, 1; l < n; l, numPhi = l<<1, numPhi<<1 {
		t >>= 1
		for i := 0; i < numPhi; i++ {
			phi := r.psiPow[numPhi+i]
			base := 2 * i * t
			for j := base; j < base+t; j++ {
				u := p[j]
				v := m.Mul(p[j+t], phi)
				p[j] = m.Add(u, v)
				p[j+t] = m.Sub(u, v)
			}
		}
	}
}

// INTT inverts NTT in place (Gentleman–Sande, decimation in frequency).
func (r *Ring) INTT(p Poly) {
	n := r.N
	m := r.mod
	t := 1
	for numPhi := n >> 1; numPhi >= 1; numPhi >>= 1 {
		for i := 0; i < numPhi; i++ {
			phi := r.psiInvPow[numPhi+i]
			base := 2 * i * t
			for j := base; j < base+t; j++ {
				u := p[j]
				v := p[j+t]
				p[j] = m.Add(u, v)
				p[j+t] = m.Mul(m.Sub(u, v), phi)
			}
		}
		t <<= 1
	}
	for i := range p {
		p[i] = m.Mul(p[i], r.nInv)
	}
}

// Add sets dst = a + b coefficient-wise. Aliasing is allowed.
func (r *Ring) Add(dst, a, b Poly) {
	ff.AddVec(r.mod, ff.Vec(dst), ff.Vec(a), ff.Vec(b))
}

// Sub sets dst = a - b coefficient-wise. Aliasing is allowed.
func (r *Ring) Sub(dst, a, b Poly) {
	ff.SubVec(r.mod, ff.Vec(dst), ff.Vec(a), ff.Vec(b))
}

// Neg sets dst = -a.
func (r *Ring) Neg(dst, a Poly) {
	for i := range a {
		dst[i] = r.mod.Neg(a[i])
	}
}

// MulCoeff sets dst = a ⊙ b (pointwise; operands must be in NTT domain).
func (r *Ring) MulCoeff(dst, a, b Poly) {
	for i := range a {
		dst[i] = r.mod.Mul(a[i], b[i])
	}
}

// MulScalar sets dst = c·a coefficient-wise.
func (r *Ring) MulScalar(dst Poly, c uint64, a Poly) {
	ff.ScaleVec(r.mod, ff.Vec(dst), c, ff.Vec(a))
}

// MulPoly returns a·b in the ring (inputs and output in coefficient
// domain): forward NTTs, pointwise multiply, inverse NTT — the 3-NTT
// pattern of the client encryption workload. The transforms run on the
// lazy fast path; use MulPolyInto to also avoid the output allocation.
func (r *Ring) MulPoly(a, b Poly) Poly {
	out := r.NewPoly()
	r.MulPolyInto(out, a, b)
	return out
}

// MulPolyNaive returns a·b by negacyclic schoolbook convolution; used to
// validate the NTT path in tests.
func (r *Ring) MulPolyNaive(a, b Poly) Poly {
	n := r.N
	m := r.mod
	out := r.NewPoly()
	for i := 0; i < n; i++ {
		if a[i] == 0 {
			continue
		}
		for j := 0; j < n; j++ {
			k := i + j
			prod := m.Mul(a[i], b[j])
			if k < n {
				out[k] = m.Add(out[k], prod)
			} else {
				out[k-n] = m.Sub(out[k-n], prod) // x^N = -1
			}
		}
	}
	return out
}

// FindNTTPrime returns the largest prime < 2^bitLen with q ≡ 1 (mod 2N).
func FindNTTPrime(bitLen uint, n int) (uint64, error) {
	if bitLen < 4 || bitLen > 61 {
		return 0, fmt.Errorf("rlwe: unsupported NTT prime size %d", bitLen)
	}
	step := uint64(2 * n)
	q := (uint64(1)<<bitLen - 1) / step * step // largest multiple of 2N below 2^bitLen
	for ; q > step; q -= step {
		if ff.IsPrime(q + 1) {
			return q + 1, nil
		}
	}
	return 0, fmt.Errorf("rlwe: no NTT prime of %d bits for N = %d", bitLen, n)
}

// FindNTTPrimes returns count distinct NTT primes just under 2^bitLen.
func FindNTTPrimes(bitLen uint, n, count int) ([]uint64, error) {
	out := make([]uint64, 0, count)
	step := uint64(2 * n)
	q := (uint64(1)<<bitLen - 1) / step * step
	for ; q > step && len(out) < count; q -= step {
		if ff.IsPrime(q + 1) {
			out = append(out, q+1)
		}
	}
	if len(out) < count {
		return nil, fmt.Errorf("rlwe: found only %d/%d NTT primes of %d bits", len(out), count, bitLen)
	}
	return out, nil
}
