package bfv

import (
	"fmt"
	"math/big"
	"sync"

	"repro/internal/rlwe"
)

// autoTable is the precomputed action of one automorphism X → X^g on
// coefficient indices: source coefficient i lands at idx[i], negated when
// neg[i] (the negacyclic wrap past X^N). Like the ring's bit-reversal
// table, it is computed once and shared by every limb and every
// application instead of re-deriving i·g mod 2N per coefficient.
type autoTable struct {
	idx []int
	neg []bool
}

// autoCache memoizes autoTables per Galois element across all context
// views (concurrency-safe: servers rotate from many goroutines).
type autoCache struct {
	mu sync.RWMutex
	m  map[uint64]*autoTable
}

func newAutoCache() *autoCache { return &autoCache{m: map[uint64]*autoTable{}} }

func (c *Context) autoTableFor(galois uint64) *autoTable {
	c.auto.mu.RLock()
	tab := c.auto.m[galois]
	c.auto.mu.RUnlock()
	if tab != nil {
		return tab
	}
	n := c.Params.N
	m := uint64(2 * n)
	g := galois % m
	tab = &autoTable{idx: make([]int, n), neg: make([]bool, n)}
	e := uint64(0) // i·g mod 2N, maintained incrementally
	for i := 0; i < n; i++ {
		if e < uint64(n) {
			tab.idx[i] = int(e)
		} else {
			tab.idx[i] = int(e - uint64(n))
			tab.neg[i] = true
		}
		e += g
		if e >= m {
			e -= m
		}
	}
	c.auto.mu.Lock()
	c.auto.m[galois] = tab
	c.auto.mu.Unlock()
	return tab
}

// GaloisKeys hold key-switching material for a set of automorphisms
// X → X^g, enabling slot rotations on batched ciphertexts.
type GaloisKeys struct {
	keys map[uint64][][2]rlwe.RNSPoly // g → decomposition pairs (NTT domain)
	base uint
}

// columnGalois returns the g of a k-step column rotation (X → X^{5^k}).
func (c *Context) columnGalois(k int) uint64 {
	m := uint64(2 * c.Params.N)
	cols := c.Params.N / 2
	k = ((k % cols) + cols) % cols
	g := uint64(1)
	for i := 0; i < k; i++ {
		g = g * 5 % m
	}
	return g
}

// GenGaloisKeys generates keys for the given column-rotation steps, in
// the order given, so a seeded PRNG yields the same key set on every
// run. Steps that map to an already generated Galois element (k and
// k + N/2, say) get no second key.
func (c *Context) GenGaloisKeys(g *rlwe.PRNG, sk *SecretKey, steps []int) *GaloisKeys {
	gks := &GaloisKeys{keys: map[uint64][][2]rlwe.RNSPoly{}, base: c.Params.RelinBits}
	for _, k := range steps {
		galois := c.columnGalois(k)
		if _, ok := gks.keys[galois]; ok {
			continue
		}
		gks.keys[galois] = c.genSwitchKey(g, sk, c.applyAutomorphismPoly(sk.sCoeff, galois))
	}
	return gks
}

// genSwitchKey produces decomposition pairs encrypting B^k · target under
// sk — the shared machinery of relinearization (target = s²) and Galois
// keys (target = σ_g(s)). target is in coefficient domain.
func (c *Context) genSwitchKey(g *rlwe.PRNG, sk *SecretKey, target rlwe.RNSPoly) [][2]rlwe.RNSPoly {
	rq := c.RQ
	base := c.Params.RelinBits
	digits := (rq.Q.BitLen() + int(base) - 1) / int(base)

	tNTT := target.Clone()
	rq.NTT(tNTT)

	var pairs [][2]rlwe.RNSPoly
	bPow := big.NewInt(1)
	for k := 0; k < digits; k++ {
		a := rq.UniformPoly(g)
		e := rq.NoisePoly(g, c.Params.Eta)
		rq.NTT(e)
		k0 := rq.NewPoly()
		rq.MulCoeff(k0, a, sk.sNTT)
		rq.Add(k0, k0, e)
		rq.Neg(k0, k0)
		scaled := rq.NewPoly()
		rq.MulScalarBig(scaled, bPow, tNTT)
		rq.Add(k0, k0, scaled)
		pairs = append(pairs, [2]rlwe.RNSPoly{k0, a})
		bPow = new(big.Int).Lsh(bPow, base)
	}
	return pairs
}

// keySwitch decomposes d (coefficient domain) in base 2^base and folds it
// through the pairs, returning the two accumulator polynomials.
func (c *Context) keySwitch(d rlwe.RNSPoly, pairs [][2]rlwe.RNSPoly, base uint) (p0, p1 rlwe.RNSPoly) {
	rq := c.RQ
	digits := len(pairs)

	digitPolys := make([]rlwe.RNSPoly, digits)
	for k := range digitPolys {
		digitPolys[k] = rq.NewPoly()
	}
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), base), big.NewInt(1))
	tmp := new(big.Int)
	for i := 0; i < c.Params.N; i++ {
		v := rq.Reconstruct(d, i)
		for k := 0; k < digits; k++ {
			tmp.And(v, mask)
			rq.SetCoeffBig(digitPolys[k], i, tmp)
			v.Rsh(v, base)
		}
	}
	p0, p1 = rq.NewPoly(), rq.NewPoly()
	for k := 0; k < digits; k++ {
		dk := digitPolys[k]
		rq.NTT(dk)
		term := rq.NewPoly()
		rq.MulCoeff(term, dk, pairs[k][0])
		rq.INTT(term)
		rq.Add(p0, p0, term)
		rq.MulCoeff(term, dk, pairs[k][1])
		rq.INTT(term)
		rq.Add(p1, p1, term)
	}
	return p0, p1
}

// applyAutomorphismPoly computes σ_g(p): X^i ↦ X^{i·g mod 2N}, with the
// negacyclic sign flip when the exponent wraps past N, using the cached
// index table for g and fanning independent limbs over the worker pool.
func (c *Context) applyAutomorphismPoly(p rlwe.RNSPoly, galois uint64) rlwe.RNSPoly {
	tab := c.autoTableFor(galois)
	out := c.RQ.NewPoly()
	c.RQ.ForEachLimb(func(l int) {
		mod := c.RQ.Rings[l].Mod()
		src, dst := p[l], out[l]
		for i, v := range src {
			if v == 0 {
				continue
			}
			j := tab.idx[i]
			if tab.neg[i] {
				dst[j] = mod.Sub(dst[j], v)
			} else {
				dst[j] = mod.Add(dst[j], v)
			}
		}
	})
	return out
}

// Automorphism applies X → X^g to a ciphertext and key-switches it back
// under the original secret key.
func (c *Context) Automorphism(ct *Ciphertext, galois uint64, gks *GaloisKeys) (*Ciphertext, error) {
	if ct.Degree() != 1 {
		return nil, fmt.Errorf("bfv: automorphism requires a degree-1 ciphertext")
	}
	pairs, ok := gks.keys[galois]
	if !ok {
		return nil, fmt.Errorf("bfv: no Galois key for g=%d", galois)
	}
	c0 := c.applyAutomorphismPoly(ct.C[0], galois)
	c1 := c.applyAutomorphismPoly(ct.C[1], galois)
	p0, p1 := c.keySwitch(c1, pairs, gks.base)
	c.RQ.Add(p0, p0, c0)
	return &Ciphertext{C: []rlwe.RNSPoly{p0, p1}}, nil
}

// RotateColumns rotates the batched slots by k positions within each row
// (slot s takes the value previously in slot s+k, wrapping mod N/2).
func (c *Context) RotateColumns(ct *Ciphertext, k int, gks *GaloisKeys) (*Ciphertext, error) {
	if k == 0 {
		return ct.Clone(), nil
	}
	return c.Automorphism(ct, c.columnGalois(k), gks)
}

// MulPlain multiplies a ciphertext by an encoded plaintext polynomial
// (slot-wise product under batching). Noise grows by ≈log2(t·N).
func (c *Context) MulPlain(ct *Ciphertext, pt Plaintext) *Ciphertext {
	rq := c.RQ
	// Lift pt to an RNS polynomial (coefficients in [0, t) ⊂ every q_i).
	ptPoly := rq.NewPoly()
	for i, v := range pt {
		for l := range rq.Rings {
			ptPoly[l][i] = v
		}
	}
	rq.NTT(ptPoly)
	out := ct.Clone()
	for j := range out.C {
		rq.NTT(out.C[j])
		rq.MulCoeff(out.C[j], out.C[j], ptPoly)
		rq.INTT(out.C[j])
	}
	return out
}
