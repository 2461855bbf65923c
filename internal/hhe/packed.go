package hhe

import (
	"fmt"

	"repro/internal/bfv"
	"repro/internal/ff"
	"repro/internal/pasta"
)

// Packed evaluation: instead of one BFV ciphertext per PASTA state
// element, each t-element state half lives in the slots of a single
// batched ciphertext, replicated with period t so slot rotations act
// modulo t. The affine layer becomes the classic
// diagonal method — t slot-wise plaintext products over t rotations — and
// the Feistel shift becomes one rotation plus masking. This is the
// evaluation style the PASTA designers use server-side, and it cuts the
// ciphertext count per block from 2t to 2.

// PackedEvalKeys bundles the server material for packed evaluation.
type PackedEvalKeys struct {
	PK   *bfv.PublicKey
	RLK  *bfv.RelinKey
	GKs  *bfv.GaloisKeys
	KeyL *bfv.Ciphertext // replicated packing of K[0:t]
	KeyR *bfv.Ciphertext // replicated packing of K[t:2t]
}

// PackedEvalKeys produces the packed server material: Galois keys for
// all t-1 rotation steps and the two replicated key ciphertexts.
func (c *Client) PackedEvalKeys() (PackedEvalKeys, error) {
	enc, err := bfv.NewEncoder(c.ctx)
	if err != nil {
		return PackedEvalKeys{}, err
	}
	t := c.params.Pasta.T
	if enc.Slots()%t != 0 {
		return PackedEvalKeys{}, fmt.Errorf("hhe: block size %d does not divide slot count %d", t, enc.Slots())
	}
	steps := make([]int, 0, t-1)
	for k := 1; k < t; k++ {
		steps = append(steps, k)
	}
	gks := c.ctx.GenGaloisKeys(c.prng, c.sk, steps)

	key := c.sym.Key()
	encryptHalf := func(half ff.Vec) (*bfv.Ciphertext, error) {
		pt, err := enc.EncodeReplicated(half)
		if err != nil {
			return nil, err
		}
		return c.ctx.EncryptSymmetric(c.sk, pt, c.prng), nil
	}
	kl, err := encryptHalf(ff.Vec(key[:t]))
	if err != nil {
		return PackedEvalKeys{}, err
	}
	kr, err := encryptHalf(ff.Vec(key[t:]))
	if err != nil {
		return PackedEvalKeys{}, err
	}
	return PackedEvalKeys{PK: c.pk, RLK: c.rlk, GKs: gks, KeyL: kl, KeyR: kr}, nil
}

// DecryptPacked decrypts a packed ciphertext and returns its first n
// logical elements.
func (c *Client) DecryptPacked(ct *bfv.Ciphertext, n int) (ff.Vec, error) {
	enc, err := bfv.NewEncoder(c.ctx)
	if err != nil {
		return nil, err
	}
	return ff.Vec(enc.DecodeReplicated(c.ctx.Decrypt(ct, c.sk), n)), nil
}

// PackedServer evaluates the PASTA decryption circuit on batched
// ciphertexts.
type PackedServer struct {
	params Params
	ctx    *bfv.Context
	enc    *bfv.Encoder
	keys   PackedEvalKeys

	maskNot0  bfv.Plaintext // replicated [0,1,1,…,1]
	maskOnly0 bfv.Plaintext // replicated [1,0,0,…,0]
}

// NewPackedServer builds the server from public parameters and keys.
func NewPackedServer(p Params, ctx *bfv.Context, keys PackedEvalKeys) (*PackedServer, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	enc, err := bfv.NewEncoder(ctx)
	if err != nil {
		return nil, err
	}
	t := p.Pasta.T
	not0 := make([]uint64, t)
	only0 := make([]uint64, t)
	only0[0] = 1
	for i := 1; i < t; i++ {
		not0[i] = 1
	}
	mN, err := enc.EncodeReplicated(not0)
	if err != nil {
		return nil, err
	}
	m0, err := enc.EncodeReplicated(only0)
	if err != nil {
		return nil, err
	}
	return &PackedServer{params: p, ctx: ctx, enc: enc, keys: keys, maskNot0: mN, maskOnly0: m0}, nil
}

// EvalKeystream homomorphically computes the packed Enc(KS(nonce, block)).
func (s *PackedServer) EvalKeystream(nonce, block uint64) (*bfv.Ciphertext, error) {
	pp := s.params.Pasta
	mod := pp.Mod

	l := s.keys.KeyL.Clone()
	r := s.keys.KeyR.Clone()

	schedule := pasta.DeriveSchedule(pp, nonce, block)
	for layerIdx, layer := range schedule {
		var err error
		l, err = s.affine(l, pasta.ExpandMatrix(mod, layer.MatSeedL), layer.RCL)
		if err != nil {
			return nil, err
		}
		r, err = s.affine(r, pasta.ExpandMatrix(mod, layer.MatSeedR), layer.RCR)
		if err != nil {
			return nil, err
		}
		l, r = s.mix(l, r)
		switch {
		case layerIdx < pp.Rounds-1:
			l, r, err = s.feistel(l, r)
		case layerIdx == pp.Rounds-1:
			l, err = s.cube(l)
			if err != nil {
				return nil, err
			}
			r, err = s.cube(r)
		}
		if err != nil {
			return nil, err
		}
	}
	return l, nil // truncation: the keystream is the left half
}

// Transcipher converts a symmetric ciphertext block into one packed FHE
// ciphertext of the message.
func (s *PackedServer) Transcipher(nonce, block uint64, symCt ff.Vec) (*bfv.Ciphertext, error) {
	t := s.params.Pasta.T
	if len(symCt) > t {
		return nil, fmt.Errorf("hhe: block has %d elements, max %d", len(symCt), t)
	}
	ks, err := s.EvalKeystream(nonce, block)
	if err != nil {
		return nil, err
	}
	padded := make([]uint64, t)
	copy(padded, symCt)
	pt, err := s.enc.EncodeReplicated(padded)
	if err != nil {
		return nil, err
	}
	return s.ctx.SubPlainFrom(pt, ks), nil
}

// TranscipherWith is the payload-dependent tail of Transcipher for a
// precomputed Enc(KS): keystream evaluation is independent of the
// symmetric ciphertext, so a cached ks reduces a repeat block to one
// plaintext encode and one SubPlainFrom (the serving tier's Enc(KS)
// block cache relies on this).
func (s *PackedServer) TranscipherWith(ks *bfv.Ciphertext, symCt ff.Vec) (*bfv.Ciphertext, error) {
	t := s.params.Pasta.T
	if len(symCt) > t {
		return nil, fmt.Errorf("hhe: block has %d elements, max %d", len(symCt), t)
	}
	padded := make([]uint64, t)
	copy(padded, symCt)
	pt, err := s.enc.EncodeReplicated(padded)
	if err != nil {
		return nil, err
	}
	return s.ctx.SubPlainFrom(pt, ks), nil
}

// Params returns the parameter set the server evaluates under.
func (s *PackedServer) Params() Params { return s.params }

// Context returns the server's BFV context (for serializing results).
func (s *PackedServer) Context() *bfv.Context { return s.ctx }

// PackedNoiseBudget measures the remaining noise budget (bits) of a
// packed ciphertext against the expected message — the client-side
// health check after a transcipher round trip.
func (c *Client) PackedNoiseBudget(ct *bfv.Ciphertext, msg ff.Vec) (int, error) {
	enc, err := bfv.NewEncoder(c.ctx)
	if err != nil {
		return 0, err
	}
	t := c.params.Pasta.T
	padded := make([]uint64, t)
	copy(padded, msg)
	pt, err := enc.EncodeReplicated(padded)
	if err != nil {
		return 0, err
	}
	return c.ctx.NoiseBudget(ct, c.sk, pt), nil
}

// affine computes M·x + rc by the diagonal method:
// Σ_d rot(x, d) ⊙ diag_d(M), with diag_d(M)[i] = M[i][(i+d) mod t].
func (s *PackedServer) affine(x *bfv.Ciphertext, m *ff.Matrix, rc ff.Vec) (*bfv.Ciphertext, error) {
	t := s.params.Pasta.T
	var acc *bfv.Ciphertext
	for d := 0; d < t; d++ {
		diag := make([]uint64, t)
		for i := 0; i < t; i++ {
			diag[i] = m.At(i, (i+d)%t)
		}
		pt, err := s.enc.EncodeReplicated(diag)
		if err != nil {
			return nil, err
		}
		rot, err := s.ctx.RotateColumns(x, d, s.keys.GKs)
		if err != nil {
			return nil, err
		}
		term := s.ctx.MulPlain(rot, pt)
		if acc == nil {
			acc = term
		} else {
			acc = s.ctx.Add(acc, term)
		}
	}
	rcPt, err := s.enc.EncodeReplicated(rc)
	if err != nil {
		return nil, err
	}
	return s.ctx.AddPlain(acc, rcPt), nil
}

// mix computes (2L+R, L+2R) with three ciphertext additions.
func (s *PackedServer) mix(l, r *bfv.Ciphertext) (*bfv.Ciphertext, *bfv.Ciphertext) {
	sum := s.ctx.Add(l, r)
	return s.ctx.Add(l, sum), s.ctx.Add(r, sum)
}

// feistel applies x[j] += x[j-1]² over the concatenated 2t-element state
// held as two packed halves: one rotation by t-1 realizes the index
// shift, masks keep slot 0 of the left half fixed and carry sq_L[t-1]
// across the half boundary into slot 0 of the right half.
func (s *PackedServer) feistel(l, r *bfv.Ciphertext) (*bfv.Ciphertext, *bfv.Ciphertext, error) {
	t := s.params.Pasta.T
	sqL, err := s.ctx.Mul(l, l, s.keys.RLK)
	if err != nil {
		return nil, nil, err
	}
	sqR, err := s.ctx.Mul(r, r, s.keys.RLK)
	if err != nil {
		return nil, nil, err
	}
	rotL, err := s.ctx.RotateColumns(sqL, t-1, s.keys.GKs)
	if err != nil {
		return nil, nil, err
	}
	rotR, err := s.ctx.RotateColumns(sqR, t-1, s.keys.GKs)
	if err != nil {
		return nil, nil, err
	}
	newL := s.ctx.Add(l, s.ctx.MulPlain(rotL, s.maskNot0))
	newR := s.ctx.Add(r, s.ctx.Add(
		s.ctx.MulPlain(rotR, s.maskNot0),
		s.ctx.MulPlain(rotL, s.maskOnly0),
	))
	return newL, newR, nil
}

// cube computes x³ slot-wise.
func (s *PackedServer) cube(x *bfv.Ciphertext) (*bfv.Ciphertext, error) {
	sq, err := s.ctx.Mul(x, x, s.keys.RLK)
	if err != nil {
		return nil, err
	}
	return s.ctx.Mul(sq, x, s.keys.RLK)
}
