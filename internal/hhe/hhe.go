// Package hhe implements the hybrid homomorphic encryption workflow of
// Fig. 1 of the paper:
//
//  1. The client homomorphically encrypts its PASTA key K under the FHE
//     scheme and ships it to the server once, together with the
//     relinearization and Galois keys (PackedEvalKeys, EvalKeysBlob).
//  2. The client symmetrically encrypts message blocks with PASTA (cheap,
//     no ciphertext expansion) and sends them.
//  3. The server evaluates the PASTA decryption circuit homomorphically
//     ("homomorphic HHE decryption", PackedServer), obtaining FHE
//     ciphertexts of the messages that it can then compute on.
//
// The homomorphic evaluator replays the exact public schedule of the
// cipher (matrices, round constants) on batched BFV ciphertexts: each
// t-element state half lives in the slots of one ciphertext, affine
// layers use the diagonal method over slot rotations, and the S-boxes
// use relinearized ciphertext multiplications (packed.go).
//
// Substitution note (DESIGN.md): the paper's server is out of scope of
// its hardware contribution; we demonstrate the protocol end to end on a
// reduced PASTA instance (ToyParams) because textbook BFV multiplication
// at full PASTA depth/width is computationally heavy in a pure-Go model.
// The circuit code is generic over pasta.Params.
package hhe

import (
	"fmt"

	"repro/internal/bfv"
	"repro/internal/ff"
	"repro/internal/pasta"
	"repro/internal/rlwe"
)

// Params couples a PASTA instance with a BFV instance. The BFV plaintext
// modulus must equal the PASTA field prime so ciphertexts trans-cipher
// exactly.
type Params struct {
	Pasta pasta.Params
	BFV   bfv.Params
}

// NewToyParams returns a reduced HHE parameter set suitable for
// end-to-end tests and examples: PASTA over p = 65537 with block size t
// and the given rounds, BFV with enough modulus for the circuit depth.
func NewToyParams(t, rounds int) (Params, error) {
	pp, err := pasta.ToyParams(t, rounds, ff.P17)
	if err != nil {
		return Params{}, err
	}
	// Depth budget: one plaintext-multiplication layer per affine and
	// one ct-ct multiplication per S-box level. Four 55-bit primes cover
	// toy instances up to rounds = 2 (about 40 bits of noise budget are
	// left after the t = 4, rounds = 2 circuit).
	bp, err := bfv.NewParams(1024, 55, 4, pp.Mod.P())
	if err != nil {
		return Params{}, err
	}
	return Params{Pasta: pp, BFV: bp}, nil
}

// Validate checks the cross-scheme constraint.
func (p Params) Validate() error {
	if err := p.Pasta.Validate(); err != nil {
		return err
	}
	if p.BFV.T != p.Pasta.Mod.P() {
		return fmt.Errorf("hhe: BFV plaintext modulus %d != PASTA prime %d", p.BFV.T, p.Pasta.Mod.P())
	}
	return nil
}

// Client owns both key materials: the PASTA key and the FHE key pair.
type Client struct {
	params Params
	sym    *pasta.Cipher
	ctx    *bfv.Context
	sk     *bfv.SecretKey
	pk     *bfv.PublicKey
	rlk    *bfv.RelinKey
	prng   *rlwe.PRNG
}

// NewClient creates a client with fresh FHE keys (deterministic from the
// seed, for reproducibility) and the given PASTA key.
func NewClient(p Params, key pasta.Key, seed []byte) (*Client, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	sym, err := pasta.NewCipher(p.Pasta, key)
	if err != nil {
		return nil, err
	}
	ctx, err := bfv.NewContext(p.BFV)
	if err != nil {
		return nil, err
	}
	g := rlwe.NewPRNG("hhe-client", seed)
	sk, pk, rlk := ctx.KeyGen(g)
	return &Client{
		params: p,
		sym:    sym,
		ctx:    ctx, sk: sk, pk: pk, rlk: rlk, prng: g,
	}, nil
}

// EncryptBlock symmetrically encrypts up to t field elements — the cheap
// client-side operation the paper's cryptoprocessor accelerates.
func (c *Client) EncryptBlock(nonce, block uint64, msg ff.Vec) (ff.Vec, error) {
	return c.sym.EncryptBlock(nonce, block, msg)
}

// Context exposes the BFV context (shared parameters are public).
func (c *Client) Context() *bfv.Context { return c.ctx }
