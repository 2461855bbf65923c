package pasta

import (
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/ff"
	"repro/internal/xof"
)

// Key is the PASTA secret key: 2t uniformly random field elements that
// initialize the permutation state.
type Key ff.Vec

// NewRandomKey samples a fresh key for params from crypto/rand.
func NewRandomKey(p Params) (Key, error) {
	k := make(Key, p.StateSize())
	var buf [8]byte
	for i := range k {
		for {
			if _, err := rand.Read(buf[:]); err != nil {
				return nil, fmt.Errorf("pasta: sampling key: %w", err)
			}
			v := binary.LittleEndian.Uint64(buf[:]) & p.Mod.Mask()
			if v < p.Mod.P() {
				k[i] = v
				break
			}
		}
	}
	return k, nil
}

// KeyFromSeed derives a deterministic key from a seed string via
// SHAKE128; intended for tests and reproducible examples, not production.
func KeyFromSeed(p Params, seed string) Key {
	s := xof.NewSamplerBytes(p.Mod, []byte("pasta-key:"+seed))
	return Key(s.Vector(p.StateSize(), false))
}

// Validate checks the key length and element ranges against params.
func (k Key) Validate(p Params) error {
	if len(k) != p.StateSize() {
		return fmt.Errorf("pasta: key has %d elements, want %d", len(k), p.StateSize())
	}
	for i, v := range k {
		if v >= p.Mod.P() {
			return fmt.Errorf("pasta: key element %d = %d out of range for %v", i, v, p.Mod)
		}
	}
	return nil
}

// Cipher is a PASTA instance bound to a key. It is safe for concurrent
// use: params and key are read-only after construction and all scratch
// lives in a sync.Pool, so any number of goroutines may call KeyStream,
// Encrypt, Decrypt, … on one shared *Cipher (proven by the -race tests).
// Stream values obtained from EncryptStream/DecryptStream are the one
// exception: each Stream is single-goroutine.
//
// Bulk Encrypt/Decrypt exploit the CTR-style independence of keystream
// blocks by fanning them out over worker goroutines; see WithParallelism
// for the knob (default: runtime.GOMAXPROCS).
type Cipher struct {
	par     Params
	key     Key
	kern    Kernel
	workers int       // bulk-path worker count; ≤ 0 means GOMAXPROCS
	pool    sync.Pool // *workspace; New left nil, see getWorkspace
}

// NewCipher builds a cipher after validating params and key.
func NewCipher(par Params, key Key) (*Cipher, error) {
	if err := par.Validate(); err != nil {
		return nil, err
	}
	if err := key.Validate(par); err != nil {
		return nil, err
	}
	return &Cipher{par: par, key: Key(ff.Vec(key).Clone()), kern: NewKernel(par)}, nil
}

// Params returns the cipher's parameters.
func (c *Cipher) Params() Params { return c.par }

// Key returns a copy of the secret key (needed by the HHE client to
// transport it homomorphically).
func (c *Cipher) Key() Key { return Key(ff.Vec(c.key).Clone()) }

// KeyStream computes the keystream block KS = Trunc(π(K, nonce, block)):
// t field elements. Allocation-sensitive callers should prefer
// KeyStreamInto, which writes into a caller-provided buffer.
func (c *Cipher) KeyStream(nonce, block uint64) ff.Vec {
	ks := ff.NewVec(c.par.T)
	c.keyStreamInto(ks, nonce, block)
	return ks
}

// EncryptBlock encrypts up to t field elements with the keystream of the
// given block index: ct[i] = msg[i] + KS[i] (mod p).
func (c *Cipher) EncryptBlock(nonce, block uint64, msg ff.Vec) (ff.Vec, error) {
	if len(msg) > c.par.T {
		return nil, fmt.Errorf("pasta: block has %d elements, max %d", len(msg), c.par.T)
	}
	ks := c.KeyStream(nonce, block)
	ct := ff.NewVec(len(msg))
	for i := range msg {
		if msg[i] >= c.par.Mod.P() {
			return nil, fmt.Errorf("pasta: message element %d = %d out of range", i, msg[i])
		}
		ct[i] = c.par.Mod.Add(msg[i], ks[i])
	}
	return ct, nil
}

// DecryptBlock inverts EncryptBlock.
func (c *Cipher) DecryptBlock(nonce, block uint64, ct ff.Vec) (ff.Vec, error) {
	if len(ct) > c.par.T {
		return nil, fmt.Errorf("pasta: block has %d elements, max %d", len(ct), c.par.T)
	}
	ks := c.KeyStream(nonce, block)
	msg := ff.NewVec(len(ct))
	for i := range ct {
		if ct[i] >= c.par.Mod.P() {
			return nil, fmt.Errorf("pasta: ciphertext element %d = %d out of range", i, ct[i])
		}
		msg[i] = c.par.Mod.Sub(ct[i], ks[i])
	}
	return msg, nil
}

// Encrypt encrypts an arbitrary-length message, consuming one keystream
// block of t elements per chunk, with block counters 0, 1, 2, … Blocks
// are computed in parallel (see WithParallelism); the output is
// bit-identical to EncryptSequential.
func (c *Cipher) Encrypt(nonce uint64, msg ff.Vec) (ff.Vec, error) {
	return c.stream(nonce, msg, true)
}

// Decrypt inverts Encrypt.
func (c *Cipher) Decrypt(nonce uint64, ct ff.Vec) (ff.Vec, error) {
	return c.stream(nonce, ct, false)
}

// EncryptSequential is the single-threaded reference oracle: one block at
// a time, counters ascending. The parallel Encrypt is property-tested to
// be bit-identical to it.
func (c *Cipher) EncryptSequential(nonce uint64, msg ff.Vec) (ff.Vec, error) {
	return c.streamSequential(nonce, msg, true)
}

// DecryptSequential is the single-threaded reference oracle for Decrypt.
func (c *Cipher) DecryptSequential(nonce uint64, ct ff.Vec) (ff.Vec, error) {
	return c.streamSequential(nonce, ct, false)
}

func (c *Cipher) stream(nonce uint64, in ff.Vec, encrypt bool) (ff.Vec, error) {
	out := ff.NewVec(len(in))
	if err := c.fanOut(nonce, in, out, c.NumBlocks(len(in)), encrypt); err != nil {
		return nil, err
	}
	return out, nil
}

func (c *Cipher) streamSequential(nonce uint64, in ff.Vec, encrypt bool) (ff.Vec, error) {
	out := ff.NewVec(len(in))
	if err := c.runBlocks(nonce, in, out, 0, 1, c.NumBlocks(len(in)), encrypt); err != nil {
		return nil, err
	}
	return out, nil
}

// NumBlocks returns the number of keystream blocks needed for n elements.
func (c *Cipher) NumBlocks(n int) int { return (n + c.par.T - 1) / c.par.T }

// AffineLayer holds the four public pseudo-random vectors of one affine
// layer, in the exact XOF consumption order of the hardware schedule
// (Fig. 3): matrix seed for X_L, matrix seed for X_R, round constant for
// X_L, round constant for X_R.
type AffineLayer struct {
	MatSeedL ff.Vec // V0: first row of M_L (leading element nonzero)
	MatSeedR ff.Vec // V1: first row of M_R (leading element nonzero)
	RCL      ff.Vec // V2: round constants added to X_L
	RCR      ff.Vec // V3: round constants added to X_R
}

// DeriveAffineLayer draws the four vectors of the next affine layer from
// the sampler.
func DeriveAffineLayer(p Params, s *xof.Sampler) AffineLayer {
	return AffineLayer{
		MatSeedL: s.Vector(p.T, true),
		MatSeedR: s.Vector(p.T, true),
		RCL:      s.Vector(p.T, false),
		RCR:      s.Vector(p.T, false),
	}
}

// DeriveSchedule materializes all affine layers of one block's
// permutation — the full public data for (nonce, block).
func DeriveSchedule(p Params, nonce, block uint64) []AffineLayer {
	s := xof.NewSampler(p.Mod, nonce, block)
	layers := make([]AffineLayer, p.AffineLayers())
	for i := range layers {
		layers[i] = DeriveAffineLayer(p, s)
	}
	return layers
}

// NextMatrixRow advances the sequential invertible-matrix recurrence of
// eq. (1): given the seed row α and the current row r, the next row is
//
//	next[0] = r[t-1]·α[0]
//	next[j] = r[j-1] + r[t-1]·α[j]   (j ≥ 1)
//
// i.e. one multiply-accumulate per output element — the operation of the
// hardware MatGen MAC unit. Allocating wrapper around NextMatrixRowInto.
func NextMatrixRow(m ff.Modulus, seed, row ff.Vec) ff.Vec {
	next := ff.NewVec(len(row))
	NextMatrixRowInto(m, seed, row, next)
	return next
}

// ExpandMatrix materializes the full t×t invertible matrix from a seed
// row. Used by the homomorphic evaluator and invertibility property
// checks, and as the oracle the streaming Kernel is tested against.
func ExpandMatrix(m ff.Modulus, seed ff.Vec) *ff.Matrix {
	t := len(seed)
	mat := ff.NewMatrix(t)
	copy(mat.Row(0), seed)
	for i := 1; i < t; i++ {
		copy(mat.Row(i), NextMatrixRow(m, seed, mat.Row(i-1)))
	}
	return mat
}

// Mix replaces the state halves (L, R) by (2L + R, L + 2R) in place —
// computed, as in the hardware, with three vector additions:
// s = L + R, L' = L + s, R' = R + s.
func Mix(m ff.Modulus, state ff.Vec) {
	t := len(state) / 2
	l, r := state[:t], state[t:]
	for i := 0; i < t; i++ {
		s := m.Add(l[i], r[i])
		l[i] = m.Add(l[i], s)
		r[i] = m.Add(r[i], s)
	}
}

// SboxFeistel applies the Feistel S-box S′ to the full 2t state in place:
// x[j] ← x[j] + x[j-1]² for j ≥ 1 (x[0] unchanged), processed from the
// top index downward so each square uses the pre-update neighbour.
func SboxFeistel(m ff.Modulus, state ff.Vec) {
	for j := len(state) - 1; j >= 1; j-- {
		state[j] = m.Add(state[j], m.Sqr(state[j-1]))
	}
}

// SboxCube applies the cube S-box x ← x³ elementwise in place.
func SboxCube(m ff.Modulus, state ff.Vec) {
	for j := range state {
		state[j] = m.Cube(state[j])
	}
}
