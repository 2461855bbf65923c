package pasta

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/ff"
	"repro/internal/xof"
)

// This file is the allocation-free, parallel keystream engine. Two
// structural facts of the scheme drive it:
//
//   - Inside one permutation, every affine layer is a matrix–vector
//     product whose rows the hardware streams through a multiplier bank
//     and adder tree, reducing the wide sum once per row (Sec. III-C).
//     permuteInto runs each layer on the cipher's Kernel (kernel.go), the
//     same arithmetic the accelerator model's event engine runs, with
//     pooled scratch, so the steady-state permutation performs zero heap
//     allocations.
//
//   - Across blocks, the keystream is CTR-style: block b depends only on
//     (key, nonce, b). Blocks are embarrassingly parallel, so bulk
//     Encrypt/Decrypt fan blocks out over a worker pool, exactly the
//     parallelism a farm of accelerator instances would exploit.

// NextMatrixRowInto advances the sequential invertible-matrix recurrence
// of eq. (1) into next, which must not alias row:
//
//	next[0] = row[t-1]·seed[0]
//	next[j] = row[j-1] + row[t-1]·seed[j]   (j ≥ 1)
func NextMatrixRowInto(m ff.Modulus, seed, row, next ff.Vec) {
	t := len(row)
	last := row[t-1]
	next[0] = m.Mul(last, seed[0])
	for j := 1; j < t; j++ {
		next[j] = m.MulAdd(last, seed[j], row[j-1])
	}
}

// workspace bundles every buffer one keystream block needs — permutation
// state, the four affine-layer vectors (drawn in the hardware's XOF
// order), the two matrix products, the kernel's row buffers, and a
// reusable sampler — so the steady state touches the heap zero times per
// block.
type workspace struct {
	state      ff.Vec // 2t permutation state
	seedL      ff.Vec // V0: matrix seed for X_L
	seedR      ff.Vec // V1: matrix seed for X_R
	rcL        ff.Vec // V2: round constants for X_L
	rcR        ff.Vec // V3: round constants for X_R
	outL, outR ff.Vec // M_L·X_L and M_R·X_R
	rowA, rowB ff.Vec
	sampler    *xof.Sampler
}

func newWorkspace(par Params) *workspace {
	t := par.T
	return &workspace{
		state:   ff.NewVec(2 * t),
		seedL:   ff.NewVec(t),
		seedR:   ff.NewVec(t),
		rcL:     ff.NewVec(t),
		rcR:     ff.NewVec(t),
		outL:    ff.NewVec(t),
		outR:    ff.NewVec(t),
		rowA:    ff.NewVec(t),
		rowB:    ff.NewVec(t),
		sampler: xof.NewSampler(par.Mod, 0, 0),
	}
}

// getWorkspace fetches a pooled workspace (the pool's New field is left
// nil so derived ciphers from WithParallelism need no extra setup).
func (c *Cipher) getWorkspace() *workspace {
	ws, _ := c.pool.Get().(*workspace)
	if ws == nil {
		mPoolMisses.Inc()
		ws = newWorkspace(c.par)
	} else {
		mPoolHits.Inc()
	}
	return ws
}

func (c *Cipher) putWorkspace(ws *workspace) { c.pool.Put(ws) }

// permuteInto runs the full permutation π on ws.state, drawing public
// randomness from s, without allocating.
func (c *Cipher) permuteInto(s *xof.Sampler, ws *workspace) {
	copy(ws.state, c.key)
	t := c.par.T
	for layer := 0; layer < c.par.AffineLayers(); layer++ {
		s.VectorInto(ws.seedL, true)
		s.VectorInto(ws.seedR, true)
		s.VectorInto(ws.rcL, false)
		s.VectorInto(ws.rcR, false)
		c.kern.MatVecInto(ws.outL, ws.seedL, ws.state[:t], ws.rowA, ws.rowB)
		c.kern.MatVecInto(ws.outR, ws.seedR, ws.state[t:], ws.rowA, ws.rowB)
		c.kern.FinishLayer(ws.state, ws.outL, ws.outR, ws.rcL, ws.rcR, layer)
	}
}

// KeyStreamInto writes the keystream block KS(nonce, block) into dst,
// which must have exactly t elements; a length mismatch is reported as an
// error (regression: it used to panic, which crashed callers feeding
// user-sized buffers). The steady state allocates nothing: all scratch,
// including the SHAKE sampler, comes from the cipher's pool.
func (c *Cipher) KeyStreamInto(dst ff.Vec, nonce, block uint64) error {
	if len(dst) != c.par.T {
		return fmt.Errorf("pasta: KeyStreamInto dst has %d elements, want %d", len(dst), c.par.T)
	}
	c.keyStreamInto(dst, nonce, block)
	return nil
}

// keyStreamInto is KeyStreamInto without the length check, for internal
// callers that own a correctly sized buffer.
func (c *Cipher) keyStreamInto(dst ff.Vec, nonce, block uint64) {
	ws := c.getWorkspace()
	start := time.Now()
	ws.sampler.Reseed(nonce, block)
	c.permuteInto(ws.sampler, ws)
	observeBlock(start)
	copy(dst, ws.state[:c.par.T])
	c.putWorkspace(ws)
}

// WithParallelism returns a cipher sharing this cipher's key whose bulk
// Encrypt/Decrypt/KeyStreamBlocks fan keystream blocks out over n worker
// goroutines. n ≤ 0 selects runtime.GOMAXPROCS(0) (the default for
// ciphers from NewCipher); n = 1 forces the sequential path. The derived
// cipher is independently safe for concurrent use.
func (c *Cipher) WithParallelism(n int) *Cipher {
	return &Cipher{par: c.par, key: c.key, kern: c.kern, workers: n}
}

// Parallelism reports the configured worker count (0 = GOMAXPROCS).
func (c *Cipher) Parallelism() int { return c.workers }

func (c *Cipher) effectiveWorkers(blocks int) int {
	w := c.workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > blocks {
		w = blocks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// runBlocks processes blocks start, start+stride, … < blocks of in into
// out (adding the keystream when encrypt, subtracting otherwise) with one
// pooled workspace for the whole strided walk.
func (c *Cipher) runBlocks(nonce uint64, in, out ff.Vec, start, stride, blocks int, encrypt bool) error {
	ws := c.getWorkspace()
	defer c.putWorkspace(ws)
	t := c.par.T
	mod := c.par.Mod
	p := mod.P()
	for b := start; b < blocks; b += stride {
		lo, hi := b*t, (b+1)*t
		if hi > len(in) {
			hi = len(in)
		}
		blockStart := time.Now()
		ws.sampler.Reseed(nonce, uint64(b))
		c.permuteInto(ws.sampler, ws)
		observeBlock(blockStart)
		ks := ws.state[:t]
		src, dst := in[lo:hi], out[lo:hi]
		for i := range src {
			if src[i] >= p {
				return fmt.Errorf("pasta: block %d: element %d = %d out of range for %v", b, i, src[i], mod)
			}
			if encrypt {
				dst[i] = mod.Add(src[i], ks[i])
			} else {
				dst[i] = mod.Sub(src[i], ks[i])
			}
		}
	}
	return nil
}

// fanOut splits blocks across the worker pool with a strided assignment
// (worker w owns blocks w, w+workers, …), so outputs land in disjoint
// slices and no synchronization beyond the final join is needed.
func (c *Cipher) fanOut(nonce uint64, in, out ff.Vec, blocks int, encrypt bool) error {
	workers := c.effectiveWorkers(blocks)
	mWorkers.Set(int64(workers))
	if workers <= 1 {
		return c.runBlocks(nonce, in, out, 0, 1, blocks, encrypt)
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = c.runBlocks(nonce, in, out, w, workers, blocks, encrypt)
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// KeyStreamBlocks computes count consecutive keystream blocks
// [first, first+count) in parallel and returns them concatenated
// (block first+i at offset i·t). This is the precomputation primitive:
// CTR-style independence lets a client mask keystream latency by
// generating blocks before the data to encrypt exists.
//
// A non-positive count yields an empty vector (regression: a negative
// count used to reach ff.NewVec and panic with makeslice).
func (c *Cipher) KeyStreamBlocks(nonce, first uint64, count int) ff.Vec {
	if count <= 0 {
		return ff.NewVec(0)
	}
	t := c.par.T
	out := ff.NewVec(count * t)
	workers := c.effectiveWorkers(count)
	mWorkers.Set(int64(workers))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := c.getWorkspace()
			defer c.putWorkspace(ws)
			for b := w; b < count; b += workers {
				blockStart := time.Now()
				ws.sampler.Reseed(nonce, first+uint64(b))
				c.permuteInto(ws.sampler, ws)
				observeBlock(blockStart)
				copy(out[b*t:(b+1)*t], ws.state[:t])
			}
		}(w)
	}
	wg.Wait()
	return out
}

// Stream is an incremental encryptor/decryptor: successive Process calls
// consume the keystream contiguously, so a message processed in arbitrary
// chunk sizes yields exactly the bulk Encrypt/Decrypt output. A Stream is
// NOT safe for concurrent use; derive one per goroutine from the (safe)
// shared Cipher.
type Stream struct {
	c       *Cipher
	nonce   uint64
	block   uint64
	encrypt bool
	ks      ff.Vec // keystream of the current block
	used    int    // elements of ks already consumed
}

// EncryptStream returns a streaming encryptor for the nonce, starting at
// block 0.
func (c *Cipher) EncryptStream(nonce uint64) *Stream {
	return &Stream{c: c, nonce: nonce, encrypt: true, ks: ff.NewVec(c.par.T), used: c.par.T}
}

// DecryptStream returns a streaming decryptor for the nonce.
func (c *Cipher) DecryptStream(nonce uint64) *Stream {
	return &Stream{c: c, nonce: nonce, encrypt: false, ks: ff.NewVec(c.par.T), used: c.par.T}
}

// Process transforms src into dst (dst may alias src; len(dst) must be at
// least len(src)) and advances the stream position by len(src) elements.
func (s *Stream) Process(dst, src ff.Vec) error {
	if len(dst) < len(src) {
		return fmt.Errorf("pasta: stream dst has %d elements, src %d", len(dst), len(src))
	}
	mod := s.c.par.Mod
	p := mod.P()
	for i := range src {
		if s.used == len(s.ks) {
			s.c.keyStreamInto(s.ks, s.nonce, s.block)
			s.block++
			s.used = 0
		}
		if src[i] >= p {
			return fmt.Errorf("pasta: stream element %d = %d out of range for %v", i, src[i], mod)
		}
		k := s.ks[s.used]
		s.used++
		if s.encrypt {
			dst[i] = mod.Add(src[i], k)
		} else {
			dst[i] = mod.Sub(src[i], k)
		}
	}
	return nil
}

// Position returns the number of elements processed so far.
func (s *Stream) Position() uint64 {
	if s.used == len(s.ks) && s.block == 0 {
		return 0
	}
	return (s.block-1)*uint64(len(s.ks)) + uint64(s.used)
}
