package backend

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/ff"
	"repro/internal/obs"
)

// base carries the state and behaviour shared by all three adapters:
// identity, counters (mirrored into internal/obs), the closed flag, and
// the context-aware block fan-out. Each adapter supplies a single-block
// kernel; everything else — length checks, cancellation, range
// validation, additive encryption — lives here once.
type base struct {
	name    string
	scheme  string
	label   string
	t       int
	mod     ff.Modulus
	workers int

	// kernel computes one keystream block into dst (exactly t elements).
	// The software kernel is concurrency-safe; the hardware kernels
	// serialize internally, so base may always fan out.
	kernel func(dst ff.Vec, nonce, block uint64) error

	closed      atomic.Bool
	blocks      atomic.Int64
	elements    atomic.Int64
	accelCycles atomic.Int64
	coreCycles  atomic.Int64

	obsBlocks   *obs.Counter
	obsElements *obs.Counter

	// ksScratch recycles the per-worker t-element keystream scratch of
	// forEachBlock, and jobs its *blockJob, so steady-state
	// EncryptInto/KeyStreamBlocksInto calls allocate nothing on one
	// worker and only the extra workers' goroutine starts on several.
	ksScratch sync.Pool
	jobs      sync.Pool
}

// init wires the base in place (base embeds atomics, so it is never
// copied after this). The obs counters are registered on the default
// registry and shared by name across instances, giving process-wide
// cumulative metrics per backend.
func (b *base) init(name, scheme string, t int, mod ff.Modulus, workers int) {
	b.name = name
	b.scheme = scheme
	b.t = t
	b.mod = mod
	b.workers = workers
	b.obsBlocks = obs.Default().Counter("backend." + name + ".blocks")
	b.obsElements = obs.Default().Counter("backend." + name + ".elements")
	b.ksScratch.New = func() any {
		v := ff.NewVec(t)
		return &v
	}
}

func (b *base) Name() string        { return b.name }
func (b *base) Scheme() string      { return b.scheme }
func (b *base) BlockSize() int      { return b.t }
func (b *base) Modulus() ff.Modulus { return b.mod }

// InstanceLabel names the resolved cipher instance (cipher.Instance.
// Label, e.g. "PASTA-3(p=65537)"). Two instances with different
// keystream functions have different labels; the serving tier folds the
// label into its duplicate-nonce fingerprint so the same (key, nonce)
// under different ciphers is not mistaken for keystream reuse.
func (b *base) InstanceLabel() string { return b.label }

// Stats returns the instance's cumulative counters.
func (b *base) Stats() Stats {
	return Stats{
		Backend:     b.name,
		Scheme:      b.scheme,
		Blocks:      b.blocks.Load(),
		Elements:    b.elements.Load(),
		AccelCycles: b.accelCycles.Load(),
		CoreCycles:  b.coreCycles.Load(),
	}
}

// Close marks the backend closed; subsequent operations fail with
// ErrClosed. Idempotent.
func (b *base) Close() error {
	b.closed.Store(true)
	return nil
}

// pre runs the per-operation gate: closed check, then context check.
func (b *base) pre(ctx context.Context, op string) error {
	if b.closed.Load() {
		return &Error{Backend: b.name, Op: op, Err: ErrClosed}
	}
	if err := ctx.Err(); err != nil {
		return &Error{Backend: b.name, Op: op, Err: err}
	}
	return nil
}

// account records finished work on both the instance counters and the
// process-wide obs counters.
func (b *base) account(blocks, elems int) {
	b.blocks.Add(int64(blocks))
	b.elements.Add(int64(elems))
	b.obsBlocks.Add(int64(blocks))
	b.obsElements.Add(int64(elems))
}

// KeyStreamInto writes the keystream block KS(nonce, block) into dst.
// The software path performs no heap allocation here (asserted by the
// conformance suite): the error paths allocate, the hot path does not.
func (b *base) KeyStreamInto(ctx context.Context, dst ff.Vec, nonce, block uint64) error {
	const op = "keystream"
	if err := b.pre(ctx, op); err != nil {
		return err
	}
	if len(dst) != b.t {
		return &Error{Backend: b.name, Op: op,
			Err: fmt.Errorf("dst has %d elements, want %d", len(dst), b.t)}
	}
	if err := b.kernel(dst, nonce, block); err != nil {
		return &Error{Backend: b.name, Op: op, Err: err}
	}
	b.account(1, b.t)
	return nil
}

// KeyStreamBlocks returns count blocks of keystream, fanned out over the
// worker pool with per-block cancellation checks.
func (b *base) KeyStreamBlocks(ctx context.Context, nonce, first uint64, count int) (ff.Vec, error) {
	if count <= 0 {
		if err := b.pre(ctx, "keystream-blocks"); err != nil {
			return nil, err
		}
		return ff.NewVec(0), nil
	}
	out := ff.NewVec(count * b.t)
	if err := b.KeyStreamBlocksInto(ctx, out, nonce, first, count); err != nil {
		return nil, err
	}
	return out, nil
}

// KeyStreamBlocksInto is KeyStreamBlocks writing into dst (exactly
// count × BlockSize elements) — the serving-tier hot path; the software
// substrate allocates nothing here in steady state but the extra
// workers' goroutine starts.
func (b *base) KeyStreamBlocksInto(ctx context.Context, dst ff.Vec, nonce, first uint64, count int) error {
	const op = "keystream-blocks"
	if err := b.pre(ctx, op); err != nil {
		return err
	}
	if count <= 0 {
		return nil
	}
	if len(dst) != count*b.t {
		return &Error{Backend: b.name, Op: op,
			Err: fmt.Errorf("dst has %d elements, want %d", len(dst), count*b.t)}
	}
	if err := b.forEachBlock(ctx, op, count, blockReq{out: dst, nonce: nonce, first: first}); err != nil {
		return err
	}
	b.account(count, count*b.t)
	return nil
}

// Encrypt encrypts an arbitrary-length message: ct[i] = msg[i] + KS[i].
func (b *base) Encrypt(ctx context.Context, nonce uint64, msg ff.Vec) (ff.Vec, error) {
	out := ff.NewVec(len(msg))
	if err := b.processInto(ctx, "encrypt", out, nonce, msg, true); err != nil {
		return nil, err
	}
	return out, nil
}

// EncryptInto is Encrypt writing the ciphertext into dst (same length as
// msg) — the serving-tier hot path. dst must not alias msg unless they
// are the same slice.
func (b *base) EncryptInto(ctx context.Context, dst ff.Vec, nonce uint64, msg ff.Vec) error {
	return b.processInto(ctx, "encrypt", dst, nonce, msg, true)
}

// Decrypt inverts Encrypt.
func (b *base) Decrypt(ctx context.Context, nonce uint64, ct ff.Vec) (ff.Vec, error) {
	out := ff.NewVec(len(ct))
	if err := b.processInto(ctx, "decrypt", out, nonce, ct, false); err != nil {
		return nil, err
	}
	return out, nil
}

func (b *base) processInto(ctx context.Context, op string, out ff.Vec, nonce uint64, in ff.Vec, encrypt bool) error {
	if err := b.pre(ctx, op); err != nil {
		return err
	}
	if len(out) != len(in) {
		return &Error{Backend: b.name, Op: op,
			Err: fmt.Errorf("dst has %d elements, want %d", len(out), len(in))}
	}
	p := b.mod.P()
	for i, v := range in {
		if v >= p {
			return &Error{Backend: b.name, Op: op,
				Err: fmt.Errorf("element %d = %d out of range for %v", i, v, b.mod)}
		}
	}
	nBlocks := (len(in) + b.t - 1) / b.t
	if nBlocks == 0 {
		return nil
	}
	if err := b.forEachBlock(ctx, op, nBlocks, blockReq{in: in, out: out, nonce: nonce, encrypt: encrypt}); err != nil {
		return err
	}
	b.account(nBlocks, len(in))
	return nil
}

// blockReq is what a request asks of forEachBlock. in == nil asks for
// the keystream of blocks first, first+1, … straight into out; otherwise
// out = in ± the keystream of blocks 0, 1, … (encrypt selects +).
type blockReq struct {
	in, out ff.Vec
	nonce   uint64
	first   uint64
	encrypt bool
}

// blockJob carries one request through forEachBlock's workers. Its
// inputs are fields rather than a closure's captures, so the pooled job
// reaches the worker goroutines without a heap allocation.
type blockJob struct {
	blockReq
	b       *base
	ctx     context.Context
	op      string
	count   int
	workers int
	errs    []error
	wg      sync.WaitGroup
}

// block computes block i, using ks as keystream scratch when combining.
func (j *blockJob) block(i int, ks ff.Vec) error {
	b := j.b
	lo, hi := i*b.t, (i+1)*b.t
	if j.in == nil {
		return b.kernel(j.out[lo:hi], j.nonce, j.first+uint64(i))
	}
	if err := b.kernel(ks, j.nonce, uint64(i)); err != nil {
		return err
	}
	if hi > len(j.in) {
		hi = len(j.in) // last block may be short
	}
	src, dst := j.in[lo:hi], j.out[lo:hi]
	for k := range src {
		if j.encrypt {
			dst[k] = b.mod.Add(src[k], ks[k])
		} else {
			dst[k] = b.mod.Sub(src[k], ks[k])
		}
	}
	return nil
}

// run computes blocks start, start+workers, … < count, checking ctx
// before every block.
func (j *blockJob) run(start int) error {
	ksp := j.b.ksScratch.Get().(*ff.Vec)
	defer j.b.ksScratch.Put(ksp)
	for i := start; i < j.count; i += j.workers {
		if err := j.ctx.Err(); err != nil {
			return &Error{Backend: j.b.name, Op: j.op, Err: err}
		}
		if err := j.block(i, *ksp); err != nil {
			if _, ok := err.(*Error); ok {
				return err
			}
			return &Error{Backend: j.b.name, Op: j.op, Err: err}
		}
	}
	return nil
}

func (j *blockJob) runShare(w int) {
	defer j.wg.Done()
	j.errs[w] = j.run(w)
}

// forEachBlock computes every block index in [0, count) of req, strided
// over the worker pool; the calling goroutine runs the first share. Each
// worker owns a t-element keystream scratch and checks ctx before every
// block, so cancellation is honoured at block granularity and every
// worker has exited by the time forEachBlock returns — no goroutine
// outlives the call.
func (b *base) forEachBlock(ctx context.Context, op string, count int, req blockReq) error {
	j, _ := b.jobs.Get().(*blockJob)
	if j == nil {
		j = new(blockJob)
	}
	j.blockReq = req
	j.b, j.ctx, j.op, j.count = b, ctx, op, count
	j.workers = b.effectiveWorkers(count)
	if cap(j.errs) < j.workers {
		j.errs = make([]error, j.workers)
	}
	j.errs = j.errs[:j.workers]
	for w := 1; w < j.workers; w++ {
		j.wg.Add(1)
		go j.runShare(w)
	}
	j.errs[0] = j.run(0)
	j.wg.Wait()
	var err error
	for _, e := range j.errs {
		if e != nil {
			err = e
			break
		}
	}
	clear(j.errs)
	j.blockReq, j.b, j.ctx = blockReq{}, nil, nil // drop the request's buffers
	b.jobs.Put(j)
	return err
}

func (b *base) effectiveWorkers(count int) int {
	n := b.workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > count {
		n = count
	}
	if n < 1 {
		n = 1
	}
	return n
}
