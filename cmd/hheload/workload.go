package main

import (
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"repro/internal/ff"
	"repro/internal/hhe"
	"repro/internal/pasta"
	"repro/internal/wire"
)

// workload is one traffic mix against one hheserver configuration. Keyed
// sessions are PASTA-4 (t = 32, ω = 17); keyless transcipher sessions run
// the toy PASTA instance hhe.NewToyParams(tcT, 2).
type workload struct {
	name      string
	backend   string // hheserver -backend
	tcWorkers int    // hheserver -transcipher-workers; 0 keeps the server default
	conns     int    // TCP connections; sessions are spread over them round-robin

	// Keyed sessions send EncryptChunk of 1..chunkMax elements in an open
	// loop, or Encrypt of encryptElems elements in a closed loop.
	keyed int     // keyed sessions
	rate  float64 // open loop: Poisson arrivals per second over all sessions; 0 = closed loop

	tc       int     // keyless transcipher sessions, closed loop, one block per request
	tcT      int     // toy PASTA block size of the transcipher sessions
	tcRepeat float64 // share of requests that repeat one of the session's last recentBlocks fresh blocks

	setups int // set-ups per run; setup_s is their median

	warmup time.Duration
}

// workloads are the benchmark's traffic mixes; BENCHMARK.json and
// README.md give the reason for each. A keyed set-up takes 3–5 ms and
// one with eval-key uploads about 0.2 s, hence the set-up counts.
var workloads = []workload{
	{name: "stream-accel", backend: "accel", conns: 2, keyed: 32, rate: 8000, warmup: 2 * time.Second, setups: 25},
	{name: "bulk-software", backend: "software", conns: 2, keyed: 2, warmup: 2 * time.Second, setups: 25},
	{name: "transcipher-cold", backend: "software", tcWorkers: 2, conns: 1, tc: 2, tcT: 16, warmup: 1500 * time.Millisecond, setups: 9},
	{name: "mixed", backend: "accel", conns: 2, keyed: 32, rate: 4000, tc: 1, tcT: 16, tcRepeat: 0.5, warmup: 2 * time.Second, setups: 9},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// serverArgs are the hheserver flags that select the workload's server
// configuration.
func (w workload) serverArgs() []string {
	args := []string{"-backend", w.backend}
	if w.tcWorkers > 0 {
		args = append(args, "-transcipher-workers", strconv.Itoa(w.tcWorkers))
	}
	return args
}

// primary names the operation whose latency the end-to-end metrics
// report: the keyed traffic when there is any, else transcipher.
func (w workload) primary() opKind {
	switch {
	case w.keyed > 0 && w.rate > 0:
		return opStream
	case w.keyed > 0:
		return opEncrypt
	}
	return opTranscipher
}

const (
	pastaT       = 32 // PASTA-4 block size
	pastaKeyLen  = 2 * pastaT
	chunkMax     = pastaT  // EncryptChunk sends 1..chunkMax elements: sub-block chunks
	encryptElems = 4096    // Encrypt sends 128 blocks
	poolElems    = 1 << 16 // seeded payload elements requests slice from
	sampleEvery  = 16      // keyed replies kept for verification: 1 in sampleEvery
	recentBlocks = 16      // repeats draw from this many most recent fresh blocks
	openWorkers  = 1024    // bound on in-flight open-loop requests
)

type opKind uint8

const (
	opStream      opKind = iota + 1 // Session.EncryptChunk
	opEncrypt                       // Session.Encrypt
	opTranscipher                   // Session.Transcipher of one block
)

func (k opKind) String() string {
	return [...]string{"", "encrypt_chunk", "encrypt", "transcipher"}[k]
}

// op is one request. It holds no pointers, so a schedule of a few
// hundred thousand requests costs the garbage collector nothing.
type op struct {
	kind   opKind
	sample bool  // keep the reply for verification
	sess   int32 // index into the keyed or transcipher sessions
	off    int32 // keyed: payload offset into inputs.pool
	n      int32 // keyed: payload length
	block  int32 // transcipher: index into the session's inputs.blocks, and the block counter
	due    int64 // open loop: ns after the load starts
	nonce  uint64
}

// tcBlock is one transcipher input: a message block and its symmetric
// PASTA ciphertext at (nonce, block).
type tcBlock struct {
	nonce, block uint64
	msg, sym     ff.Vec
}

// traffic is one request stream. An open loop is a single schedule
// sorted by due time, drawn before the load starts. A closed loop is one
// request sequence per session, drawn as the session sends: each session
// has a generator of its own, so its sequence is fixed by the seed and
// no server is fast enough to run out of it.
type traffic struct {
	open bool
	ops  [][]op
	next []func() (op, error) // closed loop: draws session s's next op
}

// inputs is everything a run sends. The keys, the payload pool and the
// open-loop schedules are generated from the seed before any server
// starts; closed-loop requests are drawn during the run, so one inputs
// serves one run.
type inputs struct {
	keys   [][]uint64 // keyed session keys
	nonces []uint64   // keyed session stream nonces
	pool   ff.Vec
	keyed  traffic

	tcParams hhe.Params
	tcClient *hhe.Client
	blob     []byte      // eval-key upload for every transcipher session
	blocks   [][]tcBlock // per transcipher session, in the order they were drawn
	tc       traffic
}

// rng returns an independent generator for one part of the inputs, so a
// change to how one part is drawn leaves the others as they were.
func rng(seed uint64, part string) *rand.Rand {
	h := uint64(14695981039346656037)
	for i := 0; i < len(part); i++ {
		h = (h ^ uint64(part[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// genInputs draws the workload's keys and open-loop schedule for a load
// of the given length (warm-up plus window), and sets up the closed-loop
// generators.
func genInputs(w workload, seed uint64, length time.Duration) (*inputs, error) {
	p := ff.P17.P()
	in := &inputs{}

	r := rng(seed, "keys")
	for range w.keyed {
		key := make([]uint64, pastaKeyLen)
		for i := range key {
			key[i] = r.Uint64N(p)
		}
		in.keys = append(in.keys, key)
		in.nonces = append(in.nonces, r.Uint64())
	}
	r = rng(seed, "pool")
	in.pool = ff.NewVec(poolElems)
	for i := range in.pool {
		in.pool[i] = r.Uint64N(p)
	}

	if w.keyed > 0 {
		r = rng(seed, "keyed")
		if w.rate > 0 {
			in.keyed = traffic{open: true, ops: [][]op{
				poisson(r, w.rate, length, func(o *op) {
					o.kind = opStream
					o.sess = int32(r.IntN(w.keyed))
					o.n = int32(1 + r.IntN(chunkMax))
					o.off = int32(r.IntN(poolElems - int(o.n)))
					o.sample = r.IntN(sampleEvery) == 0
				}),
			}}
		} else {
			in.keyed.ops = make([][]op, w.keyed)
			in.keyed.next = make([]func() (op, error), w.keyed)
			for s := range in.keyed.next {
				r := rng(seed, fmt.Sprintf("encrypt-%d", s))
				base := r.Uint64()
				k := 0
				in.keyed.next[s] = func() (op, error) {
					// The first reply is always checked, so even a short
					// run verifies every session.
					o := op{
						kind: opEncrypt, sess: int32(s), n: encryptElems,
						off:    int32(r.IntN(poolElems - encryptElems)),
						nonce:  base + uint64(k),
						sample: r.IntN(sampleEvery) == 0 || k == 0,
					}
					k++
					return o, nil
				}
			}
		}
	}

	if w.tc > 0 {
		if err := genTranscipher(w, seed, in); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// poisson draws open-loop arrivals at rate per second over length.
func poisson(r *rand.Rand, rate float64, length time.Duration, fill func(*op)) []op {
	var ops []op
	for t := r.ExpFloat64() / rate; t < length.Seconds(); t += r.ExpFloat64() / rate {
		o := op{due: int64(t * 1e9)}
		fill(&o)
		ops = append(ops, o)
	}
	return ops
}

// genTranscipher builds the keyless sessions' client (symmetric key and
// BFV keys) and its eval-key blob, and sets up each session's generator,
// which encrypts a fresh block under the client's key as it draws it.
// Key generation is client-side: it runs before any server starts and is
// not part of set-up time.
func genTranscipher(w workload, seed uint64, in *inputs) error {
	par, err := hhe.NewToyParams(w.tcT, 2)
	if err != nil {
		return err
	}
	key := pasta.KeyFromSeed(par.Pasta, fmt.Sprintf("hheload-%d", seed))
	client, err := hhe.NewClient(par, key, []byte(fmt.Sprintf("hheload-bfv-%d", seed)))
	if err != nil {
		return err
	}
	blob, err := client.EvalKeysBlob()
	if err != nil {
		return err
	}
	in.tcParams, in.tcClient, in.blob = par, client, blob

	p := par.Pasta.Mod.P()
	in.tc.ops = make([][]op, w.tc)
	in.tc.next = make([]func() (op, error), w.tc)
	in.blocks = make([][]tcBlock, w.tc)
	for s := range in.tc.next {
		r := rng(seed, fmt.Sprintf("transcipher-%d", s))
		nonce := r.Uint64()
		var recent []int32
		in.tc.next[s] = func() (op, error) {
			o := op{kind: opTranscipher, sess: int32(s), n: int32(w.tcT), sample: true}
			if len(recent) > 0 && r.Float64() < w.tcRepeat {
				o.block = recent[r.IntN(len(recent))]
				return o, nil
			}
			block := uint64(len(in.blocks[s]))
			msg := ff.NewVec(w.tcT)
			for i := range msg {
				msg[i] = r.Uint64N(p)
			}
			sym, err := client.EncryptBlock(nonce, block, msg)
			if err != nil {
				return op{}, err
			}
			in.blocks[s] = append(in.blocks[s], tcBlock{nonce: nonce, block: block, msg: msg, sym: sym})
			o.block = int32(block)
			if recent = append(recent, o.block); len(recent) > recentBlocks {
				recent = recent[1:]
			}
			return o, nil
		}
	}
	return nil
}

// block is the transcipher input an op sends.
func (in *inputs) block(o *op) *tcBlock {
	return &in.blocks[o.sess][o.block]
}

// payload returns the plaintext an op sends.
func (in *inputs) payload(o *op) ff.Vec {
	if o.kind == opTranscipher {
		return in.block(o).msg
	}
	return in.pool[o.off : o.off+o.n]
}

// keyedOpen is the SessionOpen of keyed session s.
func (in *inputs) keyedOpen(s int) wire.SessionOpen {
	return wire.SessionOpen{Variant: 4, Width: 17, Nonce: in.nonces[s], Key: in.keys[s]}
}
