package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/bfv"
	"repro/internal/cipher"
	"repro/internal/ff"
	"repro/internal/hhe"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/transcipher"
	"repro/internal/wire"
)

// A traced run measures each layer from outside the server:
//
//   - during the window it scrapes /metrics at the window's edges and
//     samples the queue-depth gauges at 10 Hz, in every other second of
//     the window, so the latency of requests sent while sampling and
//     while idle gives the tracing overhead;
//   - after the server stops it replays the workload's own inputs
//     through the public functions of wire, server, backend,
//     transcipher, hhe, bfv and rlwe in this process, one span per call.
//
// Every span of one request carries that request's id; the window's
// client calls are root spans, the replayed layer calls hang under a
// replay root of the same id.

// Replay sizes: enough calls for a stable median, few enough that the
// heaviest (a t = 16 circuit evaluation, ~0.8 s) keeps a traced run short.
// The first evaluation on a fresh context also builds its automorphism
// tables; the median of three leaves it out.
const (
	replayStream  = 300
	replayEncrypt = 8
	replayBlocks  = 3
	replayOps     = 32
	samplePeriod  = 100 * time.Millisecond // gauge sampling at 10 Hz
)

// span is one timed call, in ns after the tracer's epoch. parent is the
// index of the enclosing span, -1 for a root.
type span struct {
	name       string
	start, end int64
	parent     int
	req        int64
}

type tracer struct {
	tgt      *target
	from, to int64
	epoch    time.Time
	spans    []span

	snap0, snap1 obs.Snapshot
	cpu0, cpu1   time.Duration
	queue, tcQ   []int64 // sampled gauges
	done         chan error
}

func newTracer(tgt *target, from, to int64) *tracer {
	return &tracer{tgt: tgt, from: from, to: to, done: make(chan error, 1)}
}

// sampling reports whether a request or sample at ns after the load
// starts falls in a second of the window during which the sampler runs.
func (tr *tracer) sampling(at int64) bool {
	return (at-tr.from)/int64(time.Second)%2 == 1
}

// start begins the window scrapes; nil tracers do nothing.
func (tr *tracer) start(t0 time.Time) {
	if tr == nil {
		return
	}
	tr.epoch = t0
	go func() {
		time.Sleep(time.Until(t0.Add(time.Duration(tr.from))))
		var err error
		if tr.snap0, err = scrape(tr.tgt.debugAddr); err != nil {
			tr.done <- err
			return
		}
		if tr.cpu0, err = cpuTime(tr.tgt.pid); err != nil {
			tr.done <- err
			return
		}
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for now := range tick.C {
			at := int64(now.Sub(t0))
			if at >= tr.to {
				break
			}
			if !tr.sampling(at) {
				continue
			}
			s, err := scrape(tr.tgt.debugAddr)
			if err != nil {
				tr.done <- err
				return
			}
			tr.queue = append(tr.queue, s.Gauges["server.queue.depth"])
			tr.tcQ = append(tr.tcQ, s.Gauges["transcipher.queue.depth"])
		}
		tr.done <- nil
	}()
}

// finish takes the closing scrape once the load has drained.
func (tr *tracer) finish() error {
	if tr == nil {
		return nil
	}
	if err := <-tr.done; err != nil {
		return err
	}
	var err1, err2 error
	tr.snap1, err1 = scrape(tr.tgt.debugAddr)
	tr.cpu1, err2 = cpuTime(tr.tgt.pid)
	return errors.Join(err1, err2)
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// open starts a span and returns its index.
func (tr *tracer) open(name string, parent int, req int64) int {
	tr.spans = append(tr.spans, span{name: name, start: tr.now(), parent: parent, req: req})
	return len(tr.spans) - 1
}

func (tr *tracer) close(i int) { tr.spans[i].end = tr.now() }

// call times f as a child span of parent.
func (tr *tracer) call(name string, parent int, req int64, f func() error) error {
	i := tr.open(name, parent, req)
	err := f()
	tr.close(i)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// selfTimes is each span name's self times in ns: duration minus the
// time its children cover.
func (tr *tracer) selfTimes() map[string][]float64 {
	child := make([]int64, len(tr.spans))
	for _, s := range tr.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	self := map[string][]float64{}
	for i, s := range tr.spans {
		self[s.name] = append(self[s.name], float64(s.end-s.start-child[i]))
	}
	return self
}

// windowSpans adds the window's client calls as root spans.
func (tr *tracer) windowSpans(l load) {
	var id int64
	for s, ops := range l.traffic.ops {
		for i, o := range l.out[s] {
			id++
			if !o.sent || o.lat == failedLat || o.start < tr.from || o.start >= tr.to {
				continue
			}
			tr.spans = append(tr.spans, span{name: "client." + ops[i].kind.String(),
				start: o.start, end: o.start + o.lat, parent: -1, req: id})
		}
	}
}

// write stores the spans as a Chrome trace-event file.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	fmt.Fprint(bw, `{"traceEvents":[`)
	for i, s := range tr.spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		tid := 1
		if s.parent >= 0 || strings.HasPrefix(s.name, "replay.") {
			tid = 2
		}
		if err := enc.Encode(map[string]any{
			"name": s.name, "ph": "X", "pid": 1, "tid": tid,
			"ts": float64(s.start) / 1e3, "dur": float64(s.end-s.start) / 1e3,
			"args": map[string]any{"req": s.req, "parent": s.parent},
		}); err != nil {
			f.Close()
			return err
		}
	}
	fmt.Fprint(bw, "]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerMetrics computes every per-layer metric of a traced run. A
// metric whose layer the workload does not exercise reads 0.
func (tr *tracer) layerMetrics(res *result, cfg runConfig) (map[string]metric, error) {
	w, in := cfg.w, res.in
	m := map[string]metric{}
	for _, name := range layerNames {
		m[name.name] = metric{0, name.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }

	// Scraped: deltas across the window.
	s0, s1 := tr.snap0, tr.snap1
	dc := func(name string) float64 { return float64(s1.Counters[name] - s0.Counters[name]) }
	dh := func(name string) (n, sum float64) {
		a, b := s0.Histograms[name], s1.Histograms[name]
		return float64(b.Count - a.Count), float64(b.Sum - a.Sum)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	get := dc("wire.pool.get")
	set("wire.pool_hit_ratio", ratio(get-dc("wire.pool.miss")-dc("wire.pool.oversize"), get))
	n, sum := dh("server.request_ns")
	set("server.request_mean_us", ratio(sum, n)/1e3)
	set("server.queue_depth_mean", meanOf(tr.queue))
	set("server.queue_depth_max", maxOf(tr.queue))
	_, elems := dh("server.batch.elements")
	set("server.batch_fill_ratio", ratio(elems, dc("server.batch.flushes")*pastaT))
	n, sum = dh("server.batch.requests")
	set("server.batch_requests_mean", ratio(sum, n))
	set("server.frames_per_write", ratio(dc("server.write.frames"), dc("server.write.flushes")))
	var rejected float64
	for name := range s1.Counters {
		if strings.HasPrefix(name, "server.") && strings.Contains(name, ".rejected.") {
			rejected += dc(name)
		}
	}
	set("server.rejected", rejected)
	var done int64
	for _, l := range []load{res.keyed, res.tc} {
		if len(l.traffic.ops) > 0 {
			done += collect(l.traffic.ops, l.out, l.traffic.ops[0][0].kind, res.from, res.to).elems
		}
	}
	set("server.cpu_us_per_kelem", ratio(float64((tr.cpu1-tr.cpu0).Microseconds()), float64(done)/1e3))
	n, sum = dh("pasta.block_ns")
	set("pasta.block_mean_us", ratio(sum, n)/1e3)
	set("hw.cycles_per_block", ratio(dc("hw.cycles"), dc("hw.runs")))
	set("hw.xof_stall_ratio", ratio(dc("hw.xof_stalled"), dc("hw.cycles")))
	n, sum = dh("transcipher.eval_ns")
	set("transcipher.eval_mean_ms", ratio(sum, n)/1e6)
	set("transcipher.queue_depth_mean", meanOf(tr.tcQ))
	hits := dc("transcipher.cache.hits")
	set("transcipher.cache_hit_ratio", ratio(hits, hits+dc("transcipher.cache.misses")))
	set("transcipher.rejected_budget", dc("transcipher.rejected.budget"))

	// Traced: the window's client calls, then the layer replays.
	tr.windowSpans(res.keyed)
	tr.windowSpans(res.tc)
	var perReq map[string]float64 // layer span name → calls per gated request
	var err error
	switch w.primary() {
	case opStream:
		perReq, err = tr.replayStream(in, res.keyed)
	case opEncrypt:
		perReq, err = tr.replayEncrypt(in, res.keyed)
	}
	if err == nil && w.tc > 0 {
		var tcReq map[string]float64
		tcReq, err = tr.replayTranscipher(in, w, res.tc)
		if w.primary() == opTranscipher {
			perReq = tcReq
		}
	}
	if err != nil {
		return nil, err
	}

	self := tr.selfTimes()
	for _, l := range layerNames {
		if l.span == "" {
			continue
		}
		if v := self[l.span]; len(v) > 0 {
			set(l.name, median(v)/l.scale)
		}
	}

	// The gated operation's p50, the part the replayed layers account
	// for, and the split of the window by sampler activity.
	var prim window
	for _, l := range []load{res.keyed, res.tc} {
		if pw := collect(l.traffic.ops, l.out, w.primary(), res.from, res.to); len(pw.lats) > 0 {
			prim = pw
		}
	}
	var on, off []int64
	for i, start := range prim.starts {
		if tr.sampling(start) {
			on = append(on, prim.lats[i])
		} else {
			off = append(off, prim.lats[i])
		}
	}
	slices.Sort(on)
	slices.Sort(off)
	attributed := 0.0
	for name, calls := range perReq {
		attributed += median(self[name]) * calls
	}
	set("unattributed_us", (float64(quantile(prim.sorted(), 0.5))-attributed)/1e3)
	set("trace.overhead_ratio", ratio(float64(quantile(on, 0.5)), float64(quantile(off, 0.5))))

	if cfg.traceFile != "" {
		if err := tr.write(cfg.traceFile); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// layerName is one per-layer metric: its unit, the span whose median
// self time it reports (empty for scraped metrics) and the divisor from
// ns to its unit.
type layerName struct {
	name, unit, span string
	scale            float64
}

var layerNames = []layerName{
	{"wire.stream_frame_encode_us", "us", "wire.stream_frame_encode", 1e3},
	{"wire.stream_frame_decode_us", "us", "wire.stream_frame_decode", 1e3},
	{"wire.data_frame_roundtrip_us", "us", "wire.data_frame_roundtrip", 1e3},
	{"wire.encrypt_frame_roundtrip_us", "us", "wire.encrypt_frame_roundtrip", 1e3},
	{"wire.pool_hit_ratio", "ratio", "", 0},
	{"server.request_mean_us", "us", "", 0},
	{"server.queue_depth_mean", "count", "", 0},
	{"server.queue_depth_max", "count", "", 0},
	{"server.batch_fill_ratio", "ratio", "", 0},
	{"server.batch_requests_mean", "count", "", 0},
	{"server.frames_per_write", "count", "", 0},
	{"server.rejected", "count", "", 0},
	{"server.cpu_us_per_kelem", "us/kelem", "", 0},
	{"server.free_cipher_rtt_us", "us", "server.free_cipher_rtt", 1e3},
	{"backend.software.block_us", "us", "backend.software.block", 1e3},
	{"backend.accel.block_us", "us", "backend.accel.block", 1e3},
	{"pasta.block_mean_us", "us", "", 0},
	{"hw.cycles_per_block", "cycles", "", 0},
	{"hw.xof_stall_ratio", "ratio", "", 0},
	{"transcipher.enroll_ms", "ms", "transcipher.enroll", 1e6},
	{"transcipher.eval_mean_ms", "ms", "", 0},
	{"transcipher.queue_depth_mean", "count", "", 0},
	{"transcipher.cache_hit_ratio", "ratio", "", 0},
	{"transcipher.rejected_budget", "count", "", 0},
	{"hhe.unmarshal_eval_keys_ms", "ms", "hhe.unmarshal_eval_keys", 1e6},
	{"hhe.eval_keystream_ms", "ms", "hhe.eval_keystream", 1e6},
	{"hhe.transcipher_with_ms", "ms", "hhe.transcipher_with", 1e6},
	{"bfv.rotate_columns_ms", "ms", "bfv.rotate_columns", 1e6},
	{"bfv.mul_relin_ms", "ms", "bfv.mul_relin", 1e6},
	{"bfv.mul_plain_us", "us", "bfv.mul_plain", 1e3},
	{"bfv.add_us", "us", "bfv.add", 1e3},
	{"bfv.encode_replicated_us", "us", "bfv.encode_replicated", 1e3},
	{"bfv.ct_marshal_us", "us", "bfv.ct_marshal", 1e3},
	{"bfv.ct_unmarshal_us", "us", "bfv.ct_unmarshal", 1e3},
	{"rlwe.ntt_us", "us", "rlwe.ntt", 1e3},
	{"rlwe.intt_us", "us", "rlwe.intt", 1e3},
	{"unattributed_us", "us", "", 0},
	{"trace.overhead_ratio", "ratio", "", 0},
}

// windowOps returns up to n ops of the traffic that were sent in the
// window and succeeded, with their request ids (as windowSpans numbers
// them).
func (tr *tracer) windowOps(l load, n int) (ops []op, ids []int64) {
	var id int64
	for s := range l.traffic.ops {
		for i, o := range l.out[s] {
			id++
			if len(ops) < n && o.sent && o.lat != failedLat && o.start >= tr.from && o.start < tr.to {
				ops = append(ops, l.traffic.ops[s][i])
				ids = append(ids, id)
			}
		}
	}
	return ops, ids
}

// frameCodec reads frames back from bytes, as the receiving side of a
// connection would.
type frameCodec struct {
	buf     bytes.Buffer
	codec   *wire.Codec
	scratch []byte
}

func newFrameCodec() *frameCodec {
	c := &frameCodec{}
	c.codec = wire.NewCodec(&c.buf)
	return c
}

func (c *frameCodec) read(frame []byte) ([]byte, error) {
	c.buf.Reset()
	c.buf.Write(frame)
	_, payload, err := c.codec.ReadFrameInto(c.scratch)
	c.scratch = payload
	return payload, err
}

// dataRoundtrip encodes a reply frame for v and decodes it back.
func dataRoundtrip(fc *frameCodec, frame []byte, v, dst ff.Vec) ([]byte, error) {
	frame, err := wire.AppendDataFrame(frame[:0], 1, 1, 0, v, 17)
	if err != nil {
		return frame, err
	}
	payload, err := fc.read(frame)
	if err != nil {
		return frame, err
	}
	var d wire.Data
	if err := wire.DecodeDataInto(&d, payload); err != nil {
		return frame, err
	}
	return frame, d.VecInto(dst[:len(v)])
}

// replayStream replays the window's first stream requests through the
// request codec, the reply codec, the modelled accelerator and a server
// whose cipher costs nothing. It returns the calls of each layer per
// request.
func (tr *tracer) replayStream(in *inputs, l load) (map[string]float64, error) {
	ops, ids := tr.windowOps(l, replayStream)
	fc := newFrameCodec()
	var frame []byte
	dst := ff.NewVec(pastaT)
	ctx := context.Background()
	accel := map[int32]backend.BlockCipher{}
	defer func() {
		for _, c := range accel {
			c.Close()
		}
	}()

	free, err := startFreeServer()
	if err != nil {
		return nil, err
	}
	defer free.stop()
	fsess, err := free.client.OpenSession(in.keyedOpen(0))
	if err != nil {
		return nil, err
	}

	var elems float64
	for i, o := range ops {
		msg := in.payload(&o)
		elems += float64(len(msg))
		bc, ok := accel[o.sess]
		if !ok {
			if bc, err = backend.Open(backend.NameAccel, keyedConfig(in, o.sess)); err != nil {
				return nil, err
			}
			accel[o.sess] = bc
		}
		root := tr.open("replay.encrypt_chunk", -1, ids[i])
		err := errors.Join(
			tr.call("wire.stream_frame_encode", root, ids[i], func() (err error) {
				frame, err = wire.AppendStreamFrame(frame[:0], 1, uint64(i), uint64(i+1), msg, 17)
				return err
			}),
			tr.call("wire.stream_frame_decode", root, ids[i], func() error {
				payload, err := fc.read(frame)
				if err != nil {
					return err
				}
				var req wire.StreamReq
				return wire.DecodeStreamReqInto(&req, payload)
			}),
			tr.call("wire.data_frame_roundtrip", root, ids[i], func() (err error) {
				frame, err = dataRoundtrip(fc, frame, msg, dst)
				return err
			}),
			tr.call("backend.accel.block", root, ids[i], func() error {
				return bc.KeyStreamInto(ctx, dst, in.nonces[o.sess], uint64(i))
			}),
			tr.call("server.free_cipher_rtt", root, ids[i], func() error {
				_, _, err := fsess.EncryptChunk(msg)
				return err
			}),
		)
		tr.close(root)
		if err != nil {
			return nil, err
		}
	}
	return map[string]float64{
		"wire.stream_frame_encode":  1,
		"wire.stream_frame_decode":  1,
		"wire.data_frame_roundtrip": 1,
		"backend.accel.block":       elems / float64(max(len(ops), 1)) / pastaT,
	}, nil
}

// replayEncrypt replays the window's first Encrypt requests through the
// request and reply codecs and the software cipher's block function.
func (tr *tracer) replayEncrypt(in *inputs, l load) (map[string]float64, error) {
	ops, ids := tr.windowOps(l, replayEncrypt)
	fc := newFrameCodec()
	var frame []byte
	dst := ff.NewVec(encryptElems)
	ctx := context.Background()
	const blocksPerReq = encryptElems / pastaT
	for i, o := range ops {
		msg := in.payload(&o)
		bc, err := backend.Open(backend.NameSoftware, keyedConfig(in, o.sess))
		if err != nil {
			return nil, err
		}
		root := tr.open("replay.encrypt", -1, ids[i])
		err = errors.Join(
			tr.call("wire.encrypt_frame_roundtrip", root, ids[i], func() error {
				var err error
				if frame, err = wire.AppendEncryptFrame(frame[:0], 1, 1, 1, o.nonce, msg, 17); err != nil {
					return err
				}
				payload, err := fc.read(frame)
				if err != nil {
					return err
				}
				var req wire.EncryptReq
				if err := wire.DecodeEncryptReqInto(&req, payload); err != nil {
					return err
				}
				return req.VecInto(dst)
			}),
			tr.call("wire.data_frame_roundtrip", root, ids[i], func() (err error) {
				frame, err = dataRoundtrip(fc, frame, msg, dst)
				return err
			}),
		)
		// An eighth of the request's blocks is enough for the median;
		// the weight below counts all of them.
		ks := ff.NewVec(pastaT)
		for b := range blocksPerReq / 8 {
			err = errors.Join(err, tr.call("backend.software.block", root, ids[i], func() error {
				return bc.KeyStreamInto(ctx, ks, o.nonce, uint64(b))
			}))
		}
		tr.close(root)
		bc.Close()
		if err != nil {
			return nil, err
		}
	}
	return map[string]float64{
		"wire.encrypt_frame_roundtrip": 1,
		"wire.data_frame_roundtrip":    1,
		"backend.software.block":       float64(blocksPerReq),
	}, nil
}

// replayTranscipher replays enrollment with the run's eval-key blob, the
// circuit evaluation of the window's first blocks, and the BFV and RNS
// operations the circuit is built from, on the uploaded keys.
func (tr *tracer) replayTranscipher(in *inputs, w workload, l load) (map[string]float64, error) {
	root := tr.open("replay.enroll", -1, 0)
	svc := transcipher.New(transcipher.Config{Workers: 1})
	var engine *hhe.PackedServer
	var bp bfv.Params
	var bctx *bfv.Context
	var keys hhe.PackedEvalKeys
	var err error
	for s := range replayBlocks {
		err = errors.Join(err,
			tr.call("transcipher.enroll", root, 0, func() error {
				ready := make(chan error, 1)
				_, _, err := svc.AcceptChunk(uint32(s+1), in.tcParams.Pasta, 0, uint64(len(in.blob)), in.blob,
					func(_ transcipher.UploadState, err error) { ready <- err })
				if err != nil {
					return err
				}
				return <-ready
			}),
			tr.call("hhe.unmarshal_eval_keys", root, 0, func() (err error) {
				bp, bctx, keys, err = hhe.UnmarshalPackedEvalKeys(in.blob)
				return err
			}))
	}
	svc.Close()
	tr.close(root)
	if err != nil {
		return nil, err
	}
	if engine, err = hhe.NewPackedServer(hhe.Params{Pasta: in.tcParams.Pasta, BFV: bp}, bctx, keys); err != nil {
		return nil, err
	}

	ops, ids := tr.windowOps(l, replayBlocks)
	var ks *bfv.Ciphertext
	for i, o := range ops {
		b := in.block(&o)
		var ct *bfv.Ciphertext
		var blob []byte
		root := tr.open("replay.transcipher", -1, ids[i])
		err := errors.Join(
			tr.call("hhe.eval_keystream", root, ids[i], func() (err error) {
				ks, err = engine.EvalKeystream(b.nonce, b.block)
				return err
			}),
			tr.call("hhe.transcipher_with", root, ids[i], func() (err error) {
				ct, err = engine.TranscipherWith(ks, b.sym)
				return err
			}),
			tr.call("bfv.ct_marshal", root, ids[i], func() (err error) {
				blob, err = ct.MarshalBinary(bctx)
				return err
			}),
			tr.call("bfv.ct_unmarshal", root, ids[i], func() error {
				_, err := bctx.UnmarshalCiphertext(blob)
				return err
			}),
		)
		tr.close(root)
		if err != nil {
			return nil, err
		}
	}
	if ks == nil {
		return nil, errors.New("no transcipher request succeeded in the window")
	}

	enc, err := bfv.NewEncoder(bctx)
	if err != nil {
		return nil, err
	}
	diag := make([]uint64, w.tcT)
	for i := range diag {
		diag[i] = uint64(i + 1)
	}
	pt, err := enc.EncodeReplicated(diag)
	if err != nil {
		return nil, err
	}
	poly := ks.C[0].Clone()
	root = tr.open("replay.bfv", -1, 0)
	for d := 1; d < w.tcT; d++ {
		err = errors.Join(err, tr.call("bfv.rotate_columns", root, 0, func() error {
			_, err := bctx.RotateColumns(ks, d, keys.GKs)
			return err
		}))
	}
	for range 4 {
		err = errors.Join(err, tr.call("bfv.mul_relin", root, 0, func() error {
			_, err := bctx.Mul(ks, ks, keys.RLK)
			return err
		}))
	}
	for range replayOps {
		err = errors.Join(err,
			tr.call("bfv.mul_plain", root, 0, func() error { bctx.MulPlain(ks, pt); return nil }),
			tr.call("bfv.add", root, 0, func() error { bctx.Add(ks, ks); return nil }),
			tr.call("bfv.encode_replicated", root, 0, func() (err error) { _, err = enc.EncodeReplicated(diag); return err }),
			tr.call("rlwe.ntt", root, 0, func() error { bctx.RQ.NTT(poly); return nil }),
			tr.call("rlwe.intt", root, 0, func() error { bctx.RQ.INTT(poly); return nil }),
		)
	}
	tr.close(root)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"hhe.eval_keystream":   1,
		"hhe.transcipher_with": 1,
		"bfv.ct_marshal":       1,
		"bfv.ct_unmarshal":     1,
	}, nil
}

// keyedConfig opens keyed session s's cipher in this process.
func keyedConfig(in *inputs, s int32) backend.Config {
	return backend.Config{CipherParams: cipher.Params{Variant: 4, Width: 17}, Key: ff.Vec(in.keys[s]), Workers: 1}
}

// freeBackend is a substrate whose keystream is all zeros, so a server
// running it spends its time only in the serving tier.
const freeBackend = "hheload-free"

var registerFree sync.Once

type freeCipher struct{}

func (freeCipher) Name() string         { return freeBackend }
func (freeCipher) Scheme() string       { return backend.SchemePasta }
func (freeCipher) BlockSize() int       { return pastaT }
func (freeCipher) Modulus() ff.Modulus  { return ff.P17 }
func (freeCipher) Stats() backend.Stats { return backend.Stats{Backend: freeBackend} }
func (freeCipher) Close() error         { return nil }

func (freeCipher) KeyStreamInto(_ context.Context, dst ff.Vec, _, _ uint64) error {
	clear(dst)
	return nil
}

func (freeCipher) KeyStreamBlocks(_ context.Context, _, _ uint64, count int) (ff.Vec, error) {
	return ff.NewVec(count * pastaT), nil
}

func (freeCipher) Encrypt(_ context.Context, _ uint64, msg ff.Vec) (ff.Vec, error) {
	return msg.Clone(), nil
}

func (freeCipher) Decrypt(_ context.Context, _ uint64, ct ff.Vec) (ff.Vec, error) {
	return ct.Clone(), nil
}

// freeServer is an in-process server on the free substrate.
type freeServer struct {
	srv    *server.Server
	client *server.Client
	served chan error
}

func startFreeServer() (*freeServer, error) {
	registerFree.Do(func() {
		backend.Register(freeBackend, func(backend.Config) (backend.BlockCipher, error) { return freeCipher{}, nil })
	})
	srv, err := server.New(server.Config{Backend: freeBackend})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &freeServer{srv: srv, served: make(chan error, 1)}
	go func() { f.served <- srv.Serve(ln) }()
	if f.client, err = server.Dial(ln.Addr().String()); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

func (f *freeServer) stop() error {
	if f.client != nil {
		f.client.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return errors.Join(f.srv.Shutdown(ctx), <-f.served)
}

func meanOf(v []int64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s int64
	for _, x := range v {
		s += x
	}
	return float64(s) / float64(len(v))
}

func maxOf(v []int64) float64 {
	var m int64
	for _, x := range v {
		m = max(m, x)
	}
	return float64(m)
}
