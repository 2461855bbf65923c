// Package server is the HHE edge serving tier: a stdlib-only TCP
// service that exposes the Fig. 1 protocol as a multi-tenant API over
// the execution-backend layer (internal/backend).
//
// A client opens a session — symmetric key material plus the opaque FHE
// registration blob destined for the compute tier — and then streams
// encrypt and keystream requests. Requests are executed by a scheduler:
//
//   - a bounded global queue feeds a pool of workers; each session owns
//     a backend.BlockCipher instance (software instances fan out over
//     the cipher's own worker pool, accelerator/SoC instances serialize
//     internally like the single peripheral they model);
//   - stream requests smaller than a keystream block are batched per
//     session and flushed either when a full block of elements has
//     accumulated or when the batch window expires, so the per-block
//     keystream cost is amortized across small requests;
//   - when the queue is full the request is rejected immediately with a
//     typed overload error carrying a Retry-After hint — backpressure,
//     not latency;
//   - per-session token buckets bound the element rate, per-request
//     deadlines bound queue residency, and Shutdown drains queued work
//     before closing connections.
//
// Every stage reports into internal/obs (see metrics.go), so the
// `hheserver -metrics` snapshot and /debug/vars endpoint cover accepted
// and active sessions, queue depth, batch occupancy, request latency,
// and per-backend dispatch counts out of the box.
package server

import (
	"context"
	"crypto/rand"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/backend"
	"repro/internal/ff"
	"repro/internal/transcipher"
)

// Typed serving-tier failures. The server returns them locally (submit,
// session open) and the client library maps wire error codes back onto
// them, so errors.Is works identically on both ends.
var (
	// ErrOverloaded reports a full scheduler queue or session table; the
	// caller should retry after the hinted delay.
	ErrOverloaded = errors.New("server: overloaded")
	// ErrRateLimited reports an exhausted per-session rate budget.
	ErrRateLimited = errors.New("server: rate limited")
	// ErrShuttingDown reports a server that is draining.
	ErrShuttingDown = errors.New("server: shutting down")
	// ErrClosed reports use of a closed client or session.
	ErrClosed = errors.New("server: connection closed")
	// ErrReplay reports a request counter that was already consumed or
	// fell behind the anti-replay window; the request is rejected before
	// any keystream offset is assigned.
	ErrReplay = errors.New("server: replayed or stale request counter")
	// ErrDuplicateNonce reports a SessionOpen whose (key, nonce) pair is
	// already bound to a live session — accepting it would derive the
	// same keystream twice (a two-time pad).
	ErrDuplicateNonce = errors.New("server: (key, nonce) already in use by a live session")
	// ErrBadResume reports an invalid, expired, or already-claimed
	// session-resumption token.
	ErrBadResume = errors.New("server: invalid resumption token")
	// ErrUnknownCipher reports a SessionOpen naming a cipher family that
	// is not registered on this server, or one the configured execution
	// substrate cannot run. The rejection is per-request: the connection
	// stays up and the client may retry with a supported cipher.
	ErrUnknownCipher = errors.New("server: unknown or unsupported cipher")

	// ErrNoEvalKeys reports a Transcipher request on a session whose
	// eval-key upload has not completed. Aliases the transcipher tier's
	// sentinel so errors.Is matches on both sides of the wire.
	ErrNoEvalKeys = transcipher.ErrNoEvalKeys
	// ErrTranscipherBudget reports a Transcipher request rejected by the
	// tier's cost-model admission; the wire error carries a Retry-After
	// hint estimating the backlog drain.
	ErrTranscipherBudget = transcipher.ErrBudget
)

// Config tunes a Server. The zero value serves PASTA sessions on the
// software backend with sensible bounds.
type Config struct {
	// Backend is the execution substrate every session runs on
	// ("software", "accel", "soc"; default "software"). The operator
	// picks the substrate; clients pick cipher shape and keys.
	Backend string

	// DefaultCipher is the cipher family assumed when a SessionOpen
	// does not name one ("" = backend.DefaultCipher, i.e. "pasta").
	// Clients can always negotiate any registered family per session;
	// this only fills the empty wire field.
	DefaultCipher string

	// Workers is the scheduler pool size; ≤ 0 means GOMAXPROCS.
	Workers int

	// BackendWorkers bounds each session cipher's internal fan-out.
	// Default 1: cross-session parallelism comes from the scheduler
	// pool, so a single bulk request cannot oversubscribe the host.
	BackendWorkers int

	// AccelUnits sizes each accel-backend session's accelerator farm
	// (≤ 0 or 1 = single modelled peripheral). With N > 1 units a
	// session's cipher fans bulk requests across N cloned accelerator
	// instances, so one client can keep the whole farm busy; the farm
	// units are modelled hardware, not host threads, so this does not
	// oversubscribe the scheduler pool the way BackendWorkers would.
	AccelUnits int

	// QueueBound caps queued jobs; submissions beyond it are rejected
	// with ErrOverloaded. Default 256.
	QueueBound int

	// BatchWindow is how long a partial stream batch may wait for more
	// elements before it is flushed anyway. Default 2ms.
	BatchWindow time.Duration

	// MaxSessions caps live sessions across all connections. Default 1024.
	MaxSessions int

	// MaxRequestElems caps the elements a single request may carry or
	// demand (encrypt/stream length, keystream count × block size).
	// Default 65536.
	MaxRequestElems int

	// RatePerSec, when > 0, bounds each session to that many elements
	// per second, enforced by a token bucket of RateBurst capacity.
	RatePerSec float64

	// RateBurst is the token-bucket capacity in elements; ≤ 0 derives
	// one second's worth of rate.
	RateBurst float64

	// RequestTimeout bounds a request from acceptance to completion;
	// jobs that age out in the queue fail with a deadline error.
	// Default 10s.
	RequestTimeout time.Duration

	// IdleTimeout is the per-connection read deadline. Default 2m.
	IdleTimeout time.Duration

	// WriteTimeout bounds a single response write. Default 10s.
	WriteTimeout time.Duration

	// RetryAfter is the hint attached to overload rejections. Default 100ms.
	RetryAfter time.Duration

	// MaxPayload bounds wire frames; 0 means wire.DefaultMaxPayload.
	MaxPayload uint32

	// TLS, when non-nil, wraps the accept path in crypto/tls so key
	// material and resumption tokens never cross the wire in plaintext.
	// The zero value serves plaintext TCP (tests, loopback demos).
	TLS *tls.Config

	// ResumeWindow, when > 0, parks a session for that long after its
	// connection drops instead of evicting it: a client presenting the
	// session's resumption token re-attaches without re-uploading key
	// blobs, keeping its stream position and replay high-water mark.
	// 0 (the default) evicts on disconnect, as before.
	ResumeWindow time.Duration

	// TranscipherWorkers sizes the transcipher tier's dedicated heavy
	// pool — segregated from the Workers pool above so a multi-second
	// homomorphic circuit evaluation can never head-of-line-block the
	// µs-scale keystream path. ≤ 0 means 1.
	TranscipherWorkers int

	// TranscipherQueue bounds pending transcipher jobs. Default 16.
	TranscipherQueue int

	// TranscipherBudget caps the transcipher tier's estimated eval
	// backlog; requests pricing past it are rejected with
	// CodeTranscipherBudget and a drain-time Retry-After. Default 30s.
	TranscipherBudget time.Duration

	// TranscipherCacheBlocks sizes the per-session Enc(KS) block cache
	// (keystream evaluation is payload-independent, so a cache hit
	// reduces a repeat block to one homomorphic subtraction). Default 32.
	TranscipherCacheBlocks int

	// MaxEvalKeysBytes caps a session's assembled eval-key upload;
	// 0 means 256 MiB.
	MaxEvalKeysBytes uint64
}

func (c Config) withDefaults() Config {
	if c.Backend == "" {
		c.Backend = backend.NameSoftware
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BackendWorkers <= 0 {
		c.BackendWorkers = 1
	}
	if c.QueueBound <= 0 {
		c.QueueBound = 256
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxRequestElems <= 0 {
		c.MaxRequestElems = 1 << 16
	}
	if c.RatePerSec > 0 && c.RateBurst <= 0 {
		c.RateBurst = c.RatePerSec
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 2 * time.Minute
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 100 * time.Millisecond
	}
	return c
}

// jobKind discriminates scheduler jobs.
type jobKind uint8

const (
	jobEncrypt jobKind = iota + 1
	jobKeystream
	jobFlush
)

// job is one unit of scheduled work. Encrypt/keystream jobs carry their
// request inline; flush jobs re-read the owning session's pending batch
// when they run. Jobs are pooled: msg and ct are reusable element
// scratch that survives recycling, so the steady-state request path
// performs no per-job allocation.
type job struct {
	kind  jobKind
	sess  *session
	conn  *conn  // reply target, pinned at admission (the session may re-attach elsewhere)
	id    uint64 // request id (0 for flush)
	nonce uint64
	first uint64
	count int // keystream blocks
	msg   ff.Vec
	ct    ff.Vec // worker-filled result scratch
	enq   time.Time
}

var jobPool = sync.Pool{New: func() any { return new(job) }}

func getJob() *job { return jobPool.Get().(*job) }

// putJob recycles a job, dropping references but keeping the msg/ct
// capacity. Callers must be done with both scratch vectors: replies are
// fully serialized into the frame buffer before the worker releases the
// job.
func putJob(j *job) {
	j.kind, j.sess, j.conn = 0, nil, nil
	j.id, j.nonce, j.first, j.count = 0, 0, 0, 0
	jobPool.Put(j)
}

// resizeVec returns v resized to n elements, reallocating only when the
// capacity does not cover n.
func resizeVec(v ff.Vec, n int) ff.Vec {
	if cap(v) >= n {
		return v[:n]
	}
	return ff.NewVec(n)
}

// Server is the serving tier. Create with New, start with Serve or
// ListenAndServe, stop with Shutdown.
type Server struct {
	cfg Config
	m   *metrics

	// tc hosts the per-session homomorphic transcipher engines on its
	// own heavy pool, segregated from the scheduler queue above so
	// circuit evaluations never block the keystream path.
	tc *transcipher.Service

	// runCtx cancels in-flight backend work on forced shutdown.
	runCtx    context.Context
	runCancel context.CancelFunc

	// qmu orders submissions against queue close: submit holds RLock,
	// Shutdown takes Lock before closing, so a send can never race a
	// close. draining is checked under the same lock.
	qmu      sync.RWMutex
	queue    chan *job
	draining bool
	depth    atomic.Int64

	workerWG sync.WaitGroup
	connWG   sync.WaitGroup

	mu        sync.Mutex
	ln        net.Listener
	conns     map[*conn]struct{}
	sessions  map[uint32]*session
	streams   map[streamKey]uint32 // live (key fingerprint, nonce) → session id
	nextSess  uint32
	serving   bool
	shutdown  bool
	latencyNS atomic.Int64 // EWMA-ish last-request latency, for retry hints

	// resumeSecret keys the HMAC over resumption tokens; drawn once per
	// server from crypto/rand, never serialized.
	resumeSecret [32]byte
}

// streamKey identifies one keystream: a symmetric key fingerprint plus
// the stream nonce. Two live sessions sharing a streamKey would derive
// identical keystream — a two-time pad — so opens are rejected against
// this registry.
type streamKey struct {
	fp    [32]byte
	nonce uint64
}

// New validates the configuration (the backend name must be registered)
// and returns a stopped server.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	known := false
	for _, n := range backend.Names() {
		if n == cfg.Backend {
			known = true
			break
		}
	}
	if !known {
		return nil, fmt.Errorf("server: unknown backend %q (have %v)", cfg.Backend, backend.Names())
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		m:         newMetrics(),
		runCtx:    ctx,
		runCancel: cancel,
		queue:     make(chan *job, cfg.QueueBound),
		conns:     map[*conn]struct{}{},
		sessions:  map[uint32]*session{},
		streams:   map[streamKey]uint32{},
	}
	if _, err := rand.Read(s.resumeSecret[:]); err != nil {
		cancel()
		return nil, fmt.Errorf("server: resumption secret: %w", err)
	}
	s.tc = transcipher.New(transcipher.Config{
		Workers:        cfg.TranscipherWorkers,
		Queue:          cfg.TranscipherQueue,
		Budget:         cfg.TranscipherBudget,
		CacheBlocks:    cfg.TranscipherCacheBlocks,
		MaxUploadBytes: cfg.MaxEvalKeysBytes,
	})
	return s, nil
}

// Backend returns the substrate name sessions run on.
func (s *Server) Backend() string { return s.cfg.Backend }

// Addr returns the bound listen address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// SessionCount returns the number of live sessions (for tests and ops).
func (s *Server) SessionCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sessions)
}

// ListenAndServe binds addr and serves until Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve starts the worker pool and accepts connections on ln until the
// listener fails or Shutdown closes it; a clean shutdown returns nil.
// With Config.TLS set, ln is wrapped in a TLS listener here, so both
// Serve and ListenAndServe speak TLS without double-wrapping.
func (s *Server) Serve(ln net.Listener) error {
	if s.cfg.TLS != nil {
		ln = tls.NewListener(ln, s.cfg.TLS)
	}
	s.mu.Lock()
	if s.serving || s.shutdown {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("server: already served or shut down")
	}
	s.serving = true
	s.ln = ln
	for i := 0; i < s.cfg.Workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	s.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopped := s.shutdown
			s.mu.Unlock()
			if stopped {
				return nil
			}
			return err
		}
		c := newConn(s, nc)
		s.mu.Lock()
		if s.shutdown {
			s.mu.Unlock()
			nc.Close()
			return nil
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.m.connsTotal.Inc()
		s.m.connsActive.Set(int64(s.connCount()))
		s.connWG.Add(1)
		go func() {
			defer s.connWG.Done()
			c.serve()
		}()
	}
}

func (s *Server) connCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Shutdown gracefully stops the server: it closes the listener, rejects
// new work with ErrShuttingDown, drains the scheduler queue, then closes
// connections and session backends. If ctx expires first, in-flight
// backend work is cancelled and connections are torn down immediately;
// ctx.Err() is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.shutdown {
		s.mu.Unlock()
		return nil
	}
	s.shutdown = true
	ln := s.ln
	s.mu.Unlock()

	if ln != nil {
		ln.Close()
	}

	// Stop admitting work, then close the queue so idle workers exit.
	// Submitters hold qmu.RLock while sending, so the close cannot race
	// an in-flight send.
	s.qmu.Lock()
	s.draining = true
	close(s.queue)
	s.qmu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.workerWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.runCancel() // abort in-flight backend work
		<-drained
	}

	// Drain the transcipher tier while connections are still up, so
	// in-flight circuit evaluations can deliver their replies.
	s.tc.Close()

	// Queue is drained; now tear down connections and sessions.
	s.mu.Lock()
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.close()
	}
	s.connWG.Wait()
	s.runCancel()
	return err
}

// submit enqueues a job without blocking. A full queue is backpressure:
// the caller gets ErrOverloaded and the client a Retry-After hint.
func (s *Server) submit(j *job) error {
	s.qmu.RLock()
	defer s.qmu.RUnlock()
	if s.draining {
		return ErrShuttingDown
	}
	select {
	case s.queue <- j:
		s.m.queueDepth.Set(s.depth.Add(1))
		return nil
	default:
		return ErrOverloaded
	}
}

// retryAfter is the delay hint attached to overload rejections: the
// configured floor, or the last observed request latency scaled by the
// queue bound when that is larger — a crude but self-adjusting estimate
// of when a queue slot will be free.
func (s *Server) retryAfter() time.Duration {
	hint := s.cfg.RetryAfter
	if last := time.Duration(s.latencyNS.Load()); last > 0 {
		if est := last * 2; est > hint {
			hint = est
		}
	}
	return hint
}

func (s *Server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		s.m.queueDepth.Set(s.depth.Add(-1))
		s.run(j)
	}
}

// run executes one job. The per-request deadline is enforced at
// dequeue: a job that aged out in the queue is failed without touching
// the backend (a per-job context.WithDeadline here used to cost two
// allocations and a timer per request; queue residency is where the
// budget is actually spent, and in-flight backend work stays bounded by
// runCtx plus the substrate's own block-granular cancellation checks).
func (s *Server) run(j *job) {
	defer putJob(j)
	sess := j.sess
	if time.Since(j.enq) > s.cfg.RequestTimeout {
		switch j.kind {
		case jobFlush:
			sess.expireFlush(context.DeadlineExceeded)
		default:
			j.conn.sendJobError(sess, j.id, context.DeadlineExceeded)
		}
		s.observeLatency(j.enq)
		return
	}

	// Replies go to j.conn, the connection that admitted the request: a
	// session that detached and resumed elsewhere mid-flight must not
	// leak a stale reply into the new connection's request-id space.
	switch j.kind {
	case jobFlush:
		sess.runFlush(s.runCtx)
	case jobEncrypt:
		sess.dispatch.Inc()
		j.ct = resizeVec(j.ct, len(j.msg))
		if err := encryptInto(s.runCtx, sess.cipher, j.ct, j.nonce, j.msg); err != nil {
			j.conn.sendJobError(sess, j.id, err)
		} else {
			j.conn.sendData(sess, j.id, 0, j.ct)
		}
	case jobKeystream:
		sess.dispatch.Inc()
		j.ct = resizeVec(j.ct, j.count*sess.t)
		if err := keystreamInto(s.runCtx, sess.cipher, j.ct, j.nonce, j.first, j.count); err != nil {
			j.conn.sendJobError(sess, j.id, err)
		} else {
			j.conn.sendData(sess, j.id, 0, j.ct)
		}
	}
	s.observeLatency(j.enq)
}

func (s *Server) observeLatency(enq time.Time) {
	lat := time.Since(enq)
	s.m.requestNS.Observe(lat.Nanoseconds())
	s.latencyNS.Store(lat.Nanoseconds())
}

// encryptInto dispatches to the cipher's allocation-free path when it
// has one; wrapped ciphers that don't forward backend.IntoCipher fall
// back to the allocating method.
func encryptInto(ctx context.Context, cipher backend.BlockCipher, dst ff.Vec, nonce uint64, msg ff.Vec) error {
	if ic, ok := cipher.(backend.IntoCipher); ok {
		return ic.EncryptInto(ctx, dst, nonce, msg)
	}
	ct, err := cipher.Encrypt(ctx, nonce, msg)
	if err != nil {
		return err
	}
	copy(dst, ct)
	return nil
}

// keystreamInto is the bulk-keystream analogue of encryptInto.
func keystreamInto(ctx context.Context, cipher backend.BlockCipher, dst ff.Vec, nonce, first uint64, count int) error {
	if ic, ok := cipher.(backend.IntoCipher); ok {
		return ic.KeyStreamBlocksInto(ctx, dst, nonce, first, count)
	}
	ks, err := cipher.KeyStreamBlocks(ctx, nonce, first, count)
	if err != nil {
		return err
	}
	copy(dst, ks)
	return nil
}

// addSession registers a freshly opened session, enforcing MaxSessions
// and rejecting (key, nonce) pairs already bound to a live session —
// two sessions on one streamKey would derive identical keystream. The
// check and the insert happen under one lock, so concurrent opens of
// the same pair cannot both succeed.
func (s *Server) addSession(sess *session) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.shutdown {
		return ErrShuttingDown
	}
	if len(s.sessions) >= s.cfg.MaxSessions {
		return ErrOverloaded
	}
	// Keyless (transcipher-only) sessions derive no keystream, so the
	// two-time-pad registry does not apply to them.
	key := streamKey{fp: sess.keyFP, nonce: sess.nonce}
	if !sess.keyless {
		if owner, dup := s.streams[key]; dup {
			s.m.rejectedDupNonce.Inc()
			return fmt.Errorf("%w (session %d)", ErrDuplicateNonce, owner)
		}
	}
	s.nextSess++
	sess.id = s.nextSess
	s.sessions[sess.id] = sess
	if !sess.keyless {
		s.streams[key] = sess.id
	}
	s.m.sessionsTotal.Inc()
	s.m.sessionsActive.Set(int64(len(s.sessions)))
	return nil
}

// dropSession removes a session from the server and stream-registry
// tables (the session's own close handles cipher teardown).
func (s *Server) dropSession(sess *session) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.sessions[sess.id]; ok {
		delete(s.sessions, sess.id)
		key := streamKey{fp: sess.keyFP, nonce: sess.nonce}
		if !sess.keyless && s.streams[key] == sess.id {
			delete(s.streams, key)
		}
		s.m.sessionsActive.Set(int64(len(s.sessions)))
	}
}

// dropConn removes a closed connection from the server table.
func (s *Server) dropConn(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	n := len(s.conns)
	s.mu.Unlock()
	s.m.connsActive.Set(int64(n))
}
