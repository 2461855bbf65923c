package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/ff"
	"repro/internal/pasta"
	"repro/internal/wire"
)

// startServer runs a server on a loopback listener and tears it down
// with the test. It returns the server and its dial address.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveDone; err != nil {
			t.Errorf("Serve returned %v after shutdown, want nil", err)
		}
	})
	return srv, ln.Addr().String()
}

// dialClient connects a protocol client and closes it with the test.
func dialClient(t *testing.T, addr string) *Client {
	t.Helper()
	c, err := Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	c.Timeout = 15 * time.Second
	t.Cleanup(func() { c.Close() })
	return c
}

// testKey derives a deterministic in-field key vector from a seed.
func testKey(n int, seed uint64, p uint64) []uint64 {
	key := make([]uint64, n)
	x := seed*2654435761 + 97
	for i := range key {
		x = x*6364136223846793005 + 1442695040888963407
		key[i] = x % p
	}
	return key
}

func testMsg(n int, seed uint64, p uint64) ff.Vec {
	return ff.Vec(testKey(n, seed^0xa5a5a5a5, p))
}

// pasta4Open is a standard PASTA-4 (t = 32, omega = 17) session open.
func pasta4Open(key []uint64, nonce uint64) wire.SessionOpen {
	return wire.SessionOpen{
		Variant: 4,
		Width:   17,
		Nonce:   nonce,
		Key:     key,
		EvalKey: []byte("opaque-fhe-key-registration-blob"),
	}
}

// toyOpen is a reduced PASTA instance (small t) for batching tests.
func toyOpen(t16 uint16, key []uint64, nonce uint64) wire.SessionOpen {
	return wire.SessionOpen{
		Variant: 3,
		Width:   17,
		Rounds:  1,
		T:       t16,
		Nonce:   nonce,
		Key:     key,
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func vecsEqual(a, b ff.Vec) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestE2EConcurrentSessions is the acceptance test: 32 concurrent client
// sessions against one server must produce ciphertext bit-identical to
// the sequential software-cipher oracle, on every execution backend.
func TestE2EConcurrentSessions(t *testing.T) {
	const (
		sessions  = 32
		keyCount  = 8
		msgLen    = 80 // 2.5 PASTA-4 blocks: exercises partial-block caching
		clientsN  = 8
		blockSize = 32
	)
	par, err := pasta.NewParams(pasta.Pasta4, ff.P17)
	if err != nil {
		t.Fatal(err)
	}
	p := par.Mod.P()

	// Sequential oracles: one software cipher per key. The serving tier
	// must match these bit for bit.
	oracles := make([]backend.BlockCipher, keyCount)
	keys := make([][]uint64, keyCount)
	for k := 0; k < keyCount; k++ {
		keys[k] = testKey(2*par.T, uint64(k)+1, p)
		oracles[k] = softwareOracle(t, par, keys[k])
	}

	for _, name := range []string{backend.NameSoftware, backend.NameAccel, backend.NameSoC} {
		t.Run(name, func(t *testing.T) {
			_, addr := startServer(t, Config{Backend: name, Workers: 8, QueueBound: 512})
			clients := make([]*Client, clientsN)
			for i := range clients {
				clients[i] = dialClient(t, addr)
			}

			var wg sync.WaitGroup
			errCh := make(chan error, sessions)
			for i := 0; i < sessions; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					if err := runSessionCheck(clients[i%clientsN], oracles[i%keyCount],
						keys[i%keyCount], uint64(1000+i), msgLen, blockSize); err != nil {
						errCh <- fmt.Errorf("session %d: %w", i, err)
					}
				}(i)
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
		})
	}
}

// runSessionCheck drives one session through the three request kinds and
// compares every response against the oracle.
func runSessionCheck(c *Client, oracle backend.BlockCipher, key []uint64, nonce uint64, msgLen, t int) error {
	sess, err := c.OpenSession(pasta4Open(key, nonce))
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	defer sess.Close()
	if sess.BlockSize != t {
		return fmt.Errorf("block size %d, want %d", sess.BlockSize, t)
	}
	p := sess.Modulus
	msg := testMsg(msgLen, nonce, p)

	// One-shot encrypt with a request-scoped nonce.
	ct, err := sess.Encrypt(nonce+7, msg)
	if err != nil {
		return fmt.Errorf("encrypt: %w", err)
	}
	want, err := oracle.Encrypt(context.Background(), nonce+7, msg)
	if err != nil {
		return fmt.Errorf("oracle encrypt: %w", err)
	}
	if !vecsEqual(ct, want) {
		return fmt.Errorf("encrypt mismatch vs oracle")
	}

	// Raw keystream fetch.
	ks, err := sess.Keystream(nonce+7, 0, 2)
	if err != nil {
		return fmt.Errorf("keystream: %w", err)
	}
	wantKS, err := oracle.KeyStreamBlocks(context.Background(), nonce+7, 0, 2)
	if err != nil {
		return fmt.Errorf("oracle keystream: %w", err)
	}
	if !vecsEqual(ks, wantKS) {
		return fmt.Errorf("keystream mismatch vs oracle")
	}

	// Chunked stream encryption: uneven chunks must concatenate to the
	// same ciphertext as one sequential encryption under the stream nonce.
	chunks := []ff.Vec{msg[:5], msg[5:16], msg[16:46], msg[46:]}
	cts, offsets, err := sess.EncryptChunks(chunks)
	if err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	var stream ff.Vec
	off := uint64(0)
	for i, chunk := range chunks {
		if offsets[i] != off {
			return fmt.Errorf("chunk %d at offset %d, want %d", i, offsets[i], off)
		}
		off += uint64(len(chunk))
		stream = append(stream, cts[i]...)
	}
	wantStream, err := oracle.Encrypt(context.Background(), nonce, msg)
	if err != nil {
		return fmt.Errorf("oracle stream: %w", err)
	}
	if !vecsEqual(stream, wantStream) {
		return fmt.Errorf("stream mismatch vs oracle")
	}
	return nil
}

// TestStreamBatchFlushOnFullBlock pins the full-block flush trigger: with
// an effectively infinite batch window, chunks that fill a keystream
// block must still flush immediately.
func TestStreamBatchFlushOnFullBlock(t *testing.T) {
	_, addr := startServer(t, Config{BatchWindow: time.Hour})
	c := dialClient(t, addr)
	c.Timeout = 5 * time.Second

	const blk = 4
	key := testKey(2*blk, 3, ff.P17.P())
	sess, err := c.OpenSession(toyOpen(blk, key, 42))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if sess.BlockSize != blk {
		t.Fatalf("block size %d, want %d", sess.BlockSize, blk)
	}
	msg := testMsg(2*blk, 9, sess.Modulus)

	// 1 + 3 elements = exactly one block; then 4 more = another block.
	// If the timer were the only trigger, these would hang for an hour.
	cts, offsets, err := sess.EncryptChunks([]ff.Vec{msg[:1], msg[1:4], msg[4:]})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	want := oracleEncrypt(t, blk, key, 42, msg)
	var got ff.Vec
	for _, ct := range cts {
		got = append(got, ct...)
	}
	if !vecsEqual(got, want) {
		t.Fatalf("stream ciphertext mismatch: got %v want %v (offsets %v)", got, want, offsets)
	}
}

// TestStreamBatchFlushOnDeadline pins the batch-window trigger: a chunk
// smaller than a block can only be flushed by the window timer.
func TestStreamBatchFlushOnDeadline(t *testing.T) {
	_, addr := startServer(t, Config{BatchWindow: 20 * time.Millisecond})
	c := dialClient(t, addr)
	c.Timeout = 5 * time.Second

	const blk = 8
	key := testKey(2*blk, 4, ff.P17.P())
	sess, err := c.OpenSession(toyOpen(blk, key, 43))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	msg := testMsg(3, 10, sess.Modulus)
	ct, off, err := sess.EncryptChunk(msg)
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if off != 0 {
		t.Fatalf("offset %d, want 0", off)
	}
	want := oracleEncrypt(t, blk, key, 43, msg)
	if !vecsEqual(ct, want) {
		t.Fatalf("deadline-flushed ciphertext mismatch: got %v want %v", ct, want)
	}

	// A second partial chunk continues the stream from offset 3 using the
	// cached partial-block keystream.
	msg2 := testMsg(2, 11, sess.Modulus)
	ct2, off2, err := sess.EncryptChunk(msg2)
	if err != nil {
		t.Fatalf("stream 2: %v", err)
	}
	if off2 != 3 {
		t.Fatalf("offset %d, want 3", off2)
	}
	full := append(msg.Clone(), msg2...)
	wantFull := oracleEncrypt(t, blk, key, 43, full)
	if !vecsEqual(ct2, wantFull[3:]) {
		t.Fatalf("continued stream mismatch: got %v want %v", ct2, wantFull[3:])
	}
}

// oracleEncrypt is the sequential reference for toy instances: the
// software cipher driven directly.
func oracleEncrypt(t *testing.T, blk int, key []uint64, nonce uint64, msg ff.Vec) ff.Vec {
	t.Helper()
	par, err := pasta.ToyParams(blk, 1, ff.P17)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := softwareOracle(t, par, key).Encrypt(context.Background(), nonce, msg)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// TestSessionEvictionOnDisconnect: killing the transport must evict every
// session the connection owns.
func TestSessionEvictionOnDisconnect(t *testing.T) {
	srv, addr := startServer(t, Config{})
	c := dialClient(t, addr)
	key := testKey(8, 5, ff.P17.P())
	for i := 0; i < 3; i++ {
		if _, err := c.OpenSession(toyOpen(4, key, uint64(i))); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	if n := srv.SessionCount(); n != 3 {
		t.Fatalf("SessionCount = %d, want 3", n)
	}
	c.Close() // abrupt: no SessionClose frames
	waitFor(t, 5*time.Second, "session eviction", func() bool {
		return srv.SessionCount() == 0
	})
}

// TestOverloadRejection: with one worker, a one-slot queue, and a slow
// backend, a flood must produce immediate typed overload rejections with
// retry hints — never hangs.
func TestOverloadRejection(t *testing.T) {
	registerSlowBackend(t)
	_, addr := startServer(t, Config{
		Backend: slowBackendName, Workers: 1, QueueBound: 1,
	})
	c := dialClient(t, addr)
	key := testKey(8, 6, ff.P17.P())
	sess, err := c.OpenSession(toyOpen(4, key, 1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	const flood = 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	var overloaded, ok int
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sess.Keystream(1, 0, 1)
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrOverloaded):
				overloaded++
				var re *RemoteError
				if !errors.As(err, &re) || re.RetryAfter <= 0 {
					t.Errorf("overload rejection without retry hint: %v", err)
				}
			default:
				t.Errorf("unexpected error under flood: %v", err)
			}
		}()
	}
	wg.Wait()
	if ok == 0 {
		t.Error("no request succeeded under flood")
	}
	if overloaded == 0 {
		t.Errorf("no overload rejection across %d requests (ok = %d)", flood, ok)
	}
}

// TestRateLimit: the per-session token bucket rejects requests beyond
// the element budget with a refill hint.
func TestRateLimit(t *testing.T) {
	_, addr := startServer(t, Config{RatePerSec: 8, RateBurst: 8})
	c := dialClient(t, addr)
	key := testKey(8, 7, ff.P17.P())
	sess, err := c.OpenSession(toyOpen(4, key, 1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	msg := testMsg(8, 12, sess.Modulus)
	if _, err := sess.Encrypt(1, msg); err != nil {
		t.Fatalf("first request should fit the burst: %v", err)
	}
	_, err = sess.Encrypt(2, msg)
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second request: got %v, want ErrRateLimited", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.RetryAfter <= 0 {
		t.Fatalf("rate rejection without retry hint: %v", err)
	}
	if retry, retryable := IsRetryable(err); !retryable || retry <= 0 {
		t.Fatalf("IsRetryable(%v) = %v, %v", err, retry, retryable)
	}
}

// TestSessionLimit: MaxSessions bounds the tenant table.
func TestSessionLimit(t *testing.T) {
	_, addr := startServer(t, Config{MaxSessions: 2})
	c := dialClient(t, addr)
	key := testKey(8, 8, ff.P17.P())
	for i := 0; i < 2; i++ {
		if _, err := c.OpenSession(toyOpen(4, key, uint64(i))); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	if _, err := c.OpenSession(toyOpen(4, key, 9)); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("third open: got %v, want ErrOverloaded", err)
	}
}

// TestBadRequestRejections: malformed and out-of-contract requests are
// answered (not dropped) and do not take the connection down.
func TestBadRequestRejections(t *testing.T) {
	_, addr := startServer(t, Config{MaxRequestElems: 16})
	c := dialClient(t, addr)
	key := testKey(8, 13, ff.P17.P())
	sess, err := c.OpenSession(toyOpen(4, key, 1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// Unknown session id.
	ghost := &Session{c: c, ID: sess.ID + 99, BlockSize: sess.BlockSize,
		Modulus: sess.Modulus, Bits: sess.Bits}
	var re *RemoteError
	if _, err := ghost.Encrypt(1, testMsg(4, 1, sess.Modulus)); !errors.As(err, &re) ||
		re.Code != wire.CodeUnknownSession {
		t.Fatalf("ghost session: got %v, want CodeUnknownSession", err)
	}

	// Oversized request.
	if _, err := sess.Encrypt(1, testMsg(17, 2, sess.Modulus)); !errors.As(err, &re) ||
		re.Code != wire.CodeBadRequest {
		t.Fatalf("oversized: got %v, want CodeBadRequest", err)
	}

	// Out-of-field element.
	bad := ff.Vec{sess.Modulus, 0, 1}
	if _, err := sess.Encrypt(1, bad); !errors.As(err, &re) ||
		re.Code != wire.CodeBadRequest {
		t.Fatalf("out-of-field: got %v, want CodeBadRequest", err)
	}

	// The connection survived all of it.
	if _, err := sess.Encrypt(3, testMsg(4, 3, sess.Modulus)); err != nil {
		t.Fatalf("connection should have survived bad requests: %v", err)
	}
}

// TestUnknownVariantAndBackend: session opens that cannot be served fail
// with typed errors but keep the connection usable.
func TestUnknownVariantAndBackend(t *testing.T) {
	if _, err := New(Config{Backend: "fpga-bridge"}); err == nil {
		t.Fatal("New accepted an unregistered backend")
	}
	_, addr := startServer(t, Config{})
	c := dialClient(t, addr)
	open := toyOpen(4, testKey(8, 14, ff.P17.P()), 1)
	open.Variant = 9
	if _, err := c.OpenSession(open); err == nil {
		t.Fatal("OpenSession accepted an unknown variant")
	}
	// Connection still works.
	if _, err := c.OpenSession(toyOpen(4, testKey(8, 14, ff.P17.P()), 1)); err != nil {
		t.Fatalf("open after rejected open: %v", err)
	}
}

// TestShutdownDrains: queued work completes (or is rejected, never
// dropped silently) across a graceful shutdown, and no goroutines leak.
func TestShutdownDrains(t *testing.T) {
	registerSlowBackend(t)
	baseline := runtime.NumGoroutine()

	srv, err := New(Config{Backend: slowBackendName, Workers: 1, QueueBound: 8})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(8, 15, ff.P17.P())
	sess, err := c.OpenSession(toyOpen(4, key, 1))
	if err != nil {
		t.Fatalf("open: %v", err)
	}

	// Queue several slow jobs, then shut down while they are in flight.
	const inflight = 4
	results := make(chan error, inflight)
	for i := 0; i < inflight; i++ {
		go func(i uint64) {
			_, err := sess.Keystream(1, i, 1)
			results <- err
		}(uint64(i))
	}
	time.Sleep(20 * time.Millisecond) // let the requests reach the queue

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve returned %v after shutdown, want nil", err)
	}
	for i := 0; i < inflight; i++ {
		err := <-results
		if err != nil && !errors.Is(err, ErrShuttingDown) && !errors.Is(err, ErrClosed) &&
			!errors.Is(err, ErrOverloaded) {
			t.Errorf("in-flight request: got %v, want success or a typed rejection", err)
		}
	}
	// New work is refused.
	if _, err := c.OpenSession(toyOpen(4, key, 2)); err == nil {
		t.Error("OpenSession succeeded after shutdown")
	}
	c.Close()

	// Goroutine-leak assertion: everything the server spawned is gone.
	waitFor(t, 5*time.Second, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// TestDoubleShutdownAndServeAfterShutdown: lifecycle misuse is inert.
func TestDoubleShutdownAndServeAfterShutdown(t *testing.T) {
	srv, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	waitFor(t, 2*time.Second, "listener", func() bool { return srv.Addr() != nil })
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(ln2); err == nil {
		t.Fatal("Serve accepted a listener after shutdown")
	}
}
