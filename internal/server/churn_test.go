package server

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"math/big"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/ff"
	"repro/internal/pasta"
)

// testTLSPair builds an in-memory loopback certificate: the server
// config serves it, the client config trusts it. No files — the PEM
// flag path is covered by cmd/hheserver's TestTLSSmoke.
func testTLSPair(t *testing.T) (serverCfg, clientCfg *tls.Config) {
	t.Helper()
	priv, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "server-churn-test"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(24 * time.Hour),
		KeyUsage:              x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		BasicConstraintsValid: true,
		IsCA:                  true,
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, &priv.PublicKey, priv)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(leaf)
	serverCfg = &tls.Config{
		Certificates: []tls.Certificate{{Certificate: [][]byte{der}, PrivateKey: priv, Leaf: leaf}},
		MinVersion:   tls.VersionTLS12,
	}
	return serverCfg, &tls.Config{RootCAs: pool}
}

// TestChurnReconnectStorm is the PR's acceptance test: a large
// population of short-lived sessions over TLS, every one interrupted
// mid-stream by an abrupt disconnect and resumed by token on a fresh
// connection — with replay probes woven through the storm — must
// produce ciphertext bit-identical to the sequential software-cipher oracle
// on both the software and accelerator backends.
func TestChurnReconnectStorm(t *testing.T) {
	total := 10000
	if raceEnabled {
		total = 1500
	}
	if testing.Short() {
		total = 300
	}
	const (
		keyCount = 8
		blk      = 4  // toy PASTA block: keeps 10k sessions affordable
		msgLen   = 12 // 6 elements before the disconnect, 6 after
		cut      = 6
		workers  = 16
		perConn  = 8 // sessions opened per connection in the storm
	)
	par, err := pasta.ToyParams(blk, 1, ff.P17)
	if err != nil {
		t.Fatal(err)
	}
	p := par.Mod.P()
	keys := make([][]uint64, keyCount)
	oracles := make([]backend.BlockCipher, keyCount)
	for k := range keys {
		keys[k] = testKey(2*blk, uint64(k)+31, p)
		oracles[k] = softwareOracle(t, par, keys[k])
	}
	baseline := runtime.NumGoroutine()

	for _, name := range []string{backend.NameSoftware, backend.NameAccel} {
		sessions := total
		if name == backend.NameAccel {
			sessions = total / 10 // the modelled accelerator is cycle-accurate, so slower
		}
		t.Run(fmt.Sprintf("%s/%d", name, sessions), func(t *testing.T) {
			serverTLS, clientTLS := testTLSPair(t)
			_, addr := startServer(t, Config{
				Backend:      name,
				TLS:          serverTLS,
				ResumeWindow: time.Minute,
				QueueBound:   1024,
			})

			var next atomic.Uint64
			var replaysCaught atomic.Uint64
			errCh := make(chan error, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						base := int(next.Add(perConn)) - perConn
						if base >= sessions {
							return
						}
						n := perConn
						if base+n > sessions {
							n = sessions - base
						}
						if err := churnBatch(addr, clientTLS, p, oracles, keys, base, n, cut, msgLen, &replaysCaught); err != nil {
							errCh <- fmt.Errorf("sessions %d..%d: %w", base, base+n-1, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Error(err)
			}
			if replaysCaught.Load() == 0 {
				t.Error("no replay probe was rejected during the storm")
			}
		})
	}

	// Everything the storm spawned — conns, parked-session timers,
	// outbox flushers — must be gone once the servers shut down.
	waitFor(t, 10*time.Second, "goroutines to drain after the storm", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+2
	})
}

// churnBatch drives n sessions through one reconnect cycle: open over
// TLS, stream the first part, lose the connection abruptly, resume by
// token on a new connection, stream the rest, and check the assembled
// ciphertext against the oracle.
func churnBatch(addr string, clientTLS *tls.Config, p uint64, oracles []backend.BlockCipher,
	keys [][]uint64, base, n, cut, msgLen int, replaysCaught *atomic.Uint64) error {
	type half struct {
		token []byte
		msg   ff.Vec
		want  ff.Vec
		ct    ff.Vec
		tail  uint64
	}
	states := make([]half, n)

	c, err := DialTLS(addr, clientTLS)
	if err != nil {
		return fmt.Errorf("dial: %w", err)
	}
	for i := 0; i < n; i++ {
		idx := base + i
		k := idx % len(keys)
		nonce := uint64(1000 + idx)
		st := &states[i]
		st.msg = testMsg(msgLen, nonce, p)
		if st.want, err = oracles[k].Encrypt(context.Background(), nonce, st.msg); err != nil {
			c.Close()
			return fmt.Errorf("oracle %d: %w", idx, err)
		}
		sess, err := c.OpenSession(toyOpen(4, keys[k], nonce))
		if err != nil {
			c.Close()
			return fmt.Errorf("open %d: %w", idx, err)
		}
		if len(sess.Token) == 0 {
			c.Close()
			return fmt.Errorf("open %d: no resumption token", idx)
		}
		ct, off, err := sess.EncryptChunk(st.msg[:cut])
		if err != nil {
			c.Close()
			return fmt.Errorf("part1 %d: %w", idx, err)
		}
		if off != 0 {
			c.Close()
			return fmt.Errorf("part1 %d at offset %d, want 0", idx, off)
		}
		st.ct = ct
		st.token = sess.Token
		st.tail = uint64(cut)
	}
	// The storm: drop the connection with every session mid-stream.
	c.Close()

	c2, err := DialTLS(addr, clientTLS)
	if err != nil {
		return fmt.Errorf("redial: %w", err)
	}
	defer c2.Close()
	for i := 0; i < n; i++ {
		idx := base + i
		st := &states[i]
		// The server parks the sessions asynchronously as it notices the
		// dead connection; until then the token is refused.
		var sess *Session
		deadline := time.Now().Add(15 * time.Second)
		for {
			sess, err = c2.ResumeSession(st.token)
			if err == nil || !errors.Is(err, ErrBadResume) || time.Now().After(deadline) {
				break
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err != nil {
			return fmt.Errorf("resume %d: %w", idx, err)
		}
		if sess.Tail != st.tail {
			return fmt.Errorf("resume %d: tail %d, want %d", idx, sess.Tail, st.tail)
		}
		if idx%16 == 0 {
			// Replay probe: reusing a consumed counter on the resumed
			// session must be rejected without disturbing the stream.
			mark := sess.ctr.Load()
			sess.ctr.Store(mark - 1)
			if _, _, err := sess.EncryptChunk(st.msg[:1]); !errors.Is(err, ErrReplay) {
				return fmt.Errorf("replay probe %d: got %v, want ErrReplay", idx, err)
			}
			sess.ctr.Store(mark)
			replaysCaught.Add(1)
		}
		ct, off, err := sess.EncryptChunk(st.msg[cut:])
		if err != nil {
			return fmt.Errorf("part2 %d: %w", idx, err)
		}
		if off != st.tail {
			return fmt.Errorf("part2 %d at offset %d, want %d", idx, off, st.tail)
		}
		got := append(st.ct.Clone(), ct...)
		if !vecsEqual(got, st.want) {
			return fmt.Errorf("session %d: ciphertext diverged from oracle across resume:\n got %v\nwant %v", idx, got, st.want)
		}
		if err := sess.Close(); err != nil {
			return fmt.Errorf("close %d: %w", idx, err)
		}
	}
	return nil
}
