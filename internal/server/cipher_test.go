package server

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/backend"
	"repro/internal/cipher"
	"repro/internal/ff"
	"repro/internal/wire"
)

// These tests pin the per-tenant cipher negotiation added in protocol
// version 3: sessions pick any registered cipher family per SessionOpen,
// rejections are typed per-request errors (the connection survives),
// and the duplicate-nonce registry distinguishes ciphers.

// openFor builds a SessionOpen for one registered cipher family on its
// family defaults (PASTA runs the reduced PASTA-4 instance), with a
// deterministic seeded key, and returns the open plus the resolved
// instance and key for oracle construction.
func openFor(t *testing.T, cipherName, seed string, nonce uint64) (wire.SessionOpen, cipher.Instance, ff.Vec) {
	t.Helper()
	spec, err := cipher.Open(cipherName)
	if err != nil {
		t.Fatalf("cipher.Open(%q): %v", cipherName, err)
	}
	p := cipher.Params{}
	var variant uint8
	if cipherName == "pasta" {
		p.Variant, variant = 4, 4
	}
	inst, err := spec.Resolve(p)
	if err != nil {
		t.Fatalf("resolve %q: %v", cipherName, err)
	}
	key := spec.KeyFromSeed(inst, seed)
	return wire.SessionOpen{
		Scheme:  cipherName,
		Variant: variant,
		Nonce:   nonce,
		Key:     append([]uint64(nil), key...),
	}, inst, key
}

// oracleKeystream computes want = KS[first, first+count) directly from
// the cipher family's software engine — independent of the backend and
// serving layers under test.
func oracleKeystream(t *testing.T, inst cipher.Instance, key ff.Vec, nonce, first uint64, count int) ff.Vec {
	t.Helper()
	eng, err := inst.Spec.NewEngine(inst, key)
	if err != nil {
		t.Fatal(err)
	}
	out := ff.NewVec(count * inst.Block)
	for b := 0; b < count; b++ {
		if err := eng.KeyStreamInto(out[b*inst.Block:(b+1)*inst.Block], nonce, first+uint64(b)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestMixedCipherSessions is the negotiation acceptance test: 32
// concurrent tenants interleaving PASTA, HERA, and MASTA sessions on
// one server, every response bit-identical to the tenant's own cipher
// oracle. One server, one backend, three keystream designs in flight at
// once.
func TestMixedCipherSessions(t *testing.T) {
	const sessions = 32
	families := []string{"pasta", "hera", "masta"}
	_, addr := startServer(t, Config{Workers: 8, QueueBound: 512})
	const clientsN = 4
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
			cn := families[i%len(families)]
			nonce := uint64(9000 + i)
			open, inst, key := openFor(t, cn, fmt.Sprintf("tenant-%d", i%6), nonce)
			sess, err := clients[i%clientsN].OpenSession(open)
			if err != nil {
				errCh <- fmt.Errorf("session %d (%s): open: %w", i, cn, err)
				return
			}
			defer sess.Close()
			if sess.Cipher != cn {
				errCh <- fmt.Errorf("session %d: ack echoed cipher %q, want %q", i, sess.Cipher, cn)
				return
			}
			if sess.BlockSize != inst.Block || sess.Modulus != inst.Mod.P() {
				errCh <- fmt.Errorf("session %d (%s): negotiated geometry %d/%d, want %d/%d",
					i, cn, sess.BlockSize, sess.Modulus, inst.Block, inst.Mod.P())
				return
			}

			// Raw keystream blocks against the family oracle.
			const first, count = 2, 3
			ks, err := sess.Keystream(nonce+1, first, count)
			if err != nil {
				errCh <- fmt.Errorf("session %d (%s): keystream: %w", i, cn, err)
				return
			}
			want := oracleKeystream(t, inst, key, nonce+1, first, count)
			if !vecsEqual(ks, want) {
				errCh <- fmt.Errorf("session %d (%s): keystream diverged from the %s oracle", i, cn, cn)
				return
			}

			// One-shot encrypt: additive masking over the oracle keystream,
			// with a partial last block.
			msg := testMsg(inst.Block+inst.Block/2, nonce, inst.Mod.P())
			ct, err := sess.Encrypt(nonce+7, msg)
			if err != nil {
				errCh <- fmt.Errorf("session %d (%s): encrypt: %w", i, cn, err)
				return
			}
			oks := oracleKeystream(t, inst, key, nonce+7, 0, 2)
			for j := range msg {
				if ct[j] != inst.Mod.Add(msg[j], oks[j]) {
					errCh <- fmt.Errorf("session %d (%s): ciphertext diverged at %d", i, cn, j)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestSameKeyNonceDifferentCiphers pins the cipher-aware duplicate-nonce
// registry: PASTA-4 and MASTA both use 64-element keys, so the same key
// words under the same nonce are representable in both families — but
// they derive different keystreams, so both sessions must be admitted.
// Only an exact (cipher, instance, key, nonce) collision is keystream
// reuse, and that one must still be refused.
func TestSameKeyNonceDifferentCiphers(t *testing.T) {
	_, addr := startServer(t, Config{})
	c := dialClient(t, addr)

	key := testKey(64, 77, ff.P17.P())
	const nonce = 4242
	pastaOpen := wire.SessionOpen{Scheme: "pasta", Variant: 4, Nonce: nonce,
		Key: append([]uint64(nil), key...)}
	mastaOpen := wire.SessionOpen{Scheme: "masta", Nonce: nonce,
		Key: append([]uint64(nil), key...)}

	s1, err := c.OpenSession(pastaOpen)
	if err != nil {
		t.Fatalf("pasta open: %v", err)
	}
	defer s1.Close()
	s2, err := c.OpenSession(mastaOpen)
	if err != nil {
		t.Fatalf("masta open with the same (key, nonce) was refused: %v", err)
	}
	defer s2.Close()

	// The true reuse hazard — same cipher, key, and nonce — stays refused.
	dup := wire.SessionOpen{Scheme: "masta", Nonce: nonce, Key: append([]uint64(nil), key...)}
	if _, err := c.OpenSession(dup); !errors.Is(err, ErrDuplicateNonce) {
		t.Fatalf("exact (cipher, key, nonce) duplicate: got %v, want ErrDuplicateNonce", err)
	}
}

// TestUnknownCipherNegotiation: an unregistered cipher name fails the
// open with the typed unknown-cipher wire code (no Retry-After, names
// listed) and the connection survives to negotiate a supported cipher —
// with no goroutine left behind by the failed opens.
func TestUnknownCipherNegotiation(t *testing.T) {
	srv, addr := startServer(t, Config{})
	baseline := servingBaseline(t, srv)
	c := dialClient(t, addr)

	key := testKey(8, 14, ff.P17.P())
	open := toyOpen(4, append([]uint64(nil), key...), 600)
	open.Scheme = "rasta"
	_, err := c.OpenSession(open)
	if err == nil {
		t.Fatal("OpenSession accepted an unregistered cipher")
	}
	if !errors.Is(err, ErrUnknownCipher) {
		t.Fatalf("unknown cipher: got %v, want ErrUnknownCipher", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("unknown cipher did not surface a RemoteError: %v", err)
	}
	if re.Code != wire.CodeUnknownCipher {
		t.Fatalf("wire code %d (%s), want %d (unknown-cipher)", re.Code, wire.CodeString(re.Code), wire.CodeUnknownCipher)
	}
	if re.RetryAfter != 0 {
		t.Fatalf("unknown cipher carried Retry-After %v; the rejection is permanent", re.RetryAfter)
	}
	for _, cn := range cipher.Names() {
		if !strings.Contains(re.Msg, cn) {
			t.Fatalf("rejection %q does not list registered cipher %q", re.Msg, cn)
		}
	}

	// Same connection, supported cipher: negotiation proceeds.
	sess, err := c.OpenSession(toyOpen(4, append([]uint64(nil), key...), 601))
	if err != nil {
		t.Fatalf("open after rejected cipher: %v", err)
	}
	sess.Close()
	c.Close()

	waitFor(t, 5*time.Second, "goroutines to drain after rejected opens", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline
	})
}

// servingBaseline waits until srv's Serve loop has started its worker
// pool and returns the goroutine count at that point, so a later drain
// check counts only what the test's own connections leave behind.
func servingBaseline(t *testing.T, srv *Server) int {
	t.Helper()
	waitFor(t, 5*time.Second, "server to start serving", func() bool { return srv.Addr() != nil })
	return runtime.NumGoroutine()
}

// TestSoftwareOnlyCipherOnSoCBackend: a registered cipher the configured
// substrate cannot run is a per-request unknown-cipher rejection without
// a Retry-After hint — the server config will not change on retry — and
// the connection stays usable for ciphers the substrate does support.
func TestSoftwareOnlyCipherOnSoCBackend(t *testing.T) {
	srv, addr := startServer(t, Config{Backend: backend.NameSoC})
	baseline := servingBaseline(t, srv)
	c := dialClient(t, addr)

	open, _, _ := openFor(t, "masta", "soc-tenant", 700)
	_, err := c.OpenSession(open)
	if err == nil {
		t.Fatal("soc server accepted the software-only masta cipher")
	}
	if !errors.Is(err, ErrUnknownCipher) {
		t.Fatalf("unsupported cipher on soc: got %v, want ErrUnknownCipher", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != wire.CodeUnknownCipher {
		t.Fatalf("unsupported cipher did not map to the unknown-cipher code: %v", err)
	}
	if re.RetryAfter != 0 {
		t.Fatalf("unsupported cipher carried Retry-After %v, want none", re.RetryAfter)
	}

	// PASTA runs on the SoC; the connection is still good.
	sess, err := c.OpenSession(pasta4Open(testKey(64, 31, ff.P17.P()), 701))
	if err != nil {
		t.Fatalf("pasta open on soc after masta rejection: %v", err)
	}
	sess.Close()
	c.Close()

	waitFor(t, 5*time.Second, "goroutines to drain after unsupported-cipher opens", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline
	})
}
