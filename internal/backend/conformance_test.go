package backend

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cipher"
	"repro/internal/cipher/ciphertest"
	"repro/internal/ff"
	"repro/internal/hw"
	"repro/internal/pasta"
)

// The conformance suite pins the backend contract over the full
// cipher × backend matrix: golden keystream vectors, bulk/into
// agreement, encrypt/decrypt roundtrips (including partial last
// blocks), typed errors for bad input, cancellation, and use-after-
// Close. Every cipher added to the cipher registry and every backend
// added to the backend registry joins the matrix automatically;
// unsupported pairs skip with the substrate's stated reason.

// goldenP4 pins KS(seed "golden", nonce 1, block 2)[:8] for PASTA-4 over
// P17 — the same normative vector as internal/pasta's golden test, now
// required from all three substrates.
var goldenP4 = ff.Vec{30202, 59975, 22068, 45713, 913, 23296, 29710, 30707}

// goldenFirst8 pins KS(seed "golden", nonce 1, block 2)[:8] per cipher
// under matrixConfig, so the whole matrix is anchored against silent
// keystream drift, not just PASTA. Ciphers without an entry (e.g. the
// test-local dummy) skip the golden check but still run the contract.
var goldenFirst8 = map[string]ff.Vec{
	"pasta": goldenP4,
	"hera":  {14791, 34797, 54512, 3871, 26126, 47996, 21789, 56855},
}

// matrixConfig returns the conformance Config for one cipher: seeded
// key, family defaults — except PASTA, which runs the reduced PASTA-4
// instance so the cycle-accurate substrates stay fast.
func matrixConfig(cipherName string) Config {
	cfg := Config{Cipher: cipherName, KeySeed: "golden"}
	if cipherName == pasta.CipherName {
		cfg.CipherParams.Variant = 4
	}
	return cfg
}

// forEachPair runs f once per (cipher, backend) pair as a subtest named
// "<cipher>/<backend>", opening the backend and skipping pairs the
// substrate reports as unsupported — with the reason in the skip text.
func forEachPair(t *testing.T, f func(t *testing.T, b BlockCipher, cipherName, backendName string)) {
	t.Helper()
	for _, cn := range cipher.Names() {
		for _, bn := range Names() {
			t.Run(cn+"/"+bn, func(t *testing.T) {
				b, err := Open(bn, matrixConfig(cn))
				if errors.Is(err, ErrUnsupported) {
					t.Skipf("unsupported pair: %v", err)
				}
				if err != nil {
					t.Fatalf("Open(%q, cipher %q): %v", bn, cn, err)
				}
				defer b.Close()
				f(t, b, cn, bn)
			})
		}
	}
}

func TestConformanceGoldenKeystream(t *testing.T) {
	forEachPair(t, func(t *testing.T, b BlockCipher, cn, bn string) {
		want, ok := goldenFirst8[cn]
		if !ok {
			t.Skipf("no golden vector pinned for cipher %q", cn)
		}
		dst := ff.NewVec(b.BlockSize())
		if err := b.KeyStreamInto(context.Background(), dst, 1, 2); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("golden keystream drifted at %d: got %v, want %v",
					i, dst[:8], want)
			}
		}
	})
}

func TestConformanceBulkMatchesSingle(t *testing.T) {
	forEachPair(t, func(t *testing.T, b BlockCipher, cn, bn string) {
		ctx := context.Background()
		const first, count = 3, 3
		bulk, err := b.KeyStreamBlocks(ctx, 9, first, count)
		if err != nil {
			t.Fatal(err)
		}
		if len(bulk) != count*b.BlockSize() {
			t.Fatalf("bulk keystream has %d elements, want %d", len(bulk), count*b.BlockSize())
		}
		single := ff.NewVec(b.BlockSize())
		for i := 0; i < count; i++ {
			if err := b.KeyStreamInto(ctx, single, 9, first+uint64(i)); err != nil {
				t.Fatal(err)
			}
			if !single.Equal(bulk[i*b.BlockSize() : (i+1)*b.BlockSize()]) {
				t.Fatalf("bulk block %d disagrees with KeyStreamInto", i)
			}
		}
	})
}

func TestConformanceRoundtrip(t *testing.T) {
	forEachPair(t, func(t *testing.T, b BlockCipher, cn, bn string) {
		ctx := context.Background()
		// A message with a partial last block.
		msg := ff.NewVec(b.BlockSize() + b.BlockSize()/2)
		for i := range msg {
			msg[i] = uint64(i*7+1) % b.Modulus().P()
		}
		ct, err := b.Encrypt(ctx, 4, msg)
		if err != nil {
			t.Fatal(err)
		}
		if ct.Equal(msg) {
			t.Fatal("ciphertext equals plaintext")
		}
		pt, err := b.Decrypt(ctx, 4, ct)
		if err != nil {
			t.Fatal(err)
		}
		if !pt.Equal(msg) {
			t.Fatalf("roundtrip failed: got %v, want %v", pt[:4], msg[:4])
		}
	})
}

// TestConformanceIntoCipher requires every registered substrate to
// implement the allocation-free IntoCipher extension and to produce
// output bit-identical to the allocating methods, including dst-length
// validation.
func TestConformanceIntoCipher(t *testing.T) {
	forEachPair(t, func(t *testing.T, b BlockCipher, cn, bn string) {
		ctx := context.Background()
		ic, ok := b.(IntoCipher)
		if !ok {
			t.Fatalf("backend %q does not implement IntoCipher", bn)
		}
		const first, count = 2, 3
		want, err := b.KeyStreamBlocks(ctx, 11, first, count)
		if err != nil {
			t.Fatal(err)
		}
		dst := ff.NewVec(count * b.BlockSize())
		if err := ic.KeyStreamBlocksInto(ctx, dst, 11, first, count); err != nil {
			t.Fatal(err)
		}
		if !dst.Equal(want) {
			t.Fatal("KeyStreamBlocksInto disagrees with KeyStreamBlocks")
		}
		if err := ic.KeyStreamBlocksInto(ctx, dst[:1], 11, first, count); err == nil {
			t.Fatal("KeyStreamBlocksInto accepted a short dst")
		}

		msg := ff.NewVec(b.BlockSize() + b.BlockSize()/2)
		for i := range msg {
			msg[i] = uint64(i*5+3) % b.Modulus().P()
		}
		wantCT, err := b.Encrypt(ctx, 6, msg)
		if err != nil {
			t.Fatal(err)
		}
		ct := ff.NewVec(len(msg))
		if err := ic.EncryptInto(ctx, ct, 6, msg); err != nil {
			t.Fatal(err)
		}
		if !ct.Equal(wantCT) {
			t.Fatal("EncryptInto disagrees with Encrypt")
		}
		if err := ic.EncryptInto(ctx, ct[:1], 6, msg); err == nil {
			t.Fatal("EncryptInto accepted a short dst")
		}
	})
}

func TestConformanceTypedErrors(t *testing.T) {
	forEachPair(t, func(t *testing.T, b BlockCipher, cn, bn string) {
		ctx := context.Background()

		// Wrong destination length.
		err := b.KeyStreamInto(ctx, ff.NewVec(b.BlockSize()+1), 0, 0)
		var be *Error
		if !errors.As(err, &be) || be.Backend != bn {
			t.Fatalf("bad-length error not a *backend.Error for %s: %v", bn, err)
		}

		// Out-of-range plaintext element.
		bad := ff.NewVec(2)
		bad[1] = b.Modulus().P()
		if _, err := b.Encrypt(ctx, 0, bad); err == nil {
			t.Fatal("Encrypt accepted an out-of-range element")
		}

		// Pre-cancelled context: typed error satisfying context.Canceled.
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		err = b.KeyStreamInto(cctx, ff.NewVec(b.BlockSize()), 0, 0)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled call did not surface context.Canceled: %v", err)
		}
		if !errors.As(err, &be) {
			t.Fatalf("cancelled call not wrapped in *backend.Error: %v", err)
		}
	})
}

func TestConformanceStatsAccumulate(t *testing.T) {
	forEachPair(t, func(t *testing.T, b BlockCipher, cn, bn string) {
		ctx := context.Background()
		before := b.Stats()
		if before.Backend != bn || before.Scheme != cn {
			t.Fatalf("stats identity wrong: %+v (want backend %q cipher %q)", before, bn, cn)
		}
		if _, err := b.KeyStreamBlocks(ctx, 0, 0, 2); err != nil {
			t.Fatal(err)
		}
		after := b.Stats()
		if after.Blocks-before.Blocks != 2 {
			t.Fatalf("blocks counter moved by %d, want 2", after.Blocks-before.Blocks)
		}
		if after.Elements-before.Elements != int64(2*b.BlockSize()) {
			t.Fatalf("elements counter moved by %d, want %d",
				after.Elements-before.Elements, 2*b.BlockSize())
		}
		if bn != NameSoftware && after.AccelCycles <= before.AccelCycles {
			t.Fatalf("%s did not account accelerator cycles", bn)
		}
		if bn == NameSoC && after.CoreCycles <= before.CoreCycles {
			t.Fatal("soc did not account core cycles")
		}
	})
}

func TestConformanceClose(t *testing.T) {
	forEachPair(t, func(t *testing.T, b BlockCipher, cn, bn string) {
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		err := b.KeyStreamInto(context.Background(), ff.NewVec(b.BlockSize()), 0, 0)
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("use after Close not ErrClosed: %v", err)
		}
		if _, err := b.Encrypt(context.Background(), 0, ff.NewVec(1)); !errors.Is(err, ErrClosed) {
			t.Fatalf("Encrypt after Close not ErrClosed: %v", err)
		}
	})
}

func TestOpenUnknownBackend(t *testing.T) {
	_, err := Open("fpga-bridge", Config{})
	if !errors.Is(err, ErrUnknownBackend) {
		t.Fatalf("want ErrUnknownBackend, got %v", err)
	}
}

// TestOpenUnknownCipher pins the registry-driven rejection: the typed
// cipher.ErrUnknownCipher stays matchable through the backend wrapper
// and the message lists the registered cipher names dynamically.
func TestOpenUnknownCipher(t *testing.T) {
	for _, bn := range Names() {
		_, err := Open(bn, Config{Cipher: "rasta", KeySeed: "x"})
		if !errors.Is(err, cipher.ErrUnknownCipher) {
			t.Fatalf("%s: want ErrUnknownCipher, got %v", bn, err)
		}
		if !errors.Is(err, ErrUnsupported) {
			t.Fatalf("%s: unknown cipher lost the ErrUnsupported wrap: %v", bn, err)
		}
		for _, cn := range cipher.Names() {
			if !strings.Contains(err.Error(), cn) {
				t.Fatalf("%s: error %q does not list registered cipher %q", bn, err, cn)
			}
		}
	}
}

func TestSoCUnsupportedConfigs(t *testing.T) {
	if _, err := Open(NameSoC, Config{Cipher: "hera", KeySeed: "x"}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("soc accepted hera: %v", err)
	}
	if _, err := Open(NameSoC, Config{Cipher: ciphertest.Name, KeySeed: "x"}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("soc accepted the software-only %s cipher: %v", ciphertest.Name, err)
	}
	if _, err := Open(NameSoC, Config{CipherParams: cipher.Params{Variant: 4}, Width: 54, KeySeed: "x"}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("soc accepted a 54-bit modulus on the 32-bit bus: %v", err)
	}
}

func TestAccelUnsupportedCipher(t *testing.T) {
	if _, err := Open(NameAccel, Config{Cipher: ciphertest.Name, KeySeed: "x"}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("accel accepted the software-only %s cipher: %v", ciphertest.Name, err)
	}
}

// TestWatchdogSurfacesTyped proves the accelerator watchdog abort stays
// reachable as *hw.ErrWatchdog through the backend's error wrapper.
func TestWatchdogSurfacesTyped(t *testing.T) {
	b, err := Open(NameAccel, Config{CipherParams: cipher.Params{Variant: 4}, KeySeed: "wd", WatchdogLimit: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	err = b.KeyStreamInto(context.Background(), ff.NewVec(b.BlockSize()), 0, 0)
	if err == nil {
		t.Fatal("a 10-cycle watchdog budget did not fire")
	}
	var wd *hw.ErrWatchdog
	if !errors.As(err, &wd) {
		t.Fatalf("watchdog abort not reachable via errors.As: %v", err)
	}
	if wd.Limit != 10 {
		t.Fatalf("watchdog limit = %d, want 10", wd.Limit)
	}
	var be *Error
	if !errors.As(err, &be) || be.Backend != NameAccel {
		t.Fatalf("watchdog abort not wrapped in *backend.Error: %v", err)
	}
}

// TestSoftwareZeroAlloc pins the steady-state allocation behaviour of
// the software path through the interface for every registered cipher:
// zero allocs per block, and for a multi-block EncryptInto fanned out
// over two workers only the second worker's goroutine start. This is
// part of the BlockEngine contract — engines must use pooled workspaces —
// and keeps a server's per-request garbage from growing with its request
// rate.
func TestSoftwareZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, cn := range cipher.Names() {
		t.Run(cn, func(t *testing.T) {
			cfg := matrixConfig(cn)
			cfg.Workers = 2
			b, err := Open(NameSoftware, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			ctx := context.Background()
			dst := ff.NewVec(b.BlockSize())
			// Warm the cipher's workspace pool.
			if err := b.KeyStreamInto(ctx, dst, 0, 0); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(50, func() {
				if err := b.KeyStreamInto(ctx, dst, 0, 1); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Fatalf("software %s KeyStreamInto allocates %.1f objects per block, want 0", cn, allocs)
			}
			ic := b.(IntoCipher)
			msg := ff.NewVec(4 * b.BlockSize())
			ct := ff.NewVec(len(msg))
			if err := ic.EncryptInto(ctx, ct, 0, msg); err != nil {
				t.Fatal(err)
			}
			allocs = testing.AllocsPerRun(50, func() {
				if err := ic.EncryptInto(ctx, ct, 1, msg); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Fatalf("software %s EncryptInto of 4 blocks on 2 workers allocates %.1f objects per call, want ≤ 1", cn, allocs)
			}
		})
	}
}
