package backend

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cipher/ciphertest"
	"repro/internal/ff"
)

// TestDummyCipherSoftwareOnly pins the registry's extensibility
// acceptance criterion: registering a cipher family from outside this
// package — ciphertest's init, with no backend edits — is enough for it
// to (a) open on the software backend and join the conformance/
// differential matrix, (b) be refused by the hardware substrates with
// ErrUnsupported, and (c) appear in the dynamic cipher listing of
// unknown-cipher errors. The import runs the init before every test in
// this package, so the matrix suites in conformance_test.go and
// differential_test.go exercise "dummy" automatically.
func TestDummyCipherSoftwareOnly(t *testing.T) {
	// Software opens it and streams deterministically.
	b, err := Open(NameSoftware, Config{Cipher: ciphertest.Name, KeySeed: "x"})
	if err != nil {
		t.Fatalf("software refused the registered dummy cipher: %v", err)
	}
	defer b.Close()
	if b.Scheme() != ciphertest.Name || b.BlockSize() != ciphertest.Block {
		t.Fatalf("identity wrong: scheme %q block %d", b.Scheme(), b.BlockSize())
	}
	a := ff.NewVec(ciphertest.Block)
	c := ff.NewVec(ciphertest.Block)
	ctx := context.Background()
	if err := b.KeyStreamInto(ctx, a, 3, 4); err != nil {
		t.Fatal(err)
	}
	if err := b.KeyStreamInto(ctx, c, 3, 4); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(c) {
		t.Fatal("dummy keystream not deterministic")
	}

	// The hardware substrates refuse it via the capability-probe
	// default (software-only), with no dummy-specific code anywhere.
	for _, bn := range []string{NameAccel, NameSoC} {
		_, err := Open(bn, Config{Cipher: ciphertest.Name, KeySeed: "x"})
		if !errors.Is(err, ErrUnsupported) {
			t.Fatalf("%s accepted the software-only dummy cipher: %v", bn, err)
		}
	}

	// The dynamic unknown-cipher listing includes it.
	_, err = Open(NameSoftware, Config{Cipher: "no-such", KeySeed: "x"})
	if err == nil || !strings.Contains(err.Error(), ciphertest.Name) {
		t.Fatalf("unknown-cipher error does not list the dummy cipher: %v", err)
	}
}
