package bfv

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/rlwe"
)

// FuzzUnmarshalCiphertext feeds arbitrary blobs to the ciphertext parser
// on a fixed small context (N = 32, two 30-bit primes, so the
// range check sees residues above q). It must never panic, any blob
// it accepts must re-marshal byte-identically, and it must allocate no
// more than the largest ciphertext it would accept (degree 7) takes in
// memory, whatever length or header the blob claims.
func FuzzUnmarshalCiphertext(f *testing.F) {
	par, err := NewParams(32, 30, 2, 257)
	if err != nil {
		f.Fatal(err)
	}
	ctx, err := NewContext(par)
	if err != nil {
		f.Fatal(err)
	}
	g := rlwe.NewPRNG("fuzz-ct", []byte{3})
	sk, pk, _ := ctx.KeyGen(g)
	pt := ctx.NewPlaintext()
	for i := range pt {
		pt[i] = uint64(i) % par.T
	}
	fresh := ctx.Encrypt(pk, pt, g)
	blob, err := fresh.MarshalBinary(ctx)
	if err != nil {
		f.Fatal(err)
	}
	e0, e1, e2 := ctx.tensor(fresh, ctx.EncryptSymmetric(sk, pt, g))
	blob3, err := (&Ciphertext{C: []rlwe.RNSPoly{e0, e1, e2}}).MarshalBinary(ctx)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob3)
	f.Add(blob[:len(blob)-1])
	f.Add(append(append([]byte(nil), blob...), 0))
	f.Add(blob[:12])

	// Eight polynomials of Level limbs of N words, plus the slice headers
	// and the Ciphertext itself, with room for allocator rounding.
	limbs := ctx.RQ.Level()
	bound := uint64(2 * (8*(limbs*(8*par.N+24)+24) + 256))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ct, err := ctx.UnmarshalCiphertext(data)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > bound {
			t.Fatalf("parsing %d bytes allocated %d bytes (bound %d)", len(data), n, bound)
		}
		if err != nil {
			return
		}
		again, err := ct.MarshalBinary(ctx)
		if err != nil {
			t.Fatalf("accepted blob does not re-marshal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %d-byte blob re-marshals to %d different bytes", len(data), len(again))
		}
	})
}
