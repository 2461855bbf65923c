package bfv

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/rlwe"
)

// TestGaloisKeysMarshalRoundTrip: marshal → unmarshal → re-marshal must
// be bit-identical (Galois elements are emitted in sorted order, so the
// encoding is canonical despite the map representation), and a rotation
// under the reconstructed keys must produce the exact ciphertext the
// original keys produce.
func TestGaloisKeysMarshalRoundTrip(t *testing.T) {
	par, err := NewParams(1024, 55, 3, 65537)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(par)
	if err != nil {
		t.Fatal(err)
	}
	g := rlwe.NewPRNG("gk-marshal", []byte{7})
	sk, pk, _ := ctx.KeyGen(g)
	gks := ctx.GenGaloisKeys(g, sk, []int{1, 2, 5})

	blob, err := gks.MarshalBinary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ctx.UnmarshalGaloisKeys(blob)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.MarshalBinary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatalf("galois-key blob does not round-trip bit-identically (%d vs %d bytes)", len(blob), len(again))
	}

	enc, err := NewEncoder(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v := make([]uint64, enc.Slots())
	for i := range v {
		v[i] = uint64(i % 65537)
	}
	pt, err := enc.Encode(v)
	if err != nil {
		t.Fatal(err)
	}
	ct := ctx.Encrypt(pk, pt, g)
	want, err := ctx.RotateColumns(ct, 2, gks)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ctx.RotateColumns(ct, 2, back)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.MarshalBinary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.MarshalBinary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatal("rotation under unmarshaled Galois keys diverges from the original keys")
	}
}

// TestGaloisKeysUnmarshalRejects: corruption must error, never panic.
func TestGaloisKeysUnmarshalRejects(t *testing.T) {
	par, err := NewParams(1024, 55, 3, 65537)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(par)
	if err != nil {
		t.Fatal(err)
	}
	g := rlwe.NewPRNG("gk-reject", []byte{8})
	sk, _, _ := ctx.KeyGen(g)
	gks := ctx.GenGaloisKeys(g, sk, []int{1})
	blob, err := gks.MarshalBinary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 4, 7, len(blob) / 3, len(blob) - 1} {
		if _, err := ctx.UnmarshalGaloisKeys(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	bad := append([]byte(nil), blob...)
	bad[1] ^= 0x40
	if _, err := ctx.UnmarshalGaloisKeys(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ctx.UnmarshalGaloisKeys(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestParamsMarshalRoundTrip: the parameter envelope reproduces every
// field exactly.
func TestParamsMarshalRoundTrip(t *testing.T) {
	par, err := NewParams(1024, 55, 4, 65537)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := par.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalParams(blob)
	if err != nil {
		t.Fatal(err)
	}
	if back.N != par.N || back.T != par.T || back.Eta != par.Eta || back.RelinBits != par.RelinBits {
		t.Fatalf("params round-trip mismatch: %+v != %+v", back, par)
	}
	if len(back.Qs) != len(par.Qs) || len(back.Ps) != len(par.Ps) {
		t.Fatalf("prime chains differ: %+v != %+v", back, par)
	}
	for i := range par.Qs {
		if back.Qs[i] != par.Qs[i] {
			t.Fatalf("Q[%d] %d != %d", i, back.Qs[i], par.Qs[i])
		}
	}
	for _, n := range []int{0, 3, 10, len(blob) - 1} {
		if _, err := UnmarshalParams(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
}

// servedContext builds the BFV shape the transciphering tier serves
// (N = 1024, four 55-bit primes, t = 65537) with seeded keys, so its
// objects marshal to fixed bytes.
func servedContext(tb testing.TB) (*Context, *SecretKey, *PublicKey, *RelinKey, *rlwe.PRNG) {
	tb.Helper()
	par, err := NewParams(1024, 55, 4, 65537)
	if err != nil {
		tb.Fatal(err)
	}
	ctx, err := NewContext(par)
	if err != nil {
		tb.Fatal(err)
	}
	g := rlwe.NewPRNG("marshal-golden", []byte{5})
	sk, pk, rlk := ctx.KeyGen(g)
	return ctx, sk, pk, rlk, g
}

// servedCiphertext encrypts a fixed full plaintext under pk.
func servedCiphertext(ctx *Context, pk *PublicKey, g *rlwe.PRNG) *Ciphertext {
	pt := ctx.NewPlaintext()
	for i := range pt {
		pt[i] = uint64(i*i+3) % ctx.Params.T
	}
	return ctx.Encrypt(pk, pt, g)
}

// TestMarshalGoldenHashes pins the serialized formats: the SHA-256 of a
// seeded ciphertext, relinearization key and Galois key set must match
// the recorded hashes, so any change to the bytes on the wire fails
// here.
func TestMarshalGoldenHashes(t *testing.T) {
	ctx, sk, pk, rlk, g := servedContext(t)
	ct := servedCiphertext(ctx, pk, g)
	gks := ctx.GenGaloisKeys(g, sk, []int{1, 2, 3})
	for _, tc := range []struct {
		name string
		m    interface {
			MarshalBinary(*Context) ([]byte, error)
		}
		want string
	}{
		{"ciphertext", ct, "677d7287d1e21de4af43b9456540c4fc75156cf50af9edb91c6a624db218772e"},
		{"relin-key", rlk, "c7a64f80e8ccf7374c805c0521ea54e5f67513e41ac5b4845e7969c75026c20e"},
		{"galois-keys", gks, "eb35ef0f13c03ae8fb504237d975b2a1c5ca5bd567227f244713377755b52fe0"},
	} {
		blob, err := tc.m.MarshalBinary(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(blob)); got != tc.want {
			t.Errorf("%s: %d bytes hash to %s, want %s", tc.name, len(blob), got, tc.want)
		}
	}
}

// BenchmarkCiphertextMarshal serializes one 56 KB ciphertext at the
// served shape.
func BenchmarkCiphertextMarshal(b *testing.B) {
	ctx, _, pk, _, g := servedContext(b)
	ct := servedCiphertext(ctx, pk, g)
	b.SetBytes(int64(ctx.CiphertextBytes()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ct.MarshalBinary(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCiphertextUnmarshal parses one 56 KB ciphertext at the
// served shape.
func BenchmarkCiphertextUnmarshal(b *testing.B) {
	ctx, _, pk, _, g := servedContext(b)
	blob, err := servedCiphertext(ctx, pk, g).MarshalBinary(ctx)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.UnmarshalCiphertext(blob); err != nil {
			b.Fatal(err)
		}
	}
}
