package bfv

import (
	"testing"

	"repro/internal/rlwe"
)

func encoderContext(t *testing.T) (*Context, *Encoder, *SecretKey, *PublicKey, *RelinKey, *rlwe.PRNG) {
	t.Helper()
	par, err := NewParams(1024, 55, 3, 65537)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(par)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := NewEncoder(ctx)
	if err != nil {
		t.Fatal(err)
	}
	g := rlwe.NewPRNG("encoder-test", []byte{2})
	sk, pk, rlk := ctx.KeyGen(g)
	return ctx, enc, sk, pk, rlk, g
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	_, enc, _, _, _, _ := encoderContext(t)
	slots := make([]uint64, 1024)
	for i := range slots {
		slots[i] = uint64(i*i+5) % 65537
	}
	pt, err := enc.Encode(slots)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(pt)
	for i := range slots {
		if got[i] != slots[i] {
			t.Fatalf("slot %d: %d != %d", i, got[i], slots[i])
		}
	}
}

func TestEncodeRejectsOverflow(t *testing.T) {
	_, enc, _, _, _, _ := encoderContext(t)
	if _, err := enc.Encode(make([]uint64, 1025)); err == nil {
		t.Fatal("oversized slot vector accepted")
	}
}

// TestBatchedSIMDAdd: encrypted slot-wise addition.
func TestBatchedSIMDAdd(t *testing.T) {
	ctx, enc, sk, pk, _, g := encoderContext(t)
	a := []uint64{1, 2, 3, 4}
	b := []uint64{10, 20, 30, 40}
	pa, _ := enc.Encode(a)
	pb, _ := enc.Encode(b)
	ca := ctx.Encrypt(pk, pa, g)
	cb := ctx.Encrypt(pk, pb, g)
	sum := ctx.Add(ca, cb)
	got := enc.Decode(ctx.Decrypt(sum, sk))
	for i := range a {
		if got[i] != a[i]+b[i] {
			t.Fatalf("slot %d: %d", i, got[i])
		}
	}
}

// TestBatchedSIMDMul: Mul multiplies slot-wise under batching.
func TestBatchedSIMDMul(t *testing.T) {
	ctx, enc, sk, pk, rlk, g := encoderContext(t)
	a := []uint64{7, 100, 65536, 3}
	b := []uint64{3, 100, 2, 9}
	pa, _ := enc.Encode(a)
	pb, _ := enc.Encode(b)
	ca := ctx.Encrypt(pk, pa, g)
	cb := ctx.Encrypt(pk, pb, g)
	prod, err := ctx.Mul(ca, cb, rlk)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(ctx.Decrypt(prod, sk))
	for i := range a {
		want := a[i] * b[i] % 65537
		if got[i] != want {
			t.Fatalf("slot %d: %d != %d", i, got[i], want)
		}
	}
}

// TestMulPlainSlotwise: plaintext multiplication is slot-wise too.
func TestMulPlainSlotwise(t *testing.T) {
	ctx, enc, sk, pk, _, g := encoderContext(t)
	a := []uint64{5, 6, 7, 8}
	mask := []uint64{1, 0, 2, 0}
	pa, _ := enc.Encode(a)
	pm, _ := enc.Encode(mask)
	ca := ctx.Encrypt(pk, pa, g)
	out := ctx.MulPlain(ca, pm)
	got := enc.Decode(ctx.Decrypt(out, sk))
	want := []uint64{5, 0, 14, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: %d != %d", i, got[i], want[i])
		}
	}
}

// TestRotateColumns: slot s receives the value of slot s+k.
func TestRotateColumns(t *testing.T) {
	ctx, enc, sk, pk, _, g := encoderContext(t)
	gks := ctx.GenGaloisKeys(g, sk, []int{1, 2, 511})

	half := enc.Slots()
	slots := make([]uint64, 2*half)
	for i := range slots {
		slots[i] = uint64(i + 1)
	}
	pt, _ := enc.Encode(slots)
	ct := ctx.Encrypt(pk, pt, g)

	for _, k := range []int{1, 2} {
		rot, err := ctx.RotateColumns(ct, k, gks)
		if err != nil {
			t.Fatal(err)
		}
		got := enc.Decode(ctx.Decrypt(rot, sk))
		for s := 0; s < half; s++ {
			want := slots[(s+k)%half]
			if got[s] != want {
				t.Fatalf("k=%d row0 slot %d: %d != %d", k, s, got[s], want)
			}
			want = slots[half+(s+k)%half]
			if got[half+s] != want {
				t.Fatalf("k=%d row1 slot %d: %d != %d", k, s, got[half+s], want)
			}
		}
	}
}

func TestRotateColumnsNegativeStep(t *testing.T) {
	ctx, enc, sk, pk, _, g := encoderContext(t)
	gks := ctx.GenGaloisKeys(g, sk, []int{-1})
	half := enc.Slots()
	slots := make([]uint64, 2*half)
	for i := range slots {
		slots[i] = uint64(2*i + 3)
	}
	pt, _ := enc.Encode(slots)
	ct := ctx.Encrypt(pk, pt, g)
	rot, err := ctx.RotateColumns(ct, -1, gks)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(ctx.Decrypt(rot, sk))
	for s := 0; s < half; s++ {
		if got[s] != slots[(s+half-1)%half] {
			t.Fatalf("slot %d: %d", s, got[s])
		}
	}
}

func TestRotationRequiresKey(t *testing.T) {
	ctx, enc, sk, pk, _, g := encoderContext(t)
	gks := ctx.GenGaloisKeys(g, sk, []int{1})
	pt, _ := enc.Encode([]uint64{1})
	ct := ctx.Encrypt(pk, pt, g)
	if _, err := ctx.RotateColumns(ct, 7, gks); err == nil {
		t.Fatal("rotation without key succeeded")
	}
}

func TestRotateZeroIsIdentity(t *testing.T) {
	ctx, enc, sk, pk, _, g := encoderContext(t)
	gks := ctx.GenGaloisKeys(g, sk, nil)
	pt, _ := enc.Encode([]uint64{9, 8, 7})
	ct := ctx.Encrypt(pk, pt, g)
	rot, err := ctx.RotateColumns(ct, 0, gks)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(ctx.Decrypt(rot, sk))
	if got[0] != 9 || got[1] != 8 || got[2] != 7 {
		t.Fatalf("identity rotation changed slots: %v", got[:3])
	}
}

func TestEncodeReplicated(t *testing.T) {
	_, enc, _, _, _, _ := encoderContext(t)
	v := []uint64{4, 5, 6, 7}
	pt, err := enc.EncodeReplicated(v)
	if err != nil {
		t.Fatal(err)
	}
	slots := enc.Decode(pt)
	half := enc.Slots()
	for i := 0; i < half; i++ {
		if slots[i] != v[i%4] || slots[half+i] != v[i%4] {
			t.Fatalf("replication broken at %d", i)
		}
	}
	if _, err := enc.EncodeReplicated([]uint64{1, 2, 3}); err == nil {
		t.Fatal("non-dividing length accepted")
	}
}

// TestReplicatedRotationActsModT: with period-t replication, a rotation
// by k acts as rotation by k mod t on the logical vector — the property
// the packed matrix–vector method relies on.
func TestReplicatedRotationActsModT(t *testing.T) {
	ctx, enc, sk, pk, _, g := encoderContext(t)
	gks := ctx.GenGaloisKeys(g, sk, []int{1})
	v := []uint64{10, 20, 30, 40}
	pt, _ := enc.EncodeReplicated(v)
	ct := ctx.Encrypt(pk, pt, g)
	rot, err := ctx.RotateColumns(ct, 1, gks)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.DecodeReplicated(ctx.Decrypt(rot, sk), 4)
	want := []uint64{20, 30, 40, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("slot %d: %d != %d", i, got[i], want[i])
		}
	}
}

func TestCiphertextMarshalRoundTrip(t *testing.T) {
	ctx, enc, sk, pk, _, g := encoderContext(t)
	pt, _ := enc.Encode([]uint64{11, 22, 33})
	ct := ctx.Encrypt(pk, pt, g)
	blob, err := ct.MarshalBinary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) != ctx.CiphertextBytes() {
		t.Fatalf("blob = %d bytes, CiphertextBytes() = %d", len(blob), ctx.CiphertextBytes())
	}
	back, err := ctx.UnmarshalCiphertext(blob)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(ctx.Decrypt(back, sk))
	if got[0] != 11 || got[1] != 22 || got[2] != 33 {
		t.Fatalf("decoded %v", got[:3])
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	ctx, _, _, pk, _, g := encoderContext(t)
	if _, err := ctx.UnmarshalCiphertext([]byte{1, 2, 3}); err == nil {
		t.Fatal("short blob accepted")
	}
	ct := ctx.Encrypt(pk, ctx.EncodeScalar(1), g)
	blob, _ := ct.MarshalBinary(ctx)
	blob[0] ^= 0xFF
	if _, err := ctx.UnmarshalCiphertext(blob); err == nil {
		t.Fatal("bad magic accepted")
	}
	blob[0] ^= 0xFF
	if _, err := ctx.UnmarshalCiphertext(blob[:len(blob)-5]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	if _, err := ctx.UnmarshalCiphertext(append(blob, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestKeyMarshalRoundTrip(t *testing.T) {
	ctx, enc, sk, pk, rlk, g := encoderContext(t)

	rlkBlob, err := rlk.MarshalBinary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	rlk2, err := ctx.UnmarshalRelinKey(rlkBlob)
	if err != nil {
		t.Fatal(err)
	}

	// Multiply with the round-tripped rlk, decrypt with the original sk.
	pt, _ := enc.Encode([]uint64{123, 456})
	ct := ctx.Encrypt(pk, pt, g)
	prod, err := ctx.Mul(ct, ct, rlk2)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.Decode(ctx.Decrypt(prod, sk))
	if got[0] != 123*123%65537 || got[1] != 456*456%65537 {
		t.Fatalf("round-tripped keys broken: %v", got[:2])
	}

	if _, err := ctx.UnmarshalGaloisKeys(rlkBlob); err == nil {
		t.Fatal("rlk blob accepted as galois keys")
	}
}
