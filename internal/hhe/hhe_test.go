package hhe

import (
	"context"
	"testing"

	"repro/internal/backend"
	"repro/internal/bfv"
	"repro/internal/cipher"
	"repro/internal/ff"
	"repro/internal/pasta"
)

// TestEvalKeystreamMatchesPlain: on the t=2, R=2 instance, the keystream
// the server evaluates once per (nonce, block) decrypts to the plain PASTA
// keystream for every counter of the nonce.
func TestEvalKeystreamMatchesPlain(t *testing.T) {
	client, server, par := packedSetup(t, 2, 2)
	plain, _ := pasta.NewCipher(par.Pasta, pasta.KeyFromSeed(par.Pasta, "packed-test"))
	for block := uint64(0); block < 2; block++ {
		ct, err := server.EvalKeystream(7, block)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.DecryptPacked(ct, par.Pasta.T)
		if err != nil {
			t.Fatal(err)
		}
		if want := plain.KeyStream(7, block); !got.Equal(want) {
			t.Fatalf("block %d: homomorphic keystream %v != plain %v", block, got, want)
		}
	}
}

// TestEndToEndTranscipher: Fig. 1's round trip on the t=2, R=2 instance
// through the precomputed-keystream path the serving tier takes —
// EvalKeystream once, then TranscipherWith — which must agree with the
// one-shot Transcipher.
func TestEndToEndTranscipher(t *testing.T) {
	client, server, _ := packedSetup(t, 2, 2)
	msg := ff.Vec{12345, 54321}
	symCt, err := client.EncryptBlock(3, 0, msg)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := server.EvalKeystream(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	cached, err := server.TranscipherWith(ks, symCt)
	if err != nil {
		t.Fatal(err)
	}
	oneShot, err := server.Transcipher(3, 0, symCt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		path string
		ct   *bfv.Ciphertext
	}{
		{"TranscipherWith", cached},
		{"Transcipher", oneShot},
	} {
		got, err := client.DecryptPacked(tc.ct, len(msg))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(msg) {
			t.Fatalf("%s: transciphered message %v != original %v", tc.path, got, msg)
		}
	}
}

// TestClientPrecomputedKeystream: a block masked by hand with a keystream
// precomputed from the plain cipher equals the client's EncryptBlock, and
// the server transciphers it exactly as any other ciphertext.
func TestClientPrecomputedKeystream(t *testing.T) {
	client, server, par := packedSetup(t, 2, 1)
	plain, _ := pasta.NewCipher(par.Pasta, pasta.KeyFromSeed(par.Pasta, "packed-test"))
	mod := par.Pasta.Mod
	msg := ff.Vec{11, 22}
	const nonce, block = 6, 1

	ks := plain.KeyStream(nonce, block)
	masked := ff.NewVec(len(msg))
	for i := range msg {
		masked[i] = mod.Add(msg[i], ks[i])
	}
	direct, err := client.EncryptBlock(nonce, block, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !masked.Equal(direct) {
		t.Fatalf("precomputed-keystream mask %v differs from EncryptBlock %v", masked, direct)
	}
	back, err := plain.DecryptBlock(nonce, block, masked)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(msg) {
		t.Fatal("symmetric decrypt failed")
	}
	fheCt, err := server.Transcipher(nonce, block, masked)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := client.DecryptPacked(fheCt, len(msg)); err != nil || !got.Equal(msg) {
		t.Fatalf("transciphered precomputed block = %v (%v), want %v", got, err, msg)
	}
}

// TestClientOnAccelBackend: the symmetric side computed on the
// cycle-accurate accelerator model (same key, same toy instance) is
// bit-identical to the client's, transciphers to the message, and the
// backend accounts the work it modelled.
func TestClientOnAccelBackend(t *testing.T) {
	client, server, par := packedSetup(t, 2, 1)
	accel, err := backend.Open(backend.NameAccel, backend.Config{
		CipherParams: cipher.Params{T: par.Pasta.T, Rounds: par.Pasta.Rounds, Mod: par.Pasta.Mod},
		Key:          ff.Vec(pasta.KeyFromSeed(par.Pasta, "packed-test")),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer accel.Close()
	msg := ff.Vec{3, 1, 4, 1, 5} // three blocks, the last one short
	ctA, err := accel.Encrypt(context.Background(), 9, msg)
	if err != nil {
		t.Fatal(err)
	}
	tt := par.Pasta.T
	for block := 0; block*tt < len(msg); block++ {
		lo, hi := block*tt, min((block+1)*tt, len(msg))
		ctC, err := client.EncryptBlock(9, uint64(block), msg[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if !ctC.Equal(ctA[lo:hi]) {
			t.Fatalf("block %d: accelerator ciphertext %v differs from client %v", block, ctA[lo:hi], ctC)
		}
		fheCt, err := server.Transcipher(9, uint64(block), ctA[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if got, err := client.DecryptPacked(fheCt, hi-lo); err != nil || !got.Equal(msg[lo:hi]) {
			t.Fatalf("block %d: transciphered %v (%v), want %v", block, got, err, msg[lo:hi])
		}
	}
	if st := accel.Stats(); st.Backend != backend.NameAccel || st.Blocks != 3 || st.AccelCycles == 0 {
		t.Fatalf("accel backend did not account modelled work: %+v", st)
	}
}
