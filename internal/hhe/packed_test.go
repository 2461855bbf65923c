package hhe

import (
	"testing"

	"repro/internal/ff"
	"repro/internal/pasta"
)

func packedSetup(t *testing.T, size, rounds int) (*Client, *PackedServer, Params) {
	t.Helper()
	par, err := NewToyParams(size, rounds)
	if err != nil {
		t.Fatal(err)
	}
	key := pasta.KeyFromSeed(par.Pasta, "packed-test")
	client, err := NewClient(par, key, []byte{9})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := client.PackedEvalKeys()
	if err != nil {
		t.Fatal(err)
	}
	server, err := NewPackedServer(par, client.Context(), keys)
	if err != nil {
		t.Fatal(err)
	}
	return client, server, par
}

// TestPackedKeystreamMatchesPlain is the core HHE correctness property:
// the packed (diagonal-method, rotation-based) evaluation must reproduce
// the plain PASTA keystream exactly.
func TestPackedKeystreamMatchesPlain(t *testing.T) {
	for _, tc := range []struct {
		size, rounds int
		nonce, block uint64
	}{
		{size: 4, rounds: 2, nonce: 5, block: 0},
		{size: 2, rounds: 2, nonce: 7, block: 3},
	} {
		client, server, par := packedSetup(t, tc.size, tc.rounds)
		ct, err := server.EvalKeystream(tc.nonce, tc.block)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.DecryptPacked(ct, par.Pasta.T)
		if err != nil {
			t.Fatal(err)
		}
		cipher, _ := pasta.NewCipher(par.Pasta, pasta.KeyFromSeed(par.Pasta, "packed-test"))
		if want := cipher.KeyStream(tc.nonce, tc.block); !got.Equal(want) {
			t.Fatalf("t=%d: packed keystream %v != plain %v", tc.size, got, want)
		}
	}
}

// TestPackedTranscipherEndToEnd: Fig. 1's full round trip — client PASTA
// encryption, server homomorphic decryption, client FHE decryption.
func TestPackedTranscipherEndToEnd(t *testing.T) {
	client, server, _ := packedSetup(t, 4, 2)
	msg := ff.Vec{111, 22222, 3, 65000}
	symCt, err := client.EncryptBlock(8, 0, msg)
	if err != nil {
		t.Fatal(err)
	}
	fheCt, err := server.Transcipher(8, 0, symCt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := client.DecryptPacked(fheCt, len(msg))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(msg) {
		t.Fatalf("packed transcipher %v != %v", got, msg)
	}
}

// TestTranscipherMultipleBlocks: block counters separate keystreams, so
// each block of one nonce transciphers only under its own counter, and a
// short final block pads cleanly.
func TestTranscipherMultipleBlocks(t *testing.T) {
	client, server, _ := packedSetup(t, 2, 1)
	for _, tc := range []struct {
		block uint64
		msg   ff.Vec
	}{
		{0, ff.Vec{1000, 2000}},
		{1, ff.Vec{3000, 4000}},
		{2, ff.Vec{5000}},
	} {
		symCt, err := client.EncryptBlock(9, tc.block, tc.msg)
		if err != nil {
			t.Fatal(err)
		}
		fheCt, err := server.Transcipher(9, tc.block, symCt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := client.DecryptPacked(fheCt, len(tc.msg))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(tc.msg) {
			t.Fatalf("block %d: %v != %v", tc.block, got, tc.msg)
		}
		// The same ciphertext under a neighbouring counter must not
		// decrypt to the message.
		wrong, err := server.Transcipher(9, tc.block+1, symCt)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := client.DecryptPacked(wrong, len(tc.msg)); got.Equal(tc.msg) {
			t.Fatalf("block %d also decrypts under counter %d", tc.block, tc.block+1)
		}
	}
}

// TestServerComputesOnTransciphered: after transciphering, the server can
// keep computing homomorphically (add two encrypted messages slot-wise).
func TestServerComputesOnTransciphered(t *testing.T) {
	client, server, par := packedSetup(t, 2, 1)
	m1 := ff.Vec{11, 22}
	m2 := ff.Vec{100, 65000}
	ct1, err := client.EncryptBlock(1, 0, m1)
	if err != nil {
		t.Fatal(err)
	}
	ct2, err := client.EncryptBlock(1, 1, m2)
	if err != nil {
		t.Fatal(err)
	}
	f1, err := server.Transcipher(1, 0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := server.Transcipher(1, 1, ct2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := client.DecryptPacked(server.Context().Add(f1, f2), 2)
	if err != nil {
		t.Fatal(err)
	}
	mod := par.Pasta.Mod
	if want := (ff.Vec{mod.Add(m1[0], m2[0]), mod.Add(m1[1], m2[1])}); !res.Equal(want) {
		t.Fatalf("homomorphic sum %v != %v", res, want)
	}
}

// TestValidation covers parameter and client-side input checks.
func TestValidation(t *testing.T) {
	par, err := NewToyParams(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(par, pasta.KeyFromSeed(par.Pasta, "v"), []byte{1})
	if err != nil {
		t.Fatal(err)
	}
	mismatch := par
	mismatch.BFV.T = 97
	p := par.Pasta.Mod.P()
	for _, tc := range []struct {
		name string
		err  func() error
	}{
		{"zero block size", func() error { _, err := NewToyParams(0, 1); return err }},
		{"modulus mismatch", mismatch.Validate},
		{"client on mismatched moduli", func() error {
			_, err := NewClient(mismatch, pasta.KeyFromSeed(par.Pasta, "v"), []byte{1})
			return err
		}},
		{"short key", func() error {
			_, err := NewClient(par, pasta.Key(ff.NewVec(1)), []byte{1})
			return err
		}},
		{"oversized block", func() error {
			_, err := client.EncryptBlock(0, 0, ff.NewVec(par.Pasta.T+1))
			return err
		}},
		{"out-of-range element", func() error {
			_, err := client.EncryptBlock(0, 0, ff.Vec{1, p})
			return err
		}},
	} {
		if tc.err() == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}

// TestPackedValidation covers the server-side input checks.
func TestPackedValidation(t *testing.T) {
	client, server, par := packedSetup(t, 2, 1)
	keys, err := client.PackedEvalKeys()
	if err != nil {
		t.Fatal(err)
	}
	ks, err := server.EvalKeystream(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	mismatch := par
	mismatch.BFV.T = 97
	oversized := ff.NewVec(par.Pasta.T + 1)
	for _, tc := range []struct {
		name string
		err  func() error
	}{
		{"server on mismatched moduli", func() error {
			_, err := NewPackedServer(mismatch, client.Context(), keys)
			return err
		}},
		{"oversized block", func() error {
			_, err := server.Transcipher(0, 0, oversized)
			return err
		}},
		{"oversized block with cached keystream", func() error {
			_, err := server.TranscipherWith(ks, oversized)
			return err
		}},
	} {
		if tc.err() == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
}
