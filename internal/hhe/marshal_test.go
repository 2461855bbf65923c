package hhe

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"repro/internal/bfv"
	"repro/internal/ff"
	"repro/internal/pasta"
)

// TestEvalKeysBlobRoundTrip: marshal → unmarshal → re-marshal of the
// full eval-key blob must be bit-identical (the networked tier compares
// server replies byte-for-byte against a local oracle, so any encoding
// nondeterminism here would surface as spurious mismatches), and a
// server built from the unmarshaled material must evaluate the exact
// same circuit.
func TestEvalKeysBlobRoundTrip(t *testing.T) {
	client, local, par := packedSetup(t, 4, 2)
	// Marshal the exact key set the local oracle runs on: every call to
	// PackedEvalKeys (and so EvalKeysBlob) draws fresh encryption
	// randomness, producing a different-but-equivalent key set.
	blob, err := MarshalPackedEvalKeys(par.BFV, client.Context(), local.keys)
	if err != nil {
		t.Fatal(err)
	}
	bp, ctx, keys, err := UnmarshalPackedEvalKeys(blob)
	if err != nil {
		t.Fatal(err)
	}
	if bp.N != par.BFV.N || bp.T != par.BFV.T {
		t.Fatalf("unmarshaled params (N=%d, T=%d) != (N=%d, T=%d)", bp.N, bp.T, par.BFV.N, par.BFV.T)
	}
	again, err := MarshalPackedEvalKeys(bp, ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, again) {
		t.Fatalf("eval-key blob does not round-trip bit-identically (%d vs %d bytes)", len(blob), len(again))
	}

	remote, err := NewPackedServer(Params{Pasta: par.Pasta, BFV: bp}, ctx, keys)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.EvalKeystream(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.EvalKeystream(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := want.MarshalBinary(local.Context())
	if err != nil {
		t.Fatal(err)
	}
	gb, err := got.MarshalBinary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb, gb) {
		t.Fatal("server rebuilt from unmarshaled keys evaluates a different circuit")
	}
}

// TestEvalKeysBlobSeeded: two clients built from the same key and seed
// upload byte-identical eval-key blobs, so a seeded enrollment (tests,
// golden replies, the load harness) is reproducible run to run.
func TestEvalKeysBlobSeeded(t *testing.T) {
	par, err := NewToyParams(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	key := pasta.KeyFromSeed(par.Pasta, "blob-seeded")
	blob := func() []byte {
		client, err := NewClient(par, key, []byte{7})
		if err != nil {
			t.Fatal(err)
		}
		b, err := client.EvalKeysBlob()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := blob(), blob()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different eval-key blobs (%d and %d bytes)", len(a), len(b))
	}
}

// TestEvalKeysBlobRejectsCorruption: truncations and magic damage must
// error, never panic.
func TestEvalKeysBlobRejectsCorruption(t *testing.T) {
	client, _, _ := packedSetup(t, 2, 1)
	blob, err := client.EvalKeysBlob()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, 4, 7, len(blob) / 2, len(blob) - 1} {
		if _, _, _, err := UnmarshalPackedEvalKeys(blob[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	bad := append([]byte(nil), blob...)
	bad[0] ^= 0xff
	if _, _, _, err := UnmarshalPackedEvalKeys(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	long := append(append([]byte(nil), blob...), 0)
	if _, _, _, err := UnmarshalPackedEvalKeys(long); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

// TestNoiseBudgetPositiveAfterPackedCircuit: after the full packed
// transcipher circuit at toy parameters the result must keep at least a
// pinned noise budget, per shape: t = 16, R = 2 is the shape the
// transciphering tier serves. Each floor sits a few bits under the
// measured budget (40 bits at t = 4; 32 at t = 16), so a change that eats
// into it fails here; such a change moves the pin and says why.
func TestNoiseBudgetPositiveAfterPackedCircuit(t *testing.T) {
	for _, tc := range []struct {
		size, rounds, floor int
	}{
		{4, 2, 37},
		{16, 2, 30},
	} {
		t.Run(fmt.Sprintf("t=%d/R=%d", tc.size, tc.rounds), func(t *testing.T) {
			client, server, _ := packedSetup(t, tc.size, tc.rounds)
			msg := make(ff.Vec, tc.size)
			for i := range msg {
				msg[i] = uint64(i + 1)
			}
			symCt, err := client.EncryptBlock(9, 0, msg)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := server.Transcipher(9, 0, symCt)
			if err != nil {
				t.Fatal(err)
			}
			budget, err := client.PackedNoiseBudget(ct, msg)
			if err != nil {
				t.Fatal(err)
			}
			if budget < tc.floor {
				t.Fatalf("noise budget after packed circuit: %d bits, floor %d", budget, tc.floor)
			}
			t.Logf("post-transcipher noise budget: %d bits (floor %d)", budget, tc.floor)
		})
	}
}

// TestNoiseBudgetProductionParams evaluates the packed circuit at the
// paper's PASTA-3 (t=128, 3 rounds) and PASTA-4 (t=32, 4 rounds)
// shapes over p = 2^16+1 and asserts the decryption noise budget stays
// positive. The textbook BFV here is orders of magnitude slower than a
// production library, so the run is opt-in: HHE_HEAVY_TESTS=1. (The BFV
// ring degrees are sized for circuit depth, not 128-bit security — the
// assertion is about noise accounting, not parameter security.)
func TestNoiseBudgetProductionParams(t *testing.T) {
	if os.Getenv("HHE_HEAVY_TESTS") == "" {
		t.Skip("production-parameter circuit is minutes of CPU; set HHE_HEAVY_TESTS=1 to run")
	}
	cases := []struct {
		name    string
		variant pasta.Variant
		n, nQ   int
	}{
		{"PASTA-4", pasta.Pasta4, 512, 8},
		{"PASTA-3", pasta.Pasta3, 1024, 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pp, err := pasta.NewParams(tc.variant, ff.P17)
			if err != nil {
				t.Fatal(err)
			}
			bp, err := bfv.NewParams(tc.n, 55, tc.nQ, pp.Mod.P())
			if err != nil {
				t.Fatal(err)
			}
			par := Params{Pasta: pp, BFV: bp}
			key := pasta.KeyFromSeed(pp, "production-noise")
			client, err := NewClient(par, key, []byte{13})
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
			msg := make(ff.Vec, pp.T)
			for i := range msg {
				msg[i] = uint64(i * i % 65537)
			}
			symCt, err := client.EncryptBlock(1, 0, msg)
			if err != nil {
				t.Fatal(err)
			}
			ct, err := server.Transcipher(1, 0, symCt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := client.DecryptPacked(ct, pp.T)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(msg) {
				t.Fatal("production-parameter transcipher does not decrypt to the message")
			}
			budget, err := client.PackedNoiseBudget(ct, msg)
			if err != nil {
				t.Fatal(err)
			}
			if budget <= 0 {
				t.Fatalf("noise budget exhausted: %d bits", budget)
			}
			t.Logf("%s: post-transcipher noise budget %d bits", tc.name, budget)
		})
	}
}

// BenchmarkUnmarshalEvalKeys parses the eval-key blob of the shape the
// transciphering tier serves (t = 16, R = 2): the server-side cost of a
// session's enrollment.
func BenchmarkUnmarshalEvalKeys(b *testing.B) {
	par, err := NewToyParams(16, 2)
	if err != nil {
		b.Fatal(err)
	}
	client, err := NewClient(par, pasta.KeyFromSeed(par.Pasta, "bench-enroll"), []byte{4})
	if err != nil {
		b.Fatal(err)
	}
	blob, err := client.EvalKeysBlob()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(blob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := UnmarshalPackedEvalKeys(blob); err != nil {
			b.Fatal(err)
		}
	}
}
