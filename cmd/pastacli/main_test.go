package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestEncryptDecryptFile(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.bin")
	ct := filepath.Join(dir, "ct.pasta")
	back := filepath.Join(dir, "back.bin")

	data := make([]byte, 1000)
	for i := range data {
		data[i] = byte(i * 31)
	}
	if err := os.WriteFile(plain, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run("enc", "pasta", "pasta4", "secret", 42, plain, ct, 2, "software", 1); err != nil {
		t.Fatal(err)
	}
	ctData, err := os.ReadFile(ct)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(ctData, data[:64]) {
		t.Fatal("ciphertext contains plaintext")
	}
	if err := run("dec", "pasta", "pasta4", "secret", 0, ct, back, 0, "software", 1); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("roundtrip failed")
	}
}

func TestOddLengthFile(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "p")
	ct := filepath.Join(dir, "c")
	back := filepath.Join(dir, "b")
	if err := os.WriteFile(plain, []byte{1, 2, 3}, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("enc", "pasta", "pasta3", "k", 1, plain, ct, 1, "software", 1); err != nil {
		t.Fatal(err)
	}
	if err := run("dec", "pasta", "pasta3", "k", 0, ct, back, 4, "software", 1); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(back)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("roundtrip = %v", got)
	}
}

func TestWrongKeyGivesGarbage(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "p")
	ct := filepath.Join(dir, "c")
	back := filepath.Join(dir, "b")
	data := []byte("attack at dawn, attack at dawn!!")
	if err := os.WriteFile(plain, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("enc", "pasta", "pasta4", "right-key", 7, plain, ct, 0, "software", 1); err != nil {
		t.Fatal(err)
	}
	if err := run("dec", "pasta", "pasta4", "wrong-key", 0, ct, back, 0, "software", 1); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(back)
	if bytes.Equal(got, data) {
		t.Fatal("wrong key decrypted correctly")
	}
}

func TestInvalidArgs(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "f")
	_ = os.WriteFile(f, []byte{1}, 0o644)
	cases := []struct{ mode, variant, seed, in string }{
		{"frobnicate", "pasta4", "k", f},
		{"enc", "pasta9", "k", f},
		{"enc", "pasta4", "", f},
		{"enc", "pasta4", "k", filepath.Join(dir, "missing")},
	}
	for _, c := range cases {
		if err := run(c.mode, "pasta", c.variant, c.seed, 0, c.in, filepath.Join(dir, "out"), 0, "software", 1); err == nil {
			t.Errorf("run(%q, %q, %q) succeeded", c.mode, c.variant, c.seed)
		}
	}
	// Decrypting a non-ciphertext file.
	if err := run("dec", "pasta", "pasta4", "k", 0, f, filepath.Join(dir, "out"), 0, "software", 1); err == nil {
		t.Error("decrypted a non-ciphertext file")
	}
}

func TestVariantMismatchDetected(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "p")
	ct := filepath.Join(dir, "c")
	_ = os.WriteFile(plain, []byte("data"), 0o644)
	if err := run("enc", "pasta", "pasta4", "k", 1, plain, ct, 0, "software", 1); err != nil {
		t.Fatal(err)
	}
	if err := run("dec", "pasta", "pasta3", "k", 0, ct, filepath.Join(dir, "b"), 0, "software", 1); err == nil {
		t.Fatal("variant mismatch not detected")
	}
}

func TestPackUnpack(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 17} {
		data := make([]byte, n)
		for i := range data {
			data[i] = byte(200 + i)
		}
		round := unpackBytes(packBytes(data))
		if !bytes.Equal(round[:n], data) {
			t.Errorf("n=%d: pack/unpack mismatch", n)
		}
	}
}

// TestBackendsProduceIdenticalCiphertext is the CLI half of the
// cross-backend differential suite: the same plaintext, key seed, and
// nonce must yield byte-identical ciphertext files whether the keystream
// came from the software engine, the cycle-accurate accelerator model,
// or the RISC-V SoC co-simulation — and any backend must decrypt any
// other backend's output.
func TestBackendsProduceIdenticalCiphertext(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "plain.bin")
	data := []byte("same cipher, three platforms")
	if err := os.WriteFile(plain, data, 0o644); err != nil {
		t.Fatal(err)
	}

	backends := []string{"software", "accel", "soc"}
	cts := make(map[string][]byte, len(backends))
	for _, name := range backends {
		ct := filepath.Join(dir, "ct."+name)
		if err := run("enc", "pasta", "pasta4", "diff", 11, plain, ct, 0, name, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := os.ReadFile(ct)
		if err != nil {
			t.Fatal(err)
		}
		cts[name] = b
	}
	for _, name := range backends[1:] {
		if !bytes.Equal(cts[name], cts["software"]) {
			t.Fatalf("%s ciphertext differs from software", name)
		}
	}

	// Cross-substrate decryption: software-made ciphertext, SoC decrypt.
	back := filepath.Join(dir, "back.bin")
	if err := run("dec", "pasta", "pasta4", "diff", 0, filepath.Join(dir, "ct.software"), back, 0, "soc", 1); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("cross-backend roundtrip failed")
	}
}

// TestCipherFamilyRoundtrip drives the -cipher axis end to end: a
// HERA-encrypted file records its family in the header, decrypts only
// with the matching -cipher, and a legacy PASTA file refuses a
// mismatched -cipher instead of emitting garbage.
func TestCipherFamilyRoundtrip(t *testing.T) {
	dir := t.TempDir()
	plain := filepath.Join(dir, "p")
	ct := filepath.Join(dir, "c")
	back := filepath.Join(dir, "b")
	data := []byte("registry-selected keystream")
	if err := os.WriteFile(plain, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := run("enc", "hera", "pasta4", "k", 5, plain, ct, 0, "software", 1); err != nil {
		t.Fatal(err)
	}
	if err := run("dec", "hera", "pasta4", "k", 0, ct, back, 0, "software", 1); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(back)
	if !bytes.Equal(got, data) {
		t.Fatal("hera roundtrip failed")
	}

	// Family mismatches are detected from the header, both directions.
	if err := run("dec", "pasta", "pasta4", "k", 0, ct, back, 0, "software", 1); err == nil {
		t.Fatal("hera file decrypted as pasta")
	}
	ctP := filepath.Join(dir, "cp")
	if err := run("enc", "pasta", "pasta4", "k", 6, plain, ctP, 0, "software", 1); err != nil {
		t.Fatal(err)
	}
	if err := run("dec", "hera", "pasta4", "k", 0, ctP, back, 0, "software", 1); err == nil {
		t.Fatal("pasta file decrypted as hera")
	}

	// Unknown families surface the registry's typed error.
	if err := run("enc", "rasta", "pasta4", "k", 7, plain, ct, 0, "software", 1); err == nil {
		t.Fatal("unknown cipher accepted")
	}
}
