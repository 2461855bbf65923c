package main

import (
	"testing"

	"repro/internal/cipher/ciphertest"
)

func TestRunTwoBlocks(t *testing.T) {
	if err := run(2, 1, "pasta", "pasta4", "test", true, "soc", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunInvalidArgs(t *testing.T) {
	if err := run(0, 1, "pasta", "pasta4", "t", false, "soc", 1); err == nil {
		t.Fatal("zero blocks accepted")
	}
	if err := run(1, 1, "pasta", "pasta9", "t", false, "soc", 1); err == nil {
		t.Fatal("bad variant accepted")
	}
}

// TestRunOtherBackends routes the message through the registry instead
// of the direct driver; each run verifies the ciphertext against the
// software reference, so a pass proves the substrates agree.
func TestRunOtherBackends(t *testing.T) {
	for _, name := range []string{"software", "accel"} {
		if err := run(2, 1, "pasta", "pasta4", "test", false, name, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := run(1, 1, "pasta", "pasta4", "t", true, "software", 1); err == nil {
		t.Fatal("-irq on a non-soc backend accepted")
	}
	if err := run(1, 1, "pasta", "pasta4", "t", false, "fpga", 1); err == nil {
		t.Fatal("unknown backend accepted")
	}
}

// TestRunCipherFamilies: non-PASTA families take the generic backend
// path — the software-only test family verifies on the software
// backend, is refused on the SoC (no peripheral), and HERA runs on the
// accelerator model.
func TestRunCipherFamilies(t *testing.T) {
	if err := run(2, 1, ciphertest.Name, "pasta4", "test", false, "software", 1); err != nil {
		t.Fatalf("dummy on software: %v", err)
	}
	if err := run(1, 1, ciphertest.Name, "pasta4", "t", false, "soc", 1); err == nil {
		t.Fatal("software-only dummy cipher accepted on the soc backend")
	}
	if err := run(2, 1, "hera", "pasta4", "test", false, "accel", 1); err != nil {
		t.Fatalf("hera on accel: %v", err)
	}
}
