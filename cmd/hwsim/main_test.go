package main

import (
	"testing"

	"repro/internal/cipher/ciphertest"
)

func TestRunPasta4(t *testing.T) {
	if err := run("pasta", "pasta4", 17, 0, 0, false, true, "test", "", "auto", "accel", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithTrace(t *testing.T) {
	if err := run("pasta", "pasta4", 17, 1, 2, true, true, "test", "", "auto", "accel", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunWideModulus(t *testing.T) {
	if err := run("pasta", "pasta4", 33, 0, 0, false, true, "test", "", "auto", "accel", 1); err != nil {
		t.Fatal(err)
	}
}

func TestRunInvalidArgs(t *testing.T) {
	if err := run("pasta", "pasta9", 17, 0, 0, false, false, "t", "", "auto", "accel", 1); err == nil {
		t.Fatal("bad variant accepted")
	}
	if err := run("pasta", "pasta4", 19, 0, 0, false, false, "t", "", "auto", "accel", 1); err == nil {
		t.Fatal("bad width accepted")
	}
}

// TestRunAllBackends drives the same block through every registered
// substrate with -verify on: each run checks its keystream against the
// software reference, so a pass means all backends agree bit-for-bit.
func TestRunAllBackends(t *testing.T) {
	for _, name := range []string{"software", "accel", "soc"} {
		if err := run("pasta", "pasta4", 17, 3, 1, false, true, "test", "", "auto", name, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if err := run("pasta", "pasta4", 17, 0, 0, false, false, "t", "", "auto", "fpga", 1); err == nil {
		t.Fatal("unknown backend accepted")
	}
	// Trace capture is a property of the cycle-accurate model.
	if err := run("pasta", "pasta4", 17, 0, 0, true, false, "t", "", "auto", "software", 1); err == nil {
		t.Fatal("-trace on the software backend accepted")
	}
}

// TestRunStepModes pins the -step-mode plumbing: explicit engine
// selection works, "both" runs the cross-engine comparison, non-accel
// backends reject the flag, and bad spellings fail.
func TestRunStepModes(t *testing.T) {
	for _, mode := range []string{"event", "cycle", "both"} {
		if err := run("pasta", "pasta4", 17, 0, 0, false, true, "test", "", mode, "accel", 1); err != nil {
			t.Fatalf("step-mode %s: %v", mode, err)
		}
	}
	if err := run("pasta", "pasta4", 17, 0, 0, false, false, "t", "", "event", "software", 1); err == nil {
		t.Fatal("-step-mode on the software backend accepted")
	}
	if err := run("pasta", "pasta4", 17, 0, 0, false, false, "t", "", "warp", "accel", 1); err == nil {
		t.Fatal("bad step mode accepted")
	}
}

// TestRunFarm drives a multi-unit run end to end with -verify.
func TestRunFarm(t *testing.T) {
	if err := run("pasta", "pasta4", 17, 0, 0, false, true, "test", "", "auto", "accel", 4); err != nil {
		t.Fatal(err)
	}
}

// TestRunCipherFamilies exercises the -cipher axis: HERA runs (and
// verifies) on the accelerator model, the software-only test family
// runs on the software backend but is refused by the capability probes
// on the hardware substrates, and unknown names fail.
func TestRunCipherFamilies(t *testing.T) {
	if err := run("hera", "pasta4", 17, 0, 0, false, true, "test", "", "auto", "accel", 1); err != nil {
		t.Fatalf("hera on accel: %v", err)
	}
	if err := run(ciphertest.Name, "pasta4", 17, 0, 0, false, true, "test", "", "auto", "software", 1); err != nil {
		t.Fatalf("dummy on software: %v", err)
	}
	if err := run(ciphertest.Name, "pasta4", 17, 0, 0, false, false, "t", "", "auto", "accel", 1); err == nil {
		t.Fatal("software-only dummy cipher accepted on the accel backend")
	}
	if err := run("rasta", "pasta4", 17, 0, 0, false, false, "t", "", "auto", "software", 1); err == nil {
		t.Fatal("unknown cipher accepted")
	}
}
