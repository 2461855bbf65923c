// Package core holds the system-level checks of the reproduction: one
// PASTA-4 (ω = 17) key opened on every substrate of the backend registry
// must give the same ciphertexts, and the modelled cycle, area and energy
// figures for that configuration must agree with the paper. It has no
// library code of its own; everything under test lives in
// internal/backend and internal/hw.
package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/backend"
	"repro/internal/cipher"
	"repro/internal/ff"
	"repro/internal/hw"
	"repro/internal/hw/area"
	"repro/internal/pasta"
)

// headline is the paper's headline configuration: PASTA-4, ω = 17.
var headline = pasta.MustParams(pasta.Pasta4, ff.P17)

// open opens the named substrate keyed for the headline configuration.
func open(t *testing.T, name string) backend.BlockCipher {
	t.Helper()
	b, err := backend.Open(name, backend.Config{
		CipherParams: cipher.Params{Variant: 4, Width: 17},
		Key:          ff.Vec(pasta.KeyFromSeed(headline, "core")),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func TestSoftwareRoundTrip(t *testing.T) {
	ctx := context.Background()
	sw := open(t, backend.NameSoftware)
	msg := ff.Vec{1, 2, 3, 4, 5}
	ct, err := sw.Encrypt(ctx, 10, msg)
	if err != nil {
		t.Fatal(err)
	}
	back, err := sw.Decrypt(ctx, 10, ct)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(msg) {
		t.Fatal("roundtrip failed")
	}
}

func TestAcceleratedMatchesSoftware(t *testing.T) {
	ctx := context.Background()
	msg := ff.NewVec(70) // 3 blocks, last partial
	for i := range msg {
		msg[i] = uint64(i * 13)
	}
	want, err := open(t, backend.NameSoftware).Encrypt(ctx, 4, msg)
	if err != nil {
		t.Fatal(err)
	}
	accel := open(t, backend.NameAccel)
	got, err := accel.Encrypt(ctx, 4, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("accelerated ciphertext differs from software")
	}
	st := accel.Stats()
	if st.Blocks != 3 {
		t.Fatalf("blocks = %d, want 3", st.Blocks)
	}
	if perBlock := st.AccelCycles / st.Blocks; perBlock < 1400 || perBlock > 1900 {
		t.Fatalf("cycles/block = %d, want ≈1,600", perBlock)
	}
	if hw.Microseconds(st.AccelCycles, hw.ASICHz) >= hw.Microseconds(st.AccelCycles, hw.FPGAHz) {
		t.Fatal("ASIC slower than FPGA?")
	}
}

func TestSoCPathMatches(t *testing.T) {
	ctx := context.Background()
	msg := ff.NewVec(32)
	for i := range msg {
		msg[i] = uint64(i)
	}
	want, err := open(t, backend.NameSoftware).Encrypt(ctx, 9, msg)
	if err != nil {
		t.Fatal(err)
	}
	soc := open(t, backend.NameSoC)
	got, err := soc.Encrypt(ctx, 9, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("SoC ciphertext differs")
	}
	if st := soc.Stats(); st.Blocks != 1 || st.CoreCycles == 0 {
		t.Fatalf("SoC stats not accounted: %+v", st)
	}
}

func TestAreaReport(t *testing.T) {
	cfg := area.Config{T: headline.T, W: headline.Mod.Bits()}
	if dsp := area.Resources(cfg).DSP; dsp != 64 {
		t.Errorf("DSP = %d, want 64 (Table I)", dsp)
	}
	a28, err := area.ASICmm2(cfg, area.Node28nm)
	if err != nil {
		t.Fatal(err)
	}
	a7, err := area.ASICmm2(cfg, area.Node7nm)
	if err != nil {
		t.Fatal(err)
	}
	if a28 < 0.2 || a28 > 0.3 {
		t.Errorf("28nm area = %.3f, want ≈0.24", a28)
	}
	if a7 >= a28 {
		t.Error("7nm not smaller than 28nm")
	}
}

func TestBackendAccessorAndStats(t *testing.T) {
	if _, err := backend.Open("no-such-substrate", backend.Config{}); !errors.Is(err, backend.ErrUnknownBackend) {
		t.Fatalf("want ErrUnknownBackend, got %v", err)
	}
	accel := open(t, backend.NameAccel)
	if _, err := accel.Encrypt(context.Background(), 3, ff.NewVec(5)); err != nil {
		t.Fatal(err)
	}
	if st := accel.Stats(); st.Backend != backend.NameAccel || st.Blocks != 1 || st.AccelCycles == 0 {
		t.Fatalf("accel stats not accounted: %+v", st)
	}
}

func TestEnergyReport(t *testing.T) {
	rows, err := area.Energies(1591, headline.T)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].BlockUJ <= 0 {
		t.Fatal("nonpositive energy")
	}
	if _, err := area.Energies(0, headline.T); err != nil {
		t.Fatal(err) // zero cycles is fine (zero energy), only elements must be positive
	}
}
