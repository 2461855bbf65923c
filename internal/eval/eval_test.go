package eval

import (
	"encoding/csv"
	"io"
	"math"
	"strings"
	"testing"

	"repro/internal/backend"
	"repro/internal/cipher"
	"repro/internal/cipher/ciphertest"
)

func table2(t *testing.T) []Table2Row {
	t.Helper()
	rows, err := Table2(3)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestTable1MatchesPaperWithinTolerance(t *testing.T) {
	for _, r := range Table1() {
		if r.Model.DSP != r.Paper.DSP {
			t.Errorf("%s ω=%d: DSP %d != paper %d", r.Scheme, r.Omega, r.Model.DSP, r.Paper.DSP)
		}
		lutErr := math.Abs(float64(r.Model.LUT)-float64(r.Paper.LUT)) / float64(r.Paper.LUT)
		if lutErr > 0.05 {
			t.Errorf("%s ω=%d: LUT error %.1f%%", r.Scheme, r.Omega, 100*lutErr)
		}
	}
}

func TestTable2ShapesMatchPaper(t *testing.T) {
	rows := table2(t)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Within 15% of the paper's cycle counts.
		relErr := math.Abs(float64(r.Cycles)-float64(r.PaperCycles)) / float64(r.PaperCycles)
		if relErr > 0.15 {
			t.Errorf("%s: cycles %d vs paper %d (%.1f%% off)", r.Scheme, r.Cycles, r.PaperCycles, 100*relErr)
		}
		// Platform latencies derive from the cycle count.
		if r.FPGAus < r.ASICus {
			t.Errorf("%s: FPGA faster than ASIC?", r.Scheme)
		}
		if r.RISCVus < r.ASICus {
			t.Errorf("%s: SoC at 100MHz faster than 1GHz ASIC?", r.Scheme)
		}
	}
}

func TestTable3WhoWins(t *testing.T) {
	rows, err := Table3(table2(t))
	if err != nil {
		t.Fatal(err)
	}
	// Our FPGA row must have the lowest per-encryption latency among
	// FPGA rows by orders of magnitude, at comparable or lower area.
	var ourFPGA, bestPriorFPGA, ourASIC, bestPriorASIC *Table3Row
	for i := range rows {
		r := &rows[i]
		switch {
		case r.Ours && r.Platform == "Artix-7":
			ourFPGA = r
		case r.Ours && strings.Contains(r.Platform, "7/28nm"):
			ourASIC = r
		case !r.Ours && r.KLUT > 0:
			if bestPriorFPGA == nil || r.EncrUS < bestPriorFPGA.EncrUS {
				bestPriorFPGA = r
			}
		case !r.Ours && r.KLUT == 0 && strings.Contains(r.Platform, "12nm"):
			if bestPriorASIC == nil || r.EncrUS < bestPriorASIC.EncrUS {
				bestPriorASIC = r
			}
		}
	}
	if ourFPGA == nil || bestPriorFPGA == nil || ourASIC == nil || bestPriorASIC == nil {
		t.Fatal("missing rows")
	}
	if ourFPGA.EncrUS*10 > bestPriorFPGA.EncrUS {
		t.Errorf("FPGA: ours %.1f µs not ≫ faster than prior %.1f µs", ourFPGA.EncrUS, bestPriorFPGA.EncrUS)
	}
	if ourASIC.PerElemUS*50 > bestPriorASIC.PerElemUS {
		t.Errorf("ASIC per-element: ours %.3f vs prior %.3f — want ~97×", ourASIC.PerElemUS, bestPriorASIC.PerElemUS)
	}
	if ourFPGA.BRAM != 0 {
		t.Error("our design must use no BRAM")
	}
}

func TestFig7SharesComplete(t *testing.T) {
	d, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	for name, pie := range map[string]map[string]float64{"FPGA": d.FPGA, "ASIC": d.ASIC} {
		var sum float64
		for _, v := range pie {
			sum += v
		}
		if math.Abs(sum-100) > 0.01 {
			t.Errorf("%s shares sum to %.2f", name, sum)
		}
	}
	// The ASIC pie shifts toward the multiplier-heavy units vs FPGA
	// (standard cells have no DSP blocks to hide multipliers in).
	if d.ASIC["MatGen"]+d.ASIC["MatMul"] <= d.FPGA["DataGen(SHAKE)"] {
		t.Log("ASIC multiplier share unexpectedly small (informational)")
	}
}

func TestFig8ShapeMatchesPaper(t *testing.T) {
	rows, err := Fig8(1.59, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.TWFPS <= r.RISEFPS {
			t.Errorf("%s at %.1f MBps: TW %.1f fps not ahead of RISE %.1f", r.Resolution, r.Bandwidth/1e6, r.TWFPS, r.RISEFPS)
		}
	}
	// Paper anchors: RISE ≈70–75 QQVGA fps at max bandwidth; RISE cannot
	// send VGA at minimum bandwidth (< 1 fps).
	for _, r := range rows {
		if r.Resolution == "QQVGA" && r.Bandwidth == MaxBandwidthBps {
			if r.RISEFPS < 60 || r.RISEFPS > 90 {
				t.Errorf("RISE QQVGA max-bw fps = %.1f, want ≈70–75", r.RISEFPS)
			}
		}
		if r.Resolution == "VGA" && r.Bandwidth == MinBandwidthBps {
			if !r.RISEBelow1 {
				t.Errorf("RISE VGA at min bandwidth = %.2f fps, paper says < 1", r.RISEFPS)
			}
			if r.TWFPS < 1 {
				t.Errorf("TW VGA at min bandwidth = %.2f fps, must be ≥ 1", r.TWFPS)
			}
		}
	}
}

func TestFig8EncryptionCap(t *testing.T) {
	// With encryption latency included, RISE (20 ms per ciphertext) is
	// encryption-limited at max bandwidth.
	rows, err := Fig8(1.59, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Resolution == "QQVGA" && r.Bandwidth == MaxBandwidthBps && r.RISEFPS > 51 {
			t.Errorf("RISE QQVGA with enc cap = %.1f fps, want ≤ 50", r.RISEFPS)
		}
	}
}

func TestClaims(t *testing.T) {
	c := ComputeClaims(table2(t))
	// 2^18 matrix multiplications plus the (small) S-box term the paper's
	// estimate omits.
	if c.Pasta3Muls < 1<<18 || c.Pasta3Muls > 1<<18+2048 {
		t.Errorf("PASTA-3 muls = %d, want ≈2^18", c.Pasta3Muls)
	}
	if c.PKEMuls < 400_000 || c.PKEMuls > 600_000 {
		t.Errorf("PKE muls = %d, want ≈2^19", c.PKEMuls)
	}
	// Paper: 857–3,439× cycle reduction. Our counts differ a few percent.
	if c.CycleReductionP4 < 700 || c.CycleReductionP4 > 1000 {
		t.Errorf("PASTA-4 cycle reduction = %.0f, want ≈857", c.CycleReductionP4)
	}
	if c.CycleReductionP3 < 2900 || c.CycleReductionP3 > 3700 {
		t.Errorf("PASTA-3 cycle reduction = %.0f, want ≈3,439", c.CycleReductionP3)
	}
	if c.WallSpeedupP4 < 35 || c.WallSpeedupP3 > 200 {
		t.Errorf("wall-clock speedups %.0f–%.0f out of the paper's 43–171 neighbourhood",
			c.WallSpeedupP4, c.WallSpeedupP3)
	}
	if c.SpeedupVsRISE < 70 || c.SpeedupVsRISE > 130 {
		t.Errorf("speedup vs RISE = %.0f, want ≈97", c.SpeedupVsRISE)
	}
	if c.P3TimeAdvantage < 0.10 || c.P3TimeAdvantage > 0.35 {
		t.Errorf("PASTA-3 per-element advantage = %.0f%%, want ≈22%%", 100*c.P3TimeAdvantage)
	}
	if c.P3AreaRatio < 2.3 || c.P3AreaRatio > 3.3 {
		t.Errorf("area ratio = %.2f, want ≈3", c.P3AreaRatio)
	}
	if c.Pasta3BulkFactor < 15 || c.Pasta3BulkFactor > 50 {
		t.Errorf("bulk factor = %.1f, want ≈32", c.Pasta3BulkFactor)
	}
}

func TestRenderSmoke(t *testing.T) {
	var sb strings.Builder
	t2 := table2(t)
	RenderTable1(&sb, Table1())
	RenderTable2(&sb, t2)
	t3, err := Table3(t2)
	if err != nil {
		t.Fatal(err)
	}
	RenderTable3(&sb, t3)
	f7, err := Fig7()
	if err != nil {
		t.Fatal(err)
	}
	RenderFig7(&sb, f7)
	f8, err := Fig8(1.59, false)
	if err != nil {
		t.Fatal(err)
	}
	RenderFig8(&sb, f8)
	RenderClaims(&sb, ComputeClaims(t2))
	out := sb.String()
	for _, want := range []string{"TABLE I", "TABLE II", "TABLE III", "FIG. 7", "FIG. 8", "CLAIM AUDIT", "PASTA-3", "RISE"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered output missing %q", want)
		}
	}
}

type nopCloser struct{ *strings.Builder }

func (nopCloser) Close() error { return nil }

func TestWriteAllCSV(t *testing.T) {
	files := map[string]*strings.Builder{}
	err := WriteAllCSV(func(name string) (io.WriteCloser, error) {
		sb := &strings.Builder{}
		files[name] = sb
		return nopCloser{sb}, nil
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"table1.csv", "table2.csv", "table3.csv", "fig7.csv", "fig8.csv", "claims.csv", "schemes.csv", "countermeasures.csv", "bitwidth.csv", "energy.csv", "expansion.csv"}
	for _, name := range want {
		sb, ok := files[name]
		if !ok {
			t.Errorf("%s not written", name)
			continue
		}
		records, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
		if err != nil {
			t.Errorf("%s: invalid CSV: %v", name, err)
			continue
		}
		if len(records) < 2 {
			t.Errorf("%s has no data rows", name)
			continue
		}
		for i, rec := range records[1:] {
			if len(rec) != len(records[0]) {
				t.Errorf("%s row %d has %d fields, header has %d", name, i, len(rec), len(records[0]))
			}
		}
	}
}

// TestSoftwareThroughput: PASTA on the software backend gets a
// sequential and a parallel row per public variant.
func TestSoftwareThroughput(t *testing.T) {
	rows, err := ThroughputCiphers(backend.NameSoftware, []string{backend.DefaultCipher}, 2, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4 (sequential+parallel for each variant)", len(rows))
	}
	for _, r := range rows {
		if r.ElemsPerSec <= 0 || r.Speedup <= 0 {
			t.Errorf("%s workers=%d: non-positive throughput %v / speedup %v",
				r.Scheme, r.Workers, r.ElemsPerSec, r.Speedup)
		}
		if r.Elems != r.Blocks*blockSizeFor(t, r.Scheme) {
			t.Errorf("%s: elems = %d for %d blocks", r.Scheme, r.Elems, r.Blocks)
		}
	}
	var sb strings.Builder
	RenderSoftware(&sb, rows)
	if !strings.Contains(sb.String(), "SOFTWARE") {
		t.Error("RenderSoftware output missing header")
	}
	if _, err := ThroughputCiphers(backend.NameSoftware, []string{backend.DefaultCipher}, 1, 0, 1); err == nil {
		t.Error("ThroughputCiphers accepted zero blocks")
	}
}

// TestThroughputOnAccelBackend: the generic throughput harness must run
// on the hardware-model substrates too, with one serialized row per
// scheme.
func TestThroughputOnAccelBackend(t *testing.T) {
	rows, err := ThroughputCiphers(backend.NameAccel, []string{backend.DefaultCipher}, 4, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2 (one serialized row per variant)", len(rows))
	}
	for _, r := range rows {
		if r.Backend != backend.NameAccel || r.Workers != 1 {
			t.Errorf("accel row not serialized: %+v", r)
		}
		if r.ElemsPerSec <= 0 {
			t.Errorf("%s: non-positive throughput", r.Scheme)
		}
	}
	if _, err := ThroughputCiphers("no-such-backend", []string{backend.DefaultCipher}, 1, 1, 1); err == nil {
		t.Error("ThroughputCiphers accepted an unknown backend")
	}
}

func blockSizeFor(t *testing.T, scheme string) int {
	t.Helper()
	switch scheme {
	case "PASTA-3":
		return 128
	case "PASTA-4":
		return 32
	}
	t.Fatalf("unknown scheme %q", scheme)
	return 0
}

// TestThroughputCiphersSweepsRegistry: the nil sweep covers every
// registered cipher family on the software backend (PASTA twice, for
// both public variants), rows carry the cipher column, and on the accel
// backend software-only families are skipped rather than failing.
func TestThroughputCiphersSweepsRegistry(t *testing.T) {
	rows, err := ThroughputCiphers(backend.NameSoftware, nil, 1, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.Cipher == "" {
			t.Errorf("row %q has no cipher family", r.Scheme)
		}
		seen[r.Cipher] = true
		if r.ElemsPerSec <= 0 {
			t.Errorf("%s/%s: non-positive throughput", r.Cipher, r.Scheme)
		}
	}
	for _, name := range cipher.Names() {
		if !seen[name] {
			t.Errorf("registered cipher %q missing from the software sweep", name)
		}
	}

	// The accel backend runs PASTA and HERA but not the software-only
	// dummy family: the sweep must skip it, not fail.
	rows, err = ThroughputCiphers(backend.NameAccel, nil, 1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Cipher == ciphertest.Name {
			t.Error("software-only dummy cipher measured on the accel backend")
		}
	}

	// A sweep with nothing runnable is an error, as is an unknown name.
	if _, err := ThroughputCiphers(backend.NameSoC, []string{ciphertest.Name}, 1, 1, 1); err == nil {
		t.Error("dummy-on-soc sweep did not fail")
	}
	if _, err := ThroughputCiphers(backend.NameSoftware, []string{"rasta"}, 1, 1, 1); err == nil {
		t.Error("unknown cipher accepted")
	}

	var sb strings.Builder
	RenderSoftware(&sb, rows)
	if !strings.Contains(sb.String(), "Cipher") {
		t.Error("RenderSoftware output missing the cipher column")
	}
}
