// Command hhebench regenerates every table and figure of the paper's
// evaluation section from the reproduction's models.
//
// Usage:
//
//	hhebench [-experiment all|table1|table2|table3|fig7|fig8|claims|schemes|bitwidth|
//	          communication|energy|countermeasures|software|transcipher] [-nonces N]
//	         [-enc-cap] [-backend software|accel|soc] [-cipher pasta|hera]
//	         [-metrics file|-] [-debug-addr host:port]
//
// The -backend flag selects the execution substrate for the "software"
// (throughput) experiment; the modelled tables always sample the
// substrates they reproduce. The throughput experiment sweeps every
// registered cipher family the substrate can run (PASTA vs HERA on one
// axis); -cipher narrows it to a single family.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/eval"
	"repro/internal/ff"
	"repro/internal/hhe"
	"repro/internal/obs"
	"repro/internal/pasta"
	"repro/internal/transcipher"
)

// experiments is the canonical list the -experiment flag accepts (besides
// "all" and comma-separated combinations). The flag help and the
// unknown-experiment error are both derived from it so they cannot drift.
var experiments = []string{
	"table1", "table2", "table3", "fig7", "fig8", "claims", "schemes",
	"bitwidth", "communication", "energy", "countermeasures", "software",
	"transcipher",
}

func main() {
	experiment := flag.String("experiment", "all",
		"which experiment to run: all, "+strings.Join(experiments, ", ")+" (comma-separated to combine)")
	nonces := flag.Int("nonces", 5, "nonce samples for cycle averaging (Table II)")
	encCap := flag.Bool("enc-cap", false, "include client encryption throughput as a cap in Fig. 8")
	workers := flag.Int("workers", 0, "goroutines for the software experiment (0 = GOMAXPROCS)")
	blocks := flag.Int("blocks", 256, "CTR blocks per measurement in the software experiment")
	measurePKE := flag.Bool("measure-pke", true, "measure the software RLWE PKE baseline on this host for Table III (adds a few seconds of setup)")
	pkeIters := flag.Int("pke-iters", 8, "encryptions to average for the measured PKE baseline")
	csvDir := flag.String("csv", "", "also write machine-readable CSVs for every experiment into this directory")
	debugAddr := flag.String("debug-addr", "", "serve live /metrics, /debug/vars and /debug/pprof on this address while the benchmarks run")
	common := cli.RegisterCommon(flag.CommandLine, backend.NameSoftware)
	flag.Parse()

	if *debugAddr != "" {
		srv, err := obs.ServeDebug(*debugAddr, obs.Default())
		if err != nil {
			fatal(err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "hhebench: debug server on http://%s (/metrics, /debug/vars, /debug/pprof)\n", srv.Addr())
	}
	defer func() {
		if err := common.Finish(); err != nil {
			fatal(err)
		}
	}()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fatal(err)
		}
		err := eval.WriteAllCSV(func(name string) (io.WriteCloser, error) {
			return os.Create(filepath.Join(*csvDir, name))
		}, *nonces)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "hhebench: wrote CSVs to %s\n", *csvDir)
	}

	selected := map[string]bool{}
	for _, e := range strings.Split(*experiment, ",") {
		selected[strings.TrimSpace(e)] = true
	}
	want := func(name string) bool { return selected["all"] || selected[name] }

	out := os.Stdout
	var t2 []eval.Table2Row
	needT2 := want("table2") || want("table3") || want("claims") || want("energy")
	if needT2 {
		rows, err := eval.Table2(*nonces)
		if err != nil {
			fatal(err)
		}
		t2 = rows
	}

	ran := false
	if want("table1") {
		eval.RenderTable1(out, eval.Table1())
		fmt.Fprintln(out)
		ran = true
	}
	if want("table2") {
		eval.RenderTable2(out, t2)
		fmt.Fprintln(out)
		ran = true
	}
	if want("table3") {
		// The software baseline row is measured, not assumed: the prior
		// works' exact workload (N = 2^13, three moduli) run on this
		// repository's lazy-NTT RLWE substrate.
		var sw *eval.PKEBaseline
		if *measurePKE {
			row, err := eval.MeasurePKEBaseline(8192, 55, 3, *pkeIters, *workers)
			if err != nil {
				fatal(err)
			}
			sw = &row
		}
		rows, err := eval.Table3WithSoftware(t2, sw)
		if err != nil {
			fatal(err)
		}
		eval.RenderTable3(out, rows)
		fmt.Fprintln(out)
		ran = true
	}
	if want("fig7") {
		d, err := eval.Fig7()
		if err != nil {
			fatal(err)
		}
		eval.RenderFig7(out, d)
		fmt.Fprintln(out)
		ran = true
	}
	if want("fig8") {
		rows, err := eval.Fig8(1.59, *encCap)
		if err != nil {
			fatal(err)
		}
		eval.RenderFig8(out, rows)
		fmt.Fprintln(out)
		ran = true
	}
	if want("claims") {
		eval.RenderClaims(out, eval.ComputeClaims(t2))
		fmt.Fprintln(out)
		ran = true
	}
	if want("schemes") {
		rows, err := eval.SchemeComparison(ff.P17)
		if err != nil {
			fatal(err)
		}
		eval.RenderSchemes(out, rows)
		fmt.Fprintln(out)
		ran = true
	}
	if want("bitwidth") {
		rows, err := eval.BitwidthStudy()
		if err != nil {
			fatal(err)
		}
		eval.RenderBitwidth(out, rows)
		fmt.Fprintln(out)
		ran = true
	}
	if want("communication") {
		rows, err := eval.Expansion(1 << 12)
		if err != nil {
			fatal(err)
		}
		eval.RenderExpansion(out, rows)
		small, err := eval.Expansion(32)
		if err != nil {
			fatal(err)
		}
		eval.RenderExpansion(out, small)
		fmt.Fprintln(out)
		ran = true
	}
	if want("energy") {
		rows, err := eval.EnergyRows(t2)
		if err != nil {
			fatal(err)
		}
		eval.RenderEnergy(out, rows)
		fmt.Fprintln(out)
		ran = true
	}
	if want("countermeasures") {
		rows, err := eval.CountermeasureCosts(eval.PaperResults.CyclesPasta4)
		if err != nil {
			fatal(err)
		}
		eval.RenderCountermeasures(out, rows)
		fmt.Fprintln(out)
		ran = true
	}
	if want("software") {
		// nil = the full cipher registry (PASTA-3/4, HERA, …);
		// -cipher narrows the sweep to one family. Families the selected
		// substrate cannot run are skipped by the capability probes.
		var ciphers []string
		if common.Cipher != "" {
			ciphers = []string{common.Cipher}
		}
		rows, err := eval.ThroughputCiphers(common.Backend, ciphers, *workers, *blocks, common.AccelUnits)
		if err != nil {
			fatal(err)
		}
		eval.RenderSoftware(out, rows)
		fmt.Fprintln(out)
		ran = true
	}
	if want("transcipher") {
		if err := runTranscipher(out); err != nil {
			fatal(err)
		}
		fmt.Fprintln(out)
		ran = true
	}
	if !ran {
		fatal(fmt.Errorf("unknown experiment %q (want all, %s)", *experiment, strings.Join(experiments, ", ")))
	}
}

// runTranscipher measures the serving tier's transciphering engine
// in-process: eval-key enrollment, a cold homomorphic PASTA decryption
// of one block, and the Enc(KS)-cached repeat of the same block.
func runTranscipher(out io.Writer) error {
	par, err := hhe.NewToyParams(4, 2)
	if err != nil {
		return err
	}
	key := pasta.KeyFromSeed(par.Pasta, "hhebench-transcipher")
	client, err := hhe.NewClient(par, key, []byte{7})
	if err != nil {
		return err
	}
	blob, err := client.EvalKeysBlob()
	if err != nil {
		return err
	}
	svc := transcipher.New(transcipher.Config{Budget: time.Hour})
	defer svc.Close()

	readyCh := make(chan error, 1)
	enrollStart := time.Now()
	_, deferred, err := svc.AcceptChunk(1, par.Pasta, 0, uint64(len(blob)), blob,
		func(_ transcipher.UploadState, err error) { readyCh <- err })
	if err != nil {
		return err
	}
	if deferred {
		if err := <-readyCh; err != nil {
			return err
		}
	}
	enroll := time.Since(enrollStart)

	sym, err := client.EncryptBlock(5, 0, ff.Vec{1, 2, 3, 4})
	if err != nil {
		return err
	}
	evalOnce := func() (time.Duration, error) {
		done := make(chan error, 1)
		start := time.Now()
		err := svc.Transcipher(1, 5, 0, []ff.Vec{sym},
			func(_ []byte, err error) { done <- err })
		if err != nil {
			return 0, err
		}
		if err := <-done; err != nil {
			return 0, err
		}
		return time.Since(start), nil
	}
	cold, err := evalOnce()
	if err != nil {
		return err
	}
	warm, err := evalOnce()
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "Transciphering tier (toy PASTA t=%d, %d rounds):\n",
		par.Pasta.T, par.Pasta.Rounds)
	fmt.Fprintf(out, "  eval-key blob      %d bytes\n", len(blob))
	fmt.Fprintf(out, "  enroll (build)     %v\n", enroll.Round(time.Millisecond))
	fmt.Fprintf(out, "  cold block eval    %v\n", cold.Round(time.Millisecond))
	fmt.Fprintf(out, "  Enc(KS) cache hit  %v\n", warm.Round(10*time.Microsecond))
	fmt.Fprintf(out, "  EWMA eval estimate %.1f ms\n", svc.EvalMSEstimate())
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hhebench:", err)
	os.Exit(1)
}
