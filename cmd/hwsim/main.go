// Command hwsim runs one keystream block on a selectable execution
// backend and reports its statistics. On the default accel backend (the
// cycle-accurate cryptoprocessor model) it prints cycle counts, unit
// utilization, and — with -trace — the Fig. 3 schedule milestones; on
// the software or soc backends it prints the generic backend counters,
// which makes it a quick way to confirm all substrates agree on the
// same block.
//
// Usage:
//
//	hwsim [-backend software|accel|soc] [-cipher pasta|hera]
//	      [-variant pasta3|pasta4] [-w 17|33|54|60]
//	      [-nonce N] [-counter N] [-step-mode auto|event|cycle|both] [-accel-units N]
//	      [-trace] [-verify] [-metrics file|-]
//
// -cipher selects the registered cipher family (default pasta); the
// capability probes decide which substrates can run it, so e.g.
// software-only families are refused by the accel and soc backends with
// a typed error instead of wrong numbers.
//
// -step-mode selects how the accel backend advances modelled time: the
// event-driven fast-forward engine ("event"), the per-cycle oracle
// ("cycle"), or "both", which runs the block through each engine, checks
// that the modelled cycle counts match bit-exactly, and reports the
// wall-clock speedup of event-driven stepping.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/ff"
	"repro/internal/hw"
)

func main() {
	variant := flag.String("variant", "pasta4", "pasta3 or pasta4")
	width := flag.Uint("w", 17, "modulus bit width: 17, 33, 54 or 60")
	nonce := flag.Uint64("nonce", 0, "nonce")
	counter := flag.Uint64("counter", 0, "block counter")
	stepMode := flag.String("step-mode", "auto", "accel time stepping: auto, event, cycle, or both (compare engines)")
	trace := flag.Bool("trace", false, "print the schedule trace (Fig. 3; accel backend only)")
	vcdPath := flag.String("vcd", "", "write a VCD waveform of the run to this file (view with GTKWave; accel backend only)")
	verify := flag.Bool("verify", true, "check the keystream against the software reference")
	keySeed := flag.String("key-seed", "hwsim", "deterministic key seed")
	common := cli.RegisterCommon(flag.CommandLine, backend.NameAccel)
	flag.Parse()

	if err := run(common.CipherName(), *variant, *width, *nonce, *counter, *trace, *verify, *keySeed, *vcdPath, *stepMode, common.Backend, common.AccelUnits); err != nil {
		cli.Exit("hwsim", err)
	}
	if err := common.Finish(); err != nil {
		cli.Exit("hwsim", err)
	}
}

func run(cipherName, variant string, width uint, nonce, counter uint64, trace, verify bool, keySeed, vcdPath, stepMode, backendName string, accelUnits int) error {
	params, err := cli.CipherParams(cipherName, variant, width)
	if err != nil {
		return err
	}
	b, err := cli.OpenCipher(backendName, cipherName, params, keySeed, 0, accelUnits)
	if err != nil {
		return err
	}
	defer b.Close()

	// The schedule trace, waveform capture, and step-mode selection are
	// properties of the PASTA cryptoprocessor model; the other substrates
	// (and the accel backend's non-PASTA datapaths) have nothing to
	// record.
	var acc *hw.Accelerator
	ab, isAccel := b.(*backend.AccelBackend)
	if isAccel {
		acc = ab.Accelerator() // nil for non-PASTA accel datapaths
	}
	hasModel := acc != nil
	if hasModel {
		acc.TraceEnabled = trace
		if vcdPath != "" {
			acc.Waveform = &hw.Waveform{}
		}
	} else if trace || vcdPath != "" {
		return fmt.Errorf("-trace and -vcd require the PASTA model on the %s backend (got %s on %s)",
			backend.NameAccel, cipherName, backendName)
	}

	if stepMode != "" && stepMode != "auto" && !hasModel {
		return fmt.Errorf("-step-mode requires the PASTA model on the %s backend (got %s on %s)",
			backend.NameAccel, cipherName, backendName)
	}
	if stepMode == "both" {
		if err := compareSteppings(ab, nonce, counter); err != nil {
			return err
		}
	} else if hasModel {
		m, err := hw.ParseStepMode(stepMode)
		if err != nil {
			return err
		}
		ab.SetStepMode(m)
	}

	ks := ff.NewVec(b.BlockSize())
	if err := b.KeyStreamInto(context.Background(), ks, nonce, counter); err != nil {
		return err
	}

	fmt.Printf("%s backend  %s  ω=%d  nonce=%d  counter=%d\n", b.Name(), cipherName, width, nonce, counter)
	if hasModel {
		res := ab.LastResult()
		fmt.Printf("cycles: %d  (FPGA 75MHz: %.1f µs, ASIC 1GHz: %.2f µs, SoC 100MHz: %.1f µs)\n",
			res.Stats.Cycles,
			hw.Microseconds(res.Stats.Cycles, hw.FPGAHz),
			hw.Microseconds(res.Stats.Cycles, hw.ASICHz),
			hw.Microseconds(res.Stats.Cycles, hw.RISCVHz))
		fmt.Printf("keccak permutations: %d  words drawn: %d  kept: %d (%.1f%% acceptance)\n",
			res.Stats.Permutations, res.Stats.WordsDrawn, res.Stats.WordsKept,
			100*float64(res.Stats.WordsKept)/float64(res.Stats.WordsDrawn))

		util := res.Stats.Utilization()
		names := make([]string, 0, len(util))
		for k := range util {
			names = append(names, k)
		}
		sort.Slice(names, func(i, j int) bool { return util[names[i]] > util[names[j]] })
		fmt.Println("unit utilization:")
		for _, n := range names {
			fmt.Printf("  %-8s %5.1f%%\n", n, 100*util[n])
		}

		if trace {
			fmt.Println("schedule trace:")
			for _, ev := range res.Trace {
				fmt.Println(" ", ev)
			}
		}

		if vcdPath != "" {
			f, err := os.Create(vcdPath)
			if err != nil {
				return err
			}
			if err := acc.Waveform.WriteVCD(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("waveform: %d cycles written to %s\n", acc.Waveform.Cycles(), vcdPath)
		}
	} else {
		st := b.Stats()
		fmt.Printf("blocks: %d  elements: %d  core cycles: %d  accel cycles: %d\n",
			st.Blocks, st.Elements, st.CoreCycles, st.AccelCycles)
	}

	if verify {
		ref, err := cli.ReferenceKeystream(cipherName, params, keySeed, nonce, counter, 1)
		if err != nil {
			return err
		}
		if ks.Equal(ref) {
			fmt.Printf("verify: %s keystream matches software reference ✓\n", b.Name())
		} else {
			return fmt.Errorf("verify FAILED: keystream mismatch")
		}
	}
	return nil
}

// compareSteppings runs the same block through the event-driven engine
// and the per-cycle oracle, requires the modelled cycle counts to match
// bit-exactly, and reports the wall-clock speedup of event stepping —
// the check behind the event engine's equivalence claim, runnable on any
// instance from the command line.
func compareSteppings(ab *backend.AccelBackend, nonce, counter uint64) error {
	const reps = 5
	ctx := context.Background()
	ks := ff.NewVec(ab.BlockSize())
	measure := func(m hw.StepMode) (hw.Result, time.Duration, ff.Vec, error) {
		ab.SetStepMode(m)
		start := time.Now()
		for i := 0; i < reps; i++ {
			if err := ab.KeyStreamInto(ctx, ks, nonce, counter); err != nil {
				return hw.Result{}, 0, nil, err
			}
		}
		return ab.LastResult(), time.Since(start) / reps, ks.Clone(), nil
	}
	evRes, evTime, evKS, err := measure(hw.StepEvent)
	if err != nil {
		return err
	}
	cyRes, cyTime, cyKS, err := measure(hw.StepCycle)
	if err != nil {
		return err
	}
	ab.SetStepMode(hw.StepAuto)
	if evRes.Stats != cyRes.Stats {
		return fmt.Errorf("step-mode both: STATS MISMATCH\n event: %+v\n cycle: %+v", evRes.Stats, cyRes.Stats)
	}
	if !evKS.Equal(cyKS) {
		return fmt.Errorf("step-mode both: keystream mismatch between engines")
	}
	fmt.Printf("step-mode both: modelled cycles match ✓ (%d cycles, all unit counters identical)\n",
		evRes.Stats.Cycles)
	fmt.Printf("  event: %v/block   cycle: %v/block   speedup: %.1f×\n",
		evTime.Round(time.Microsecond), cyTime.Round(time.Microsecond),
		float64(cyTime)/float64(evTime))
	return nil
}
