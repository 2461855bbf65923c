// Command socsim co-simulates the RISC-V SoC (Ibex-like core + PASTA
// peripheral) encrypting a multi-block message, reporting the cycle
// breakdown behind the RISC-V column of Table II. With -backend it can
// run the same message through the software engine or the bare
// accelerator model instead, to confirm every substrate produces the
// same ciphertext.
//
// Usage:
//
//	socsim [-backend software|accel|soc] [-cipher pasta|hera]
//	       [-blocks N] [-nonce N]
//	       [-variant pasta3|pasta4] [-irq] [-metrics file|-]
//
// -cipher selects the registered cipher family (default pasta). The
// detailed co-simulation path (retired instructions, WFI cycles) exists
// for the PASTA peripheral only; other families go through the generic
// backend, whose capability probes refuse substrates that cannot run
// them.
package main

import (
	"context"
	"flag"
	"fmt"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/ff"
	"repro/internal/hw"
	"repro/internal/pasta"
	"repro/internal/soc"
)

func main() {
	blocks := flag.Int("blocks", 4, "number of blocks to encrypt")
	nonce := flag.Uint64("nonce", 1, "nonce")
	variant := flag.String("variant", "pasta4", "pasta3 or pasta4")
	irq := flag.Bool("irq", false, "use the interrupt-driven (WFI) driver instead of status polling (soc backend only)")
	keySeed := flag.String("key-seed", "socsim", "deterministic key seed")
	common := cli.RegisterCommon(flag.CommandLine, backend.NameSoC)
	flag.Parse()

	if err := run(*blocks, *nonce, common.CipherName(), *variant, *keySeed, *irq, common.Backend, common.AccelUnits); err != nil {
		cli.Exit("socsim", err)
	}
	if err := common.Finish(); err != nil {
		cli.Exit("socsim", err)
	}
}

func run(blocks int, nonce uint64, cipherName, variant, keySeed string, irq bool, backendName string, accelUnits int) error {
	if blocks < 1 {
		return fmt.Errorf("-blocks must be ≥ 1")
	}
	if irq && backendName != backend.NameSoC {
		return fmt.Errorf("-irq requires the %s backend (got %s)", backend.NameSoC, backendName)
	}
	params, err := cli.CipherParams(cipherName, variant, 17)
	if err != nil {
		return err
	}
	inst, refEng, err := cli.ReferenceEngine(cipherName, params, keySeed)
	if err != nil {
		return err
	}

	msg := ff.NewVec(blocks * inst.Block)
	for i := range msg {
		msg[i] = uint64(i) % inst.Mod.P()
	}

	var ct ff.Vec
	if backendName == backend.NameSoC && cipherName == backend.DefaultCipher {
		// The direct driver path keeps the co-simulation detail (retired
		// instructions, WFI sleep cycles) that the generic backend
		// Stats() deliberately flattens. It speaks to the PASTA
		// peripheral; other families take the generic path below, where
		// the capability probes arbitrate substrate support.
		par := inst.Params.(pasta.Params)
		key := pasta.KeyFromSeed(par, keySeed)
		encrypt := soc.EncryptBlocks
		if irq {
			encrypt = soc.EncryptBlocksIRQ
		}
		var stats soc.RunStats
		ct, stats, err = encrypt(par, key, nonce, msg)
		if err != nil {
			return err
		}
		fmt.Printf("%s on the 100 MHz RISC-V SoC\n", par)
		fmt.Printf("blocks:            %d (%d elements)\n", stats.Blocks, len(msg))
		fmt.Printf("core cycles:       %d (%d instructions retired)\n", stats.CoreCycles, stats.Instructions)
		fmt.Printf("accelerator cycles:%d (%.1f%% of total)\n", stats.AccelCycles,
			100*float64(stats.AccelCycles)/float64(stats.CoreCycles))
		fmt.Printf("per block:         %d cycles = %.1f µs (paper Table II: 15.9 µs for PASTA-4)\n",
			stats.CyclesPerBlock(), hw.Microseconds(stats.CyclesPerBlock(), hw.RISCVHz))
		fmt.Printf("total:             %.1f µs\n", stats.Microseconds)
		if irq {
			fmt.Printf("WFI sleep:         %d cycles (%.1f%% of runtime clock-gated)\n",
				stats.WaitCycles, 100*float64(stats.WaitCycles)/float64(stats.CoreCycles))
		}
	} else {
		b, err := cli.OpenCipher(backendName, cipherName, params, keySeed, 0, accelUnits)
		if err != nil {
			return err
		}
		defer b.Close()
		ct, err = b.Encrypt(context.Background(), nonce, msg)
		if err != nil {
			return err
		}
		st := b.Stats()
		fmt.Printf("%s on the %s backend\n", inst.Label, b.Name())
		fmt.Printf("blocks:            %d (%d elements)\n", st.Blocks, st.Elements)
		if st.AccelCycles > 0 {
			fmt.Printf("accelerator cycles:%d (%.1f µs at 75 MHz FPGA)\n", st.AccelCycles,
				hw.Microseconds(st.AccelCycles, hw.FPGAHz))
		}
	}

	// Verify against the registry's sequential reference engine:
	// ciphertext is the additive mask of the oracle keystream.
	want := ff.NewVec(len(msg))
	for b := 0; b < blocks; b++ {
		if err := refEng.KeyStreamInto(want[b*inst.Block:(b+1)*inst.Block], nonce, uint64(b)); err != nil {
			return err
		}
	}
	for i := range want {
		want[i] = inst.Mod.Add(msg[i], want[i])
	}
	if ct.Equal(want) {
		fmt.Println("verify: ciphertext matches software reference ✓")
	} else {
		return fmt.Errorf("verify FAILED: ciphertext mismatch")
	}
	return nil
}
