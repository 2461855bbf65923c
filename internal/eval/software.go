package eval

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/backend"
	"repro/internal/cipher"
	"repro/internal/ff"
)

// SoftwareRow is one measured data point of a keystream substrate:
// unlike the modelled tables, these numbers come from actually running
// the backend on the host, so they quantify the software baseline the
// paper's accelerator is compared against (Table II's "CPU [9]" column)
// on *this* machine — or, for the hardware-model backends, how fast the
// host can turn the simulation crank.
type SoftwareRow struct {
	Backend     string
	Cipher      string // registry family name ("pasta", "hera")
	Scheme      string // instance shorthand within the family ("PASTA-3")
	Workers     int    // goroutines used (1 = sequential reference path)
	Blocks      int
	Elems       int
	Elapsed     time.Duration
	ElemsPerSec float64
	Speedup     float64 // vs the workers=1 row of the same scheme
}

// throughputInstance is one (cipher family, params) point of the sweep.
type throughputInstance struct {
	cipher string
	params cipher.Params
	scheme string
}

// throughputSweep expands cipher family names into measured instances:
// PASTA contributes both public variants, every other family its
// recommended default. nil/empty ciphers means every registered family —
// the PASTA-vs-HERA comparison the throughput table exists for.
func throughputSweep(ciphers []string) ([]throughputInstance, error) {
	if len(ciphers) == 0 {
		ciphers = cipher.Names()
	}
	var list []throughputInstance
	for _, name := range ciphers {
		if _, err := cipher.Open(name); err != nil {
			return nil, err
		}
		if name == backend.DefaultCipher {
			list = append(list,
				throughputInstance{name, cipher.Params{Variant: 3}, "PASTA-3"},
				throughputInstance{name, cipher.Params{Variant: 4}, "PASTA-4"})
			continue
		}
		list = append(list, throughputInstance{name, cipher.Params{}, strings.ToUpper(name)})
	}
	return list, nil
}

// ThroughputCiphers measures keystream throughput for the named cipher
// families (nil = every registered family) on one execution backend,
// over `blocks` CTR blocks. The software backend is measured once on the
// sequential reference path and once fanned out over `workers`
// goroutines (0 = GOMAXPROCS); both produce bit-identical keystreams, so
// the comparison is purely about throughput. The hardware-model
// backends serialize on the single simulated peripheral and get one row
// at workers = 1 — except the accel backend with accelUnits > 1, which
// compares the single peripheral against an N-way farm driven by N
// concurrent block requests. Cipher/substrate pairs the capability
// probes refuse are skipped, so a full-registry sweep on the accel
// backend silently drops the software-only families rather than
// failing; if nothing at all can run on the substrate, that is an
// error.
func ThroughputCiphers(backendName string, ciphers []string, workers, blocks, accelUnits int) ([]SoftwareRow, error) {
	if blocks <= 0 {
		return nil, fmt.Errorf("eval: blocks must be positive")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sweep, err := throughputSweep(ciphers)
	if err != nil {
		return nil, err
	}
	workerSweep := []int{1, workers}
	farm := backendName == backend.NameAccel && accelUnits > 1
	if farm {
		workerSweep = []int{1, accelUnits}
	} else if backendName != backend.NameSoftware {
		workerSweep = []int{1}
	}
	ctx := context.Background()
	var rows []SoftwareRow
	skipped := 0
	for _, ti := range sweep {
		var base float64
		for _, w := range workerSweep {
			cfg := backend.Config{
				Cipher:       ti.cipher,
				CipherParams: ti.params,
				KeySeed:      "software-throughput",
				Workers:      w,
			}
			if farm {
				cfg.AccelUnits = w // one in-flight block per farm unit
			}
			b, err := backend.Open(backendName, cfg)
			if errors.Is(err, backend.ErrUnsupported) {
				skipped++
				break // the substrate cannot run this family; next instance
			}
			if err != nil {
				return nil, err
			}
			// Warm the workspace pools and page in the code paths.
			if err := b.KeyStreamInto(ctx, ff.NewVec(b.BlockSize()), 0, 0); err != nil {
				b.Close()
				return nil, err
			}
			start := time.Now()
			ks, err := b.KeyStreamBlocks(ctx, 1, 0, blocks)
			elapsed := time.Since(start)
			b.Close()
			if err != nil {
				return nil, err
			}
			eps := float64(len(ks)) / elapsed.Seconds()
			if w == 1 {
				base = eps
			}
			rows = append(rows, SoftwareRow{
				Backend:     backendName,
				Cipher:      ti.cipher,
				Scheme:      ti.scheme,
				Workers:     w,
				Blocks:      blocks,
				Elems:       len(ks),
				Elapsed:     elapsed,
				ElemsPerSec: eps,
				Speedup:     eps / base,
			})
			if w == 1 && workerSweep[len(workerSweep)-1] == 1 {
				break // sequential row already covers it
			}
		}
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("eval: no requested cipher instance runs on the %s backend (%d skipped as unsupported)",
			backendName, skipped)
	}
	return rows, nil
}
