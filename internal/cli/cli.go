// Package cli holds the flag plumbing shared by the command-line
// front-ends (pastacli, hwsim, socsim, hhebench, hheserver). Every tool
// selects an execution backend the same way (-backend, validated against
// the registry in internal/backend), selects a cipher family the same
// way (-cipher, validated against the registry in internal/cipher) and
// writes the same observability snapshot (-metrics), so the boilerplate
// lives here once instead of five times.
package cli

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/backend"
	"repro/internal/cipher"
	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/pasta"
)

// Common are the flags every CLI shares.
type Common struct {
	Backend    string // execution backend name (registry key)
	Cipher     string // cipher family name ("" = tool default, usually pasta)
	Metrics    string // metrics snapshot path ("" = off, "-" = stdout)
	AccelUnits int    // accel-backend farm width (1 = single peripheral)
}

// RegisterCommon installs the shared -backend, -cipher, -metrics and
// -accel-units flags on fs (pass flag.CommandLine from a main package).
// defaultBackend picks the substrate the tool historically ran on, so
// plain invocations keep their old behaviour.
func RegisterCommon(fs *flag.FlagSet, defaultBackend string) *Common {
	c := &Common{}
	fs.StringVar(&c.Backend, "backend", defaultBackend,
		"execution backend: "+strings.Join(backend.Names(), ", "))
	fs.StringVar(&c.Cipher, "cipher", "",
		"cipher family: "+strings.Join(cipher.Names(), ", ")+" (default pasta)")
	fs.StringVar(&c.Metrics, "metrics", "",
		`write a JSON metrics snapshot to this file after the run ("-" = stdout)`)
	fs.IntVar(&c.AccelUnits, "accel-units", 1,
		"accel backend: number of modelled accelerator units in the farm")
	return c
}

// CipherName resolves the -cipher flag: "" means the tool default
// (PASTA, backend.DefaultCipher).
func (c *Common) CipherName() string {
	if c.Cipher == "" {
		return backend.DefaultCipher
	}
	return c.Cipher
}

// ParseVariant maps the CLI spelling of a PASTA variant to its typed
// value.
func ParseVariant(name string) (pasta.Variant, error) {
	switch name {
	case "pasta3":
		return pasta.Pasta3, nil
	case "pasta4":
		return pasta.Pasta4, nil
	}
	return 0, fmt.Errorf("unknown variant %q (want pasta3 or pasta4)", name)
}

// CipherParams builds the registry-facing cipher parameters from the
// CLI spelling: the -cipher family plus, for PASTA, the -variant flag
// (other families have no variant axis and reject a non-default
// -variant rather than silently ignoring it).
func CipherParams(cipherName, variant string, width uint) (cipher.Params, error) {
	p := cipher.Params{Width: width}
	if cipherName == backend.DefaultCipher {
		v, err := ParseVariant(variant)
		if err != nil {
			return cipher.Params{}, err
		}
		p.Variant = 4
		if v == pasta.Pasta3 {
			p.Variant = 3
		}
	} else if variant != "" && variant != "pasta4" {
		return cipher.Params{}, fmt.Errorf("-variant applies to the pasta family only (got -cipher %s)", cipherName)
	}
	return p, nil
}

// OpenCipher opens the named backend for any registered cipher family
// with a seed-derived key — the configuration every CLI builds.
// accelUnits sizes the accel backend's farm (≤ 1 = single unit; other
// backends ignore it). Unknown cipher names and cipher/substrate pairs
// the capability probes refuse surface the registry's typed errors.
func OpenCipher(backendName, cipherName string, p cipher.Params, keySeed string, workers, accelUnits int) (backend.BlockCipher, error) {
	if keySeed == "" {
		return nil, fmt.Errorf("-key-seed is required")
	}
	return backend.Open(backendName, backend.Config{
		Cipher:       cipherName,
		CipherParams: p,
		KeySeed:      keySeed,
		Workers:      workers,
		AccelUnits:   accelUnits,
	})
}

// OpenPasta opens the named backend for a standard PASTA instance with
// a seed-derived key. Kept for PASTA-only callers; tools with a -cipher
// flag go through OpenCipher.
func OpenPasta(backendName, variant string, width uint, keySeed string, workers, accelUnits int) (backend.BlockCipher, error) {
	p, err := CipherParams(backend.DefaultCipher, variant, width)
	if err != nil {
		return nil, err
	}
	return OpenCipher(backendName, backend.DefaultCipher, p, keySeed, workers, accelUnits)
}

// ReferenceEngine resolves a cipher instance and binds its sequential
// software engine to the seed-derived key — the oracle the CLIs verify
// backend output against, built purely through the registry.
func ReferenceEngine(cipherName string, p cipher.Params, keySeed string) (cipher.Instance, cipher.BlockEngine, error) {
	spec, err := cipher.Open(cipherName)
	if err != nil {
		return cipher.Instance{}, nil, err
	}
	inst, err := spec.Resolve(p)
	if err != nil {
		return cipher.Instance{}, nil, err
	}
	eng, err := spec.NewEngine(inst, spec.KeyFromSeed(inst, keySeed))
	if err != nil {
		return cipher.Instance{}, nil, err
	}
	return inst, eng, nil
}

// ReferenceKeystream runs the registry oracle for count blocks starting
// at block `first` and returns the concatenated keystream.
func ReferenceKeystream(cipherName string, p cipher.Params, keySeed string, nonce, first uint64, count int) (ff.Vec, error) {
	inst, eng, err := ReferenceEngine(cipherName, p, keySeed)
	if err != nil {
		return nil, err
	}
	out := ff.NewVec(count * inst.Block)
	for b := 0; b < count; b++ {
		if err := eng.KeyStreamInto(out[b*inst.Block:(b+1)*inst.Block], nonce, first+uint64(b)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Finish writes the metrics snapshot if one was requested. Call it after
// the tool's main work, whether or not that work succeeded — a failed
// run's counters are exactly what you want to inspect.
func (c *Common) Finish() error {
	if c.Metrics == "" {
		return nil
	}
	return obs.WriteSnapshot(obs.Default(), c.Metrics)
}

// Exit prints err prefixed with the program name and terminates with a
// non-zero status.
func Exit(prog string, err error) {
	fmt.Fprintln(os.Stderr, prog+":", err)
	os.Exit(1)
}

// ParseSize parses a human-readable byte size for flags such as
// hheserver's -max-eval-keys: a non-negative integer with an optional
// binary-power suffix K/M/G (case-insensitive; "KiB"/"MB"-style spellings
// accepted, all meaning 1024-based units). "" and "0" both mean zero,
// which flags interpret as "use the built-in default".
func ParseSize(s string) (uint64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, nil
	}
	upper := strings.ToUpper(t)
	var shift uint
	for _, suf := range []struct {
		text  string
		shift uint
	}{{"KIB", 10}, {"MIB", 20}, {"GIB", 30}, {"KB", 10}, {"MB", 20}, {"GB", 30}, {"K", 10}, {"M", 20}, {"G", 30}, {"B", 0}} {
		if strings.HasSuffix(upper, suf.text) {
			upper = strings.TrimSpace(strings.TrimSuffix(upper, suf.text))
			shift = suf.shift
			break
		}
	}
	n, err := strconv.ParseUint(upper, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("cli: invalid size %q (want e.g. 1048576, 256MiB, 4G)", s)
	}
	if shift > 0 && n > (^uint64(0))>>shift {
		return 0, fmt.Errorf("cli: size %q overflows", s)
	}
	return n << shift, nil
}
