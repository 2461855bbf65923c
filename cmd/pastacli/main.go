// Command pastacli encrypts and decrypts files with any registered HHE
// stream cipher (PASTA by default; see -cipher) on any execution
// backend: the software engine (default), the cycle-accurate
// accelerator model, or the RISC-V SoC co-simulation. All substrates
// that can run the chosen cipher produce bit-identical ciphertext — the
// differential suite in internal/backend enforces that. Plaintext bytes
// are packed two per field element (valid for the default 17-bit
// modulus); ciphertext elements are stored as little-endian uint32
// words behind a small header that records the cipher family, so
// decryption can check the file matches the requested cipher.
//
// Usage:
//
//	pastacli -mode enc -key-seed secret -nonce 7 -in plain.bin -out ct.pasta
//	pastacli -mode dec -key-seed secret -in ct.pasta -out plain.bin
//	pastacli -mode enc -backend soc -key-seed secret -nonce 7 -in plain.bin -out ct.pasta
//	pastacli -mode enc -cipher hera -key-seed secret -nonce 7 -in plain.bin -out ct.hera
package main

import (
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"os"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/ff"
	"repro/internal/pasta"
)

const magic = "PSTA"

// cipherTag is the variant-byte value that flags an extended header:
// the byte is followed by a length-prefixed cipher family name. Plain
// PASTA files keep the historical one-byte pasta.Variant so old
// ciphertexts stay readable.
const cipherTag = 0xFF

func main() {
	mode := flag.String("mode", "", "enc or dec")
	variant := flag.String("variant", "pasta4", "pasta3 or pasta4")
	keySeed := flag.String("key-seed", "", "deterministic key seed (demo use; use a real KMS in production)")
	nonce := flag.Uint64("nonce", 0, "public nonce (enc mode; must be unique per key)")
	in := flag.String("in", "", "input file")
	outPath := flag.String("out", "", "output file")
	workers := flag.Int("workers", 0, "keystream worker goroutines (0 = GOMAXPROCS, 1 = sequential; software backend only)")
	common := cli.RegisterCommon(flag.CommandLine, "software")
	flag.Parse()

	if err := run(*mode, common.CipherName(), *variant, *keySeed, *nonce, *in, *outPath, *workers, common.Backend, common.AccelUnits); err != nil {
		cli.Exit("pastacli", err)
	}
	if err := common.Finish(); err != nil {
		cli.Exit("pastacli", err)
	}
}

func run(mode, cipherName, variant, keySeed string, nonce uint64, in, out string, workers int, backendName string, accelUnits int) error {
	if mode != "enc" && mode != "dec" {
		return fmt.Errorf("-mode must be enc or dec")
	}
	if in == "" || out == "" {
		return fmt.Errorf("-key-seed, -in and -out are required")
	}
	params, err := cli.CipherParams(cipherName, variant, 17)
	if err != nil {
		return err
	}
	cipher, err := cli.OpenCipher(backendName, cipherName, params, keySeed, workers, accelUnits)
	if err != nil {
		return err
	}
	defer cipher.Close()
	ctx := context.Background()
	data, err := os.ReadFile(in)
	if err != nil {
		return err
	}

	if mode == "enc" {
		elems := packBytes(data)
		ct, err := cipher.Encrypt(ctx, nonce, elems)
		if err != nil {
			return err
		}
		buf := make([]byte, 0, 4+1+8+8+4*len(ct))
		buf = append(buf, magic...)
		if cipherName == backend.DefaultCipher {
			v, err := cli.ParseVariant(variant)
			if err != nil {
				return err
			}
			buf = append(buf, byte(v))
		} else {
			buf = append(buf, cipherTag, byte(len(cipherName)))
			buf = append(buf, cipherName...)
		}
		buf = binary.LittleEndian.AppendUint64(buf, nonce)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(data)))
		for _, e := range ct {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(e))
		}
		return os.WriteFile(out, buf, 0o644)
	}

	// dec
	if len(data) < 21 || string(data[:4]) != magic {
		return fmt.Errorf("%s is not a pastacli ciphertext", in)
	}
	hdr := data[5:]
	if data[4] == cipherTag {
		// Extended header: the cipher family is recorded in the file.
		if len(data) < 6 || len(hdr) < 1+int(data[5]) {
			return fmt.Errorf("truncated cipher-name header in %s", in)
		}
		fileCipher := string(hdr[1 : 1+hdr[0]])
		if fileCipher != cipherName {
			return fmt.Errorf("ciphertext was made with cipher %q; pass -cipher %s", fileCipher, fileCipher)
		}
		hdr = hdr[1+hdr[0]:]
	} else {
		if cipherName != backend.DefaultCipher {
			return fmt.Errorf("ciphertext was made with the pasta family; drop -cipher %s", cipherName)
		}
		v, err := cli.ParseVariant(variant)
		if err != nil {
			return err
		}
		if pasta.Variant(data[4]) != v {
			return fmt.Errorf("ciphertext was made with a different variant; pass matching -variant")
		}
	}
	if len(hdr) < 16 {
		return fmt.Errorf("truncated header in %s", in)
	}
	hdrNonce := binary.LittleEndian.Uint64(hdr[:8])
	plainLen := binary.LittleEndian.Uint64(hdr[8:16])
	body := hdr[16:]
	if len(body)%4 != 0 {
		return fmt.Errorf("truncated ciphertext body")
	}
	ct := make(ff.Vec, len(body)/4)
	for i := range ct {
		ct[i] = uint64(binary.LittleEndian.Uint32(body[4*i:]))
	}
	elems, err := cipher.Decrypt(ctx, hdrNonce, ct)
	if err != nil {
		return err
	}
	plain := unpackBytes(elems)
	if uint64(len(plain)) < plainLen {
		return fmt.Errorf("ciphertext shorter than declared plaintext length")
	}
	return os.WriteFile(out, plain[:plainLen], 0o644)
}

// packBytes packs two plaintext bytes per field element (≤ 65535 < p).
func packBytes(data []byte) ff.Vec {
	out := make(ff.Vec, (len(data)+1)/2)
	for i := range out {
		v := uint64(data[2*i])
		if 2*i+1 < len(data) {
			v |= uint64(data[2*i+1]) << 8
		}
		out[i] = v
	}
	return out
}

func unpackBytes(elems ff.Vec) []byte {
	out := make([]byte, 2*len(elems))
	for i, e := range elems {
		out[2*i] = byte(e)
		out[2*i+1] = byte(e >> 8)
	}
	return out
}
