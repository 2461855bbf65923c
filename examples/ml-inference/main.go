// ML-inference demonstrates the paper's motivating use case (Sec. IV-C ❶:
// "ML inference applications encrypting low amounts of data, e.g. 32
// coefficients"): a client sends a small sensor feature vector under
// cheap PASTA encryption; the server trans-ciphers it and evaluates a
// linear model — weighted sum plus bias — entirely on encrypted data; the
// client decrypts only the score.
package main

import (
	"fmt"
	"log"

	"repro/internal/bfv"
	"repro/internal/ff"
	"repro/internal/hhe"
	"repro/internal/pasta"
)

func main() {
	params, err := hhe.NewToyParams(4, 1)
	if err != nil {
		log.Fatal(err)
	}
	mod := params.Pasta.Mod

	// The model (public to the server): score = Σ w_i·x_i + b (mod p).
	weights := ff.Vec{3, 7, 2, 11}
	bias := uint64(500)

	// --- client ----------------------------------------------------------
	key, err := pasta.NewRandomKey(params.Pasta)
	if err != nil {
		log.Fatal(err)
	}
	client, err := hhe.NewClient(params, key, []byte("ml-demo"))
	if err != nil {
		log.Fatal(err)
	}
	keys, err := client.PackedEvalKeys()
	if err != nil {
		log.Fatal(err)
	}
	server, err := hhe.NewPackedServer(params, client.Context(), keys)
	if err != nil {
		log.Fatal(err)
	}

	features := ff.Vec{120, 45, 210, 9} // e.g. normalized sensor readings
	const nonce = 3
	symCt, err := client.EncryptBlock(nonce, 0, features)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[client] features %v sent as a %d-element PASTA block (%d bytes on the wire)\n",
		features, len(symCt), ff.PackedSize(len(symCt), mod.Bits()))

	// --- server: trans-cipher, then evaluate the model homomorphically ----
	fheCt, err := server.Transcipher(nonce, 0, symCt)
	if err != nil {
		log.Fatal(err)
	}
	// The features sit in the slots replicated with period t = 4, so
	// rotations act mod t: after the slot-wise product with the weights,
	// rotating by 1 and then by 2 and adding leaves Σ wᵢ·xᵢ in every slot.
	ctx := client.Context()
	enc, err := bfv.NewEncoder(ctx)
	if err != nil {
		log.Fatal(err)
	}
	wPt, err := enc.EncodeReplicated(weights)
	if err != nil {
		log.Fatal(err)
	}
	score := ctx.MulPlain(fheCt, wPt)
	for _, step := range []int{1, 2} {
		rot, err := ctx.RotateColumns(score, step, keys.GKs)
		if err != nil {
			log.Fatal(err)
		}
		score = ctx.Add(score, rot)
	}
	bPt, err := enc.EncodeReplicated([]uint64{bias})
	if err != nil {
		log.Fatal(err)
	}
	score = ctx.AddPlain(score, bPt)
	fmt.Println("[server] evaluated Σ wᵢ·xᵢ + b on encrypted features")

	// --- client decrypts only the score ------------------------------------
	dec, err := client.DecryptPacked(score, 1)
	if err != nil {
		log.Fatal(err)
	}
	got := dec[0]
	want := bias
	for i := range weights {
		want = mod.Add(want, mod.Mul(weights[i], features[i]))
	}
	fmt.Printf("[client] decrypted score: %d (plaintext check: %d)\n", got, want)
	if got != want {
		log.Fatal("score mismatch")
	}

	// --- the latency argument of Sec. IV-C ❶ --------------------------------
	fmt.Println("\nWhy HHE for this workload (paper Sec. IV-C ❶):")
	fmt.Println("  FHE client encryption of ≤4096 coefficients: ≈1,884 µs — regardless of payload")
	fmt.Println("  PASTA-4 block on the paper's accelerator:       21.2 µs (FPGA) / 1.59 µs (ASIC)")
	fmt.Println("  → ≈89× less client latency for small inference payloads, and no ciphertext expansion.")
}
