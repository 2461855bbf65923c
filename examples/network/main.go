// Network runs the Fig. 1 HHE protocol over a real TCP connection on the
// loopback interface against the serving tier (internal/server), and
// measures exactly the traffic split the paper's communication argument
// rests on: a heavy one-time setup (BFV evaluation keys + encrypted
// PASTA key) followed by symmetric-ciphertext data messages with no FHE
// expansion.
//
// The client opens a keyless session — it holds only the BFV secret key,
// the paper's asymmetric deployment — uploads its eval-key blob once,
// and asks the server to transcipher PASTA blocks into BFV ciphertexts.
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/ff"
	"repro/internal/hhe"
	"repro/internal/pasta"
	"repro/internal/server"
	"repro/internal/wire"
)

const (
	blockSize = 2
	rounds    = 1
	nonce     = 1
)

func main() {
	params, err := hhe.NewToyParams(blockSize, rounds)
	if err != nil {
		log.Fatal(err)
	}

	srv, err := server.New(server.Config{})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	runErr := runClient(ln.Addr().String(), params)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		log.Fatal(err)
	}
	if err := <-serveDone; err != nil {
		log.Fatal(err)
	}
	if runErr != nil {
		log.Fatal(runErr)
	}
}

// countingConn counts the bytes the client puts on the wire.
type countingConn struct {
	net.Conn
	sent atomic.Int64
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

func runClient(addr string, params hhe.Params) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	conn := &countingConn{Conn: nc}
	c := server.NewClient(conn)
	defer c.Close()

	key, err := pasta.NewRandomKey(params.Pasta)
	if err != nil {
		return err
	}
	client, err := hhe.NewClient(params, key, []byte("network-demo"))
	if err != nil {
		return err
	}

	// --- one-time setup traffic ---------------------------------------------
	sess, err := c.OpenSession(wire.SessionOpen{
		Width: uint8(params.Pasta.Mod.Bits()), Rounds: rounds, T: blockSize, Nonce: nonce,
	})
	if err != nil {
		return err
	}
	defer sess.Close()
	blob, err := client.EvalKeysBlob()
	if err != nil {
		return err
	}
	if err := sess.UploadEvalKeys(blob); err != nil {
		return err
	}
	setupBytes := conn.sent.Load()
	fmt.Printf("[client] one-time setup sent: %d bytes (session open + BFV pk/rlk/Galois keys + Enc(K))\n", setupBytes)

	// --- steady-state data traffic -------------------------------------------
	messages := []ff.Vec{{1111, 2222}, {3333, 4444}, {55, 65000}}
	var symCt ff.Vec
	for blk, msg := range messages {
		ct, err := client.EncryptBlock(nonce, uint64(blk), msg)
		if err != nil {
			return err
		}
		symCt = append(symCt, ct...)
	}
	replies, err := sess.Transcipher(nonce, 0, symCt)
	if err != nil {
		return err
	}
	dataBytes := conn.sent.Load() - setupBytes
	payload := ff.PackedSize(len(symCt), params.Pasta.Mod.Bits())
	fmt.Printf("[client] %d data blocks sent in one request: %d bytes total, %.1f bytes/element\n",
		len(messages), dataBytes, float64(dataBytes)/float64(len(symCt)))
	fmt.Printf("[client]   of which %d bytes bit-packed ciphertext (%.2f bytes/element — no FHE expansion) and %d bytes request header\n",
		payload, float64(payload)/float64(len(symCt)), dataBytes-int64(payload))

	// --- the server's transciphered BFV ciphertexts ---------------------------
	ctx := client.Context()
	for blk, reply := range replies {
		ct, err := ctx.UnmarshalCiphertext(reply)
		if err != nil {
			return err
		}
		got, err := client.DecryptPacked(ct, blockSize)
		if err != nil {
			return err
		}
		fmt.Printf("[client] block %d: %d-byte BFV ciphertext decrypts to %v\n", blk, len(reply), got)
		if !got.Equal(messages[blk]) {
			return fmt.Errorf("block %d: decrypted %v, want %v", blk, got, messages[blk])
		}
	}
	fmt.Println("[client] protocol complete ✓")
	return nil
}
