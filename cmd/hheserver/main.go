// Command hheserver runs the HHE edge serving tier (internal/server): a
// TCP service speaking the internal/wire protocol that lets many clients
// register PASTA sessions — symmetric key plus the opaque FHE key
// registration blob of the Fig. 1 protocol — and stream encrypt and
// keystream requests against a selectable execution backend.
//
// Usage:
//
//	hheserver [-addr :8765] [-backend software|accel|soc]
//	          [-cipher pasta|hera]
//	          [-debug-addr :8766] [-workers N] [-queue N]
//	          [-batch-window 2ms] [-max-sessions N] [-rate N] [-burst N]
//	          [-request-timeout 10s] [-idle-timeout 2m]
//	          [-write-timeout 10s] [-metrics file|-]
//	          [-tls-cert cert.pem -tls-key key.pem] [-tls-client-ca ca.pem]
//	          [-resume-window 1m]
//	          [-transcipher-workers N] [-transcipher-queue N]
//	          [-transcipher-budget 30s] [-transcipher-cache N]
//	          [-max-eval-keys 256MiB]
//
// Sessions negotiate their cipher family per tenant in SessionOpen;
// -cipher only sets the default family applied to clients that do not
// name one (the capability probes still arbitrate which families the
// selected backend can actually run).
//
// The server also hosts the transciphering tier: sessions opened without
// a symmetric key may upload a BFV eval-key blob (chunked, resumable, up
// to -max-eval-keys) and submit symmetric PASTA ciphertexts, which the
// tier converts to BFV ciphertexts by evaluating the PASTA decryption
// circuit homomorphically. Circuit evaluations run on a dedicated heavy
// pool (-transcipher-workers/-transcipher-queue), segregated from the
// µs-scale keystream path; when the estimated backlog exceeds
// -transcipher-budget, requests are refused with a Retry-After hint.
// -transcipher-cache bounds the per-session Enc(KS) block cache that
// makes repeat offsets cheap.
//
// With -tls-cert/-tls-key the listener speaks TLS, so symmetric keys and
// resumption tokens never cross the wire in plaintext; -tls-client-ca
// additionally demands and verifies client certificates (mTLS).
// -resume-window parks disconnected sessions for the given duration so
// reconnecting clients can resume by token instead of re-uploading key
// blobs; 0 evicts on disconnect.
//
// SIGINT/SIGTERM trigger a graceful drain: the listener closes, queued
// work completes, connections are torn down, and — with -metrics — the
// final observability snapshot is written. The drain also prints an I/O
// summary: requests served, reply frames per vectored write (the outbox
// coalescing ratio), bytes written, and the frame-buffer pool hit rate.
package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/backend"
	"repro/internal/cli"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8765", "TCP listen address")
	debugAddr := flag.String("debug-addr", "", "HTTP debug/metrics listen address (empty = off)")
	workers := flag.Int("workers", 0, "scheduler worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "scheduler queue bound (0 = default 256)")
	batchWindow := flag.Duration("batch-window", 0, "max wait before a partial stream batch flushes (0 = default 2ms)")
	maxSessions := flag.Int("max-sessions", 0, "live session cap (0 = default 1024)")
	rate := flag.Float64("rate", 0, "per-session rate limit in elements/second (0 = off)")
	burst := flag.Float64("burst", 0, "rate-limit burst in elements (0 = one second of rate)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request deadline (0 = default 10s)")
	idleTimeout := flag.Duration("idle-timeout", 0, "per-connection idle deadline (0 = default 2m)")
	writeTimeout := flag.Duration("write-timeout", 0, "per-flush reply write deadline (0 = default 10s)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown budget")
	tlsCert := flag.String("tls-cert", "", "TLS certificate PEM file (with -tls-key, serves TLS)")
	tlsKey := flag.String("tls-key", "", "TLS private key PEM file")
	tlsClientCA := flag.String("tls-client-ca", "", "client CA PEM file; set to require client certificates (mTLS)")
	resumeWindow := flag.Duration("resume-window", time.Minute, "how long a disconnected session stays resumable by token (0 = evict on disconnect)")
	tcWorkers := flag.Int("transcipher-workers", 0, "transcipher tier heavy worker pool size (0 = default 1)")
	tcQueue := flag.Int("transcipher-queue", 0, "transcipher tier pending-job bound (0 = default 16)")
	tcBudget := flag.Duration("transcipher-budget", 0, "estimated transcipher backlog at which new circuit evaluations are refused with Retry-After (0 = default 30s)")
	tcCache := flag.Int("transcipher-cache", 0, "per-session Enc(KS) block cache capacity (0 = default 32)")
	maxEvalKeys := flag.String("max-eval-keys", "", "cap on a session's assembled eval-key upload, e.g. 256MiB or 64M (empty = default 256MiB)")
	common := cli.RegisterCommon(flag.CommandLine, backend.NameSoftware)
	flag.Parse()

	maxEvalKeysBytes, err := cli.ParseSize(*maxEvalKeys)
	if err != nil {
		cli.Exit("hheserver", err)
	}

	tlsCfg, err := buildTLSConfig(*tlsCert, *tlsKey, *tlsClientCA)
	if err != nil {
		cli.Exit("hheserver", err)
	}
	if err := run(*addr, *debugAddr, *drainTimeout, server.Config{
		Backend:        common.Backend,
		DefaultCipher:  common.Cipher,
		Workers:        *workers,
		AccelUnits:     common.AccelUnits,
		QueueBound:     *queue,
		BatchWindow:    *batchWindow,
		MaxSessions:    *maxSessions,
		RatePerSec:     *rate,
		RateBurst:      *burst,
		RequestTimeout: *requestTimeout,
		IdleTimeout:    *idleTimeout,
		WriteTimeout:   *writeTimeout,
		TLS:            tlsCfg,
		ResumeWindow:   *resumeWindow,

		TranscipherWorkers:     *tcWorkers,
		TranscipherQueue:       *tcQueue,
		TranscipherBudget:      *tcBudget,
		TranscipherCacheBlocks: *tcCache,
		MaxEvalKeysBytes:       maxEvalKeysBytes,
	}); err != nil {
		cli.Exit("hheserver", err)
	}
	if err := common.Finish(); err != nil {
		cli.Exit("hheserver", err)
	}
}

// buildTLSConfig assembles the server TLS configuration from PEM file
// flags. Both of cert/key or neither must be given; a client CA makes
// client certificates mandatory (mTLS) and requires TLS to be on.
func buildTLSConfig(certFile, keyFile, clientCAFile string) (*tls.Config, error) {
	if certFile == "" && keyFile == "" {
		if clientCAFile != "" {
			return nil, fmt.Errorf("-tls-client-ca requires -tls-cert and -tls-key")
		}
		return nil, nil
	}
	if certFile == "" || keyFile == "" {
		return nil, fmt.Errorf("-tls-cert and -tls-key must be set together")
	}
	cert, err := tls.LoadX509KeyPair(certFile, keyFile)
	if err != nil {
		return nil, fmt.Errorf("load TLS key pair: %w", err)
	}
	cfg := &tls.Config{
		Certificates: []tls.Certificate{cert},
		MinVersion:   tls.VersionTLS12,
	}
	if clientCAFile != "" {
		pem, err := os.ReadFile(clientCAFile)
		if err != nil {
			return nil, fmt.Errorf("read client CA: %w", err)
		}
		pool := x509.NewCertPool()
		if !pool.AppendCertsFromPEM(pem) {
			return nil, fmt.Errorf("client CA %s: no certificates found", clientCAFile)
		}
		cfg.ClientCAs = pool
		cfg.ClientAuth = tls.RequireAndVerifyClientCert
	}
	return cfg, nil
}

func run(addr, debugAddr string, drainTimeout time.Duration, cfg server.Config) error {
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	if debugAddr != "" {
		dbg, err := obs.ServeDebug(debugAddr, obs.Default())
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("hheserver: debug endpoint on http://%s/metrics\n", dbg.Addr())
	}

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	serveDone := make(chan error, 1)
	go func() {
		fmt.Printf("hheserver: serving %s sessions on %s\n", srv.Backend(), addr)
		serveDone <- srv.ListenAndServe(addr)
	}()

	select {
	case err := <-serveDone:
		return err
	case sig := <-sigCh:
		fmt.Printf("hheserver: %v, draining (budget %v)\n", sig, drainTimeout)
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fmt.Errorf("shutdown: %w", err)
		}
		if err := <-serveDone; err != nil {
			return err
		}
		fmt.Println("hheserver: drained")
		printIOSummary()
		return nil
	}
}

// printIOSummary reports the serving tier's I/O efficiency at drain:
// how many reply frames each vectored write carried and how often the
// shared frame-buffer pool was hit instead of the allocator.
func printIOSummary() {
	r := obs.Default()
	requests := r.Counter("server.requests.total").Value()
	flushes := r.Counter("server.write.flushes").Value()
	frames := r.Counter("server.write.frames").Value()
	bytes := r.Counter("server.write.bytes").Value()
	get := r.Counter("wire.pool.get").Value()
	miss := r.Counter("wire.pool.miss").Value()
	oversize := r.Counter("wire.pool.oversize").Value()

	coalesce := 0.0
	if flushes > 0 {
		coalesce = float64(frames) / float64(flushes)
	}
	hitRate := 0.0
	if get > 0 {
		hitRate = float64(get-miss-oversize) / float64(get) * 100
	}
	fmt.Printf("hheserver: served %d requests; %d reply frames in %d writes (%.2f frames/write, %d bytes); buffer pool %.1f%% hit\n",
		requests, frames, flushes, coalesce, bytes, hitRate)
}
