package main

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
)

// inProcess serves the workload's server configuration — the
// server.Config equivalent of workload.serverArgs — from this process.
func inProcess(w workload) func() (*target, error) {
	return func() (*target, error) {
		srv, err := server.New(server.Config{Backend: w.backend, TranscipherWorkers: w.tcWorkers})
		if err != nil {
			return nil, err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		dbg, err := obs.ServeDebug("127.0.0.1:0", obs.Default())
		if err != nil {
			ln.Close()
			return nil, err
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		return &target{addr: ln.Addr().String(), debugAddr: dbg.Addr(), pid: os.Getpid(), stop: func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			err := srv.Shutdown(ctx)
			return errors.Join(err, <-served, dbg.Close())
		}}, nil
	}
}

func smokeRun(t *testing.T, w workload, traced bool) (*result, runConfig) {
	t.Helper()
	cfg := runConfig{w: w, seed: 5, window: time.Second, traced: traced, start: inProcess(w)}
	if traced {
		cfg.traceFile = filepath.Join(t.TempDir(), "trace.json")
	}
	res, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := res.record(cfg, 1)
	if !rec.Correct || rec.Failed != 0 || rec.Attempted == 0 || res.checked == 0 {
		t.Fatalf("run: correct %v, %d of %d failed, %d verified", rec.Correct, rec.Failed, rec.Attempted, res.checked)
	}
	return res, cfg
}

// TestSmoke runs about a second of every workload against an in-process
// server and checks that every reply verifies and every metric of its
// mode is reported.
func TestSmoke(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			w := testWorkload(t, wl.name)
			traced := w.name == "mixed" // covers the stream and transcipher replays
			res, cfg := smokeRun(t, w, traced)
			rec := res.record(cfg, 1)
			want := []string{"setup_s", "p50_ms", "p90_ms", "elems_s", "server_rss_mb"}
			if traced {
				want = want[:0]
				for _, l := range layerNames {
					want = append(want, l.name)
				}
				if _, err := os.Stat(cfg.traceFile); err != nil {
					t.Errorf("trace file: %v", err)
				}
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%d metrics, want %d", len(rec.Metrics), len(want))
			}
			for _, name := range want {
				if _, ok := rec.Metrics[name]; !ok {
					t.Errorf("metric %s missing", name)
				}
			}
		})
	}
}

// TestWrongOracleFails checks the oracle can fail: replies verified
// against a different session key must mismatch.
func TestWrongOracleFails(t *testing.T) {
	w := testWorkload(t, "stream-accel")
	res, _ := smokeRun(t, w, false)
	in := *res.in
	in.keys = append([][]uint64(nil), in.keys...)
	for s := range in.keys {
		k := append([]uint64(nil), in.keys[s]...)
		k[0] = (k[0] + 1) % 65537
		in.keys[s] = k
	}
	_, bad, err := verify(&in, res.keyed.traffic, res.keyed.out, res.keyed.reps)
	if err != nil {
		t.Fatal(err)
	}
	if bad == 0 {
		t.Fatal("every reply verified against the wrong key")
	}
}
