package main

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testWorkload is a workload cut down for tests: no warm-up, two
// set-ups, a modest open-loop rate and the t = 4 toy transcipher
// instance, whose key generation and circuit are cheap enough for the
// race detector.
func testWorkload(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.warmup, w.setups = 0, 2
	w.rate = min(w.rate, 1000)
	if w.tc > 0 {
		w.tcT = 4
	}
	return w
}

// drawInputs generates a workload's inputs and draws n requests from
// every closed-loop session, as a run would.
func drawInputs(t *testing.T, w workload, seed uint64, n int) *inputs {
	t.Helper()
	in, err := genInputs(w, seed, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*traffic{&in.keyed, &in.tc} {
		for s, next := range tr.next {
			for range n {
				o, err := next()
				if err != nil {
					t.Fatal(err)
				}
				tr.ops[s] = append(tr.ops[s], o)
			}
		}
	}
	return in
}

func TestInputsAreSeeded(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			w := testWorkload(t, wl.name)
			a, b, c := drawInputs(t, w, 7, 64), drawInputs(t, w, 7, 64), drawInputs(t, w, 8, 64)
			// The eval-key blob is left out: bfv.GenGaloisKeys draws the
			// keys in map order, so the blob is an equivalent key set
			// each time but not the same bytes.
			same := func(x, y *inputs) bool {
				return reflect.DeepEqual(x.keys, y.keys) && reflect.DeepEqual(x.nonces, y.nonces) &&
					reflect.DeepEqual(x.pool, y.pool) && reflect.DeepEqual(x.keyed.ops, y.keyed.ops) &&
					reflect.DeepEqual(x.tc.ops, y.tc.ops) && reflect.DeepEqual(x.blocks, y.blocks)
			}
			if !same(a, b) {
				t.Fatal("the same seed gave different inputs")
			}
			if reflect.DeepEqual(a.pool, c.pool) || (w.keyed > 0 && reflect.DeepEqual(a.keyed.ops, c.keyed.ops)) ||
				(w.tc > 0 && reflect.DeepEqual(a.blocks, c.blocks)) {
				t.Fatal("a different seed gave the same inputs")
			}
		})
	}
}

// TestClosedLoopKeepsUp: against a server that answers at once, every
// closed-loop session keeps sending for the whole run; requests are drawn
// as they are sent, so none runs out however fast the server is.
func TestClosedLoopKeepsUp(t *testing.T) {
	for _, name := range []string{"bulk-software", "transcipher-cold"} {
		t.Run(name, func(t *testing.T) {
			in, err := genInputs(testWorkload(t, name), 3, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			tr := in.keyed
			if name == "transcipher-cold" {
				tr = in.tc
			}
			l := newLoad(tr)
			const length = 200 * time.Millisecond
			t0 := time.Now()
			if err := runClosed(t0, t0.Add(length), &l, func(s, k int) error { return nil }); err != nil {
				t.Fatal(err)
			}
			for s, out := range l.out {
				// 1000 requests a second is far above what either
				// workload's server answers (about 17 and 2 a second).
				if len(out) < int(length.Seconds()*1000) {
					t.Errorf("session %d sent %d requests in %v", s, len(out), length)
				}
				if last := out[len(out)-1]; last.start < int64(length*9/10) {
					t.Errorf("session %d stopped sending %v into a %v run", s, time.Duration(last.start), length)
				}
			}
		})
	}
}

// TestOpenLoopTimesFromDue: one worker and a server that stalls once for
// 50 ms. The requests due during the stall wait for the worker, and
// their latency and the generator's lateness both show the wait.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const n, stallAt = 100, 10
	ops := make([]op, n)
	for i := range ops {
		ops[i].due = int64(i) * int64(time.Millisecond)
	}
	out := make([]outcome, n)
	runOpen(time.Now(), ops, out, 1, func(i int) error {
		if i == stallAt {
			time.Sleep(50 * time.Millisecond)
		}
		return nil
	})
	if got := time.Duration(out[stallAt+1].lat); got < 40*time.Millisecond {
		t.Errorf("request due 1 ms after the stall took %v from its due time, want ≥ 40ms", got)
	}
	if got := time.Duration(out[stallAt+1].late); got < 40*time.Millisecond {
		t.Errorf("generator lateness after the stall %v, want ≥ 40ms", got)
	}
	if got := time.Duration(out[stallAt-1].lat); got > 20*time.Millisecond {
		t.Errorf("request before the stall took %v", got)
	}
	w := collect([][]op{ops}, [][]outcome{out}, 0, 0, 1<<62)
	if late := time.Duration(quantile(w.late, 1)); late < 40*time.Millisecond {
		t.Errorf("max lateness %v does not report the stall", late)
	}
}

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{19, 0, false}, {20, 0.5, true}, {99, 0.5, true}, {100, 0.9, true},
		{999, 0.9, true}, {1000, 0.99, true}, {9999, 0.99, true}, {10000, 0.999, true},
	} {
		q, ok := tailQuantile(tc.n)
		if q != tc.q || ok != tc.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", tc.n, q, ok, tc.q, tc.ok)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	got := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if got != [3]float64{2.75, 5.5, 8.25} {
		t.Fatalf("quartiles = %v", got)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]: the exclusive
	// method extrapolates past the data.
	if got := quartiles([]float64{3, 1}); got != [3]float64{0.5, 2, 3.5} {
		t.Fatalf("quartiles of two = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	for _, tc := range []struct {
		name string
		head []float64
		want string
	}{
		{"same", shift(0.5), "unchanged"},
		{"faster", shift(-10), "better"},
		{"slower", shift(20), "worse"},
		{"noisy", []float64{60, 140, 70, 130, 100, 90, 150, 50, 100, 110}, "unresolved"},
	} {
		if got, _, _ := verdict(base, tc.head, true, 0.1); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestCompareGatesFailures: a head whose latencies are unchanged but
// whose requests fail more often is worse, and runs recorded as not
// verified are not compared.
func TestCompareGatesFailures(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, failed int, bad float64) string {
		path := filepath.Join(dir, name)
		for i := range 10 {
			rec := record{Workload: "stream-accel", Correct: true, Attempted: 1000, Failed: failed,
				Metrics: map[string]metric{"p50_ms": {2 + float64(i%3)/100, "ms"}}}
			if i == 0 {
				// A run that failed verification, far off the others.
				rec.Correct, rec.Metrics["p50_ms"] = false, metric{bad, "ms"}
			}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base, head := write("base.jsonl", 0, 2), write("head.jsonl", 1, 50)

	var out strings.Builder
	worse, err := compareFiles(&out, base, head)
	if err != nil {
		t.Fatal(err)
	}
	if !worse {
		t.Errorf("more failures did not read worse:\n%s", out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		f := strings.Fields(line)
		if len(f) > 1 && f[1] == "p50_ms" && f[len(f)-1] != "unchanged" {
			t.Errorf("p50_ms row reads the unverified run: %s", line)
		}
		if len(f) > 1 && f[1] == "failed" && f[len(f)-1] != "worse" {
			t.Errorf("failed row: %s", line)
		}
	}
}
