// Command hheload is the repository's end-to-end benchmark. It drives a
// real hheserver over loopback TCP through the public server.Client and
// Session API with inputs generated from a seed, verifies the replies
// against client-side oracles, and prints the workload's metrics.
//
// Usage (from the repository root; run.sh builds both binaries):
//
//	sh cmd/hheload/run.sh --workload stream-accel --seed 1 --seconds 12 --trace 0
//	sh cmd/hheload/run.sh --workload mixed --seed 1 --seconds 12 --trace 1
//	.bench_build/hheload -compare base.jsonl head.jsonl
//
// With --trace 0 the last line of standard output is a JSON object with
// the end-to-end metrics of BENCHMARK.json; with --trace 1 it carries
// the per-layer metrics, and a Chrome trace-event file of the run's
// spans is written next to the result file. Every valid, verified run
// appends a result record, with the run environment, to
// <outdir>/results.jsonl; -compare reads two such files. README.md
// describes the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"
)

const (
	maxLateP90  = time.Millisecond // generator lateness above this invalidates a run
	clientProcs = 2                // GOMAXPROCS bound of the load generator
)

func main() {
	var (
		name    = flag.String("workload", "stream-accel", "workload name")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 12, "measured window in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		bin     = flag.String("server", ".bench_build/hheserver", "hheserver binary")
		outdir  = flag.String("outdir", ".bench_build", "directory for results.jsonl and trace files")
		compare = flag.Bool("compare", false, "compare two result files: -compare base.jsonl head.jsonl")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fail(errors.New("-compare needs two result files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	w, err := lookupWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(errors.New("-seconds must be ≥ 1 and -trace 0 or 1"))
	}
	if _, err := os.Stat(*bin); err != nil {
		fail(fmt.Errorf("hheserver binary: %w (run.sh builds it)", err))
	}
	runtime.GOMAXPROCS(min(clientProcs, runtime.NumCPU()))
	procs := runtime.NumCPU()

	cfg := runConfig{
		w: w, seed: *seed, window: time.Duration(*seconds) * time.Second, traced: *trace == 1,
		start: func() (*target, error) { return startProcess(*bin, w.serverArgs(), procs) },
	}
	if cfg.traced {
		cfg.traceFile = filepath.Join(*outdir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
	}
	res, err := run(cfg)
	if err != nil {
		fail(err)
	}
	rec := res.record(cfg, procs)
	printSummary(os.Stderr, rec)
	if res.lateP90 > maxLateP90 {
		fail(fmt.Errorf("invalid run: generator lateness p90 %v exceeds %v", res.lateP90, maxLateP90))
	}
	// Only valid, verified runs are recorded, so -compare reads no other.
	if rec.Correct {
		if err := appendRecord(filepath.Join(*outdir, "results.jsonl"), rec); err != nil {
			fail(err)
		}
	}
	line, err := json.Marshal(resultLine{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "hheload:", err)
	os.Exit(2)
}

// runConfig is one benchmark run.
type runConfig struct {
	w         workload
	seed      uint64
	window    time.Duration
	traced    bool
	traceFile string // traced runs: where the spans go ("" = not written)
	start     func() (*target, error)
}

// result is what one run measured.
type result struct {
	setups    []time.Duration
	in        *inputs
	keyed, tc load
	from, to  int64 // measured window, ns after the load starts
	rss       int64
	lateP90   time.Duration
	checked   int
	bad       int
	layers    map[string]metric // traced runs
}

// run sets the server up w.setups times (once when traced), keeping the
// last, drives the warm-up and the window, stops the server, and checks
// the replies.
func run(cfg runConfig) (*result, error) {
	w := cfg.w
	in, err := genInputs(w, cfg.seed, w.warmup+cfg.window)
	if err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	res := &result{in: in, from: int64(w.warmup), to: int64(w.warmup + cfg.window)}

	setups := max(w.setups, 1)
	if cfg.traced {
		setups = 1
	}
	var r *rig
	for i := range setups {
		// Every set-up starts from a collected heap, so the garbage left
		// by input generation or by the set-up before is not charged to
		// one set-up and not another.
		runtime.GC()
		start := time.Now()
		if r, err = openRig(w, in, cfg.start); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		res.setups = append(res.setups, time.Since(start))
		if i < setups-1 {
			if err := r.close(); err != nil {
				return nil, err
			}
		}
	}

	var tr *tracer
	if cfg.traced {
		tr = newTracer(r.tgt, res.from, res.to)
	}
	res.keyed, res.tc = drive(r, w, in, res.from, res.to, tr)
	rss, rssErr := peakRSS(r.tgt.pid)
	res.rss = rss
	if err := errors.Join(tr.finish(), rssErr, r.close(), res.keyed.err, res.tc.err); err != nil {
		return nil, err
	}

	for _, l := range []*load{&res.keyed, &res.tc} {
		c, b, err := verify(in, l.traffic, l.out, l.reps)
		if err != nil {
			return nil, fmt.Errorf("verify: %w", err)
		}
		res.checked += c
		res.bad += b
		if l.traffic.open {
			lw := collect(l.traffic.ops, l.out, l.traffic.ops[0][0].kind, res.from, res.to)
			res.lateP90 = max(res.lateP90, time.Duration(quantile(lw.late, 0.9)))
		}
	}

	if cfg.traced {
		if res.layers, err = tr.layerMetrics(res, cfg); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// load is one traffic stream and what happened to each of its ops.
type load struct {
	traffic traffic
	out     [][]outcome
	reps    [][]reply
	err     error // a closed-loop generator failed
}

func newLoad(tr traffic) load {
	l := load{traffic: tr, out: make([][]outcome, len(tr.ops)), reps: make([][]reply, len(tr.ops))}
	for i, ops := range tr.ops {
		l.out[i] = make([]outcome, len(ops))
		l.reps[i] = make([]reply, len(ops))
	}
	return l
}

// drive runs the keyed and transcipher traffic side by side over the
// warm-up and the window.
func drive(r *rig, w workload, in *inputs, from, to int64, tr *tracer) (keyed, tc load) {
	keyed, tc = newLoad(in.keyed), newLoad(in.tc)
	t0 := time.Now()
	tr.start(t0)
	var wg sync.WaitGroup
	for _, l := range []*load{&keyed, &tc} {
		if len(l.traffic.ops) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops := l.traffic.ops
			if l.traffic.open {
				runOpen(t0, ops[0], l.out[0], openWorkers, func(i int) error {
					return r.send(in, &ops[0][i], &l.reps[0][i])
				})
				return
			}
			if err := runClosed(t0, t0.Add(time.Duration(to)), l, func(s, k int) error {
				return r.send(in, &l.traffic.ops[s][k], &l.reps[s][k])
			}); err != nil {
				l.err = fmt.Errorf("closed loop: %w", err)
			}
		}()
	}
	wg.Wait()
	return keyed, tc
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one run's entry in results.jsonl.
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Trace    int     `json:"trace"`
	WindowS  float64 `json:"window_s"`
	WarmupS  float64 `json:"warmup_s"`
	// OfferedReqS is the keyed open loop's arrival rate; 0 for closed loops.
	OfferedReqS float64            `json:"offered_req_s"`
	Correct     bool               `json:"correct"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Checked     int                `json:"checked"`
	Metrics     map[string]metric  `json:"metrics"`
	Details     map[string]float64 `json:"details"`
	Env         runEnv             `json:"env"`
}

// runEnv is the environment a result was measured in.
type runEnv struct {
	NProc            int    `json:"nproc"`
	GOMAXPROCSClient int    `json:"gomaxprocs_client"`
	GOMAXPROCSServer int    `json:"gomaxprocs_server"`
	CPU              string `json:"cpu"`
	GoVersion        string `json:"go_version"`
	Commit           string `json:"commit"`
}

// record turns a result into the reported metrics and details.
func (res *result) record(cfg runConfig, serverProcs int) record {
	w := cfg.w
	rec := record{
		Workload: w.name, Seed: cfg.seed, WindowS: cfg.window.Seconds(), WarmupS: w.warmup.Seconds(),
		OfferedReqS: w.rate, Details: map[string]float64{}, Checked: res.checked,
		Env: runEnv{
			NProc: runtime.NumCPU(), GOMAXPROCSClient: runtime.GOMAXPROCS(0), GOMAXPROCSServer: serverProcs,
			CPU: cpuModel(), GoVersion: runtime.Version(), Commit: gitCommit(),
		},
	}
	if cfg.traced {
		rec.Trace = 1
	}

	var elemsS float64
	var prim []int64 // the gated operation's latencies, sorted
	for _, l := range []load{res.keyed, res.tc} {
		if len(l.traffic.ops) == 0 {
			continue
		}
		k := l.traffic.ops[0][0].kind
		lw := collect(l.traffic.ops, l.out, k, res.from, res.to)
		rec.Attempted += len(lw.lats)
		rec.Failed += lw.failed
		elemsS += rate(l, res.from, res.to)
		sorted := lw.sorted()
		if k == w.primary() {
			prim = sorted
		}
		kd := k.String()
		rec.Details[kd+".n"] = float64(len(lw.lats))
		rec.Details[kd+".failed"] = float64(lw.failed)
		for _, q := range []float64{0.5, 0.9, 0.99} {
			rec.Details[fmt.Sprintf("%s.p%g_ms", kd, q*100)] = ms(quantile(sorted, q))
		}
		if q, ok := tailQuantile(len(sorted)); ok {
			rec.Details[kd+".tail_q"] = q
			rec.Details[kd+".tail_ms"] = ms(quantile(sorted, q))
		}
		if l.traffic.open {
			rec.Details[kd+".late_p50_ms"] = ms(quantile(lw.late, 0.5))
			rec.Details[kd+".late_p90_ms"] = ms(quantile(lw.late, 0.9))
			rec.Details[kd+".late_max_ms"] = ms(quantile(lw.late, 1))
		}
		if k == opTranscipher && w.tcRepeat > 0 {
			fresh, repeat := splitRepeats(l, res.from, res.to)
			rec.Details["transcipher.fresh_p50_ms"] = ms(quantile(fresh, 0.5))
			rec.Details["transcipher.repeat_p50_ms"] = ms(quantile(repeat, 0.5))
		}
	}
	rec.Correct = res.bad == 0
	rec.Details["load.late_p90_ms"] = ms(int64(res.lateP90))
	rec.Details["verify.checked"] = float64(res.checked)
	rec.Details["verify.mismatched"] = float64(res.bad)
	setups := make([]float64, len(res.setups))
	for i, d := range res.setups {
		setups[i] = d.Seconds()
	}
	rec.Details["setup.min_s"], rec.Details["setup.max_s"] = slices.Min(setups), slices.Max(setups)

	if cfg.traced {
		rec.Metrics = res.layers
		return rec
	}
	rec.Metrics = map[string]metric{
		"setup_s":       {median(setups), "s"},
		"p50_ms":        {ms(quantile(prim, 0.5)), "ms"},
		"p90_ms":        {ms(quantile(prim, 0.9)), "ms"},
		"elems_s":       {elemsS, "elem/s"},
		"server_rss_mb": {float64(res.rss) / (1 << 20), "MB"},
	}
	return rec
}

// splitRepeats separates the window's transcipher latencies into
// requests for a block first sent then and repeats of a block the
// session sent before, which the server's Enc(KS) cache serves.
func splitRepeats(l load, from, to int64) (fresh, repeat []int64) {
	for s, ops := range l.traffic.ops {
		seen := map[int32]bool{}
		for i, o := range ops {
			again := seen[o.block]
			seen[o.block] = true
			if out := l.out[s][i]; out.sent && out.start >= from && out.start < to {
				if again {
					repeat = append(repeat, out.lat)
				} else {
					fresh = append(fresh, out.lat)
				}
			}
		}
	}
	slices.Sort(fresh)
	slices.Sort(repeat)
	return fresh, repeat
}

// printSummary writes the run's metrics and details for a reader.
func printSummary(f *os.File, rec record) {
	fmt.Fprintf(f, "hheload: %s seed %d, %.0f s window after %.1f s warm-up: %d requests, %d failed, %d replies verified\n",
		rec.Workload, rec.Seed, rec.WindowS, rec.WarmupS, rec.Attempted, rec.Failed, rec.Checked)
	for _, n := range slices.Sorted(maps.Keys(rec.Metrics)) {
		fmt.Fprintf(f, "  %-34s %14.4f %s\n", n, rec.Metrics[n].Value, rec.Metrics[n].Unit)
	}
	for _, n := range slices.Sorted(maps.Keys(rec.Details)) {
		fmt.Fprintf(f, "  %-34s %14.4f\n", n, rec.Details[n])
	}
}

// appendRecord adds one JSON line to a result file.
func appendRecord(path string, rec record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checked-out commit, or "unknown" outside a git tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
