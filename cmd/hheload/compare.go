package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
)

// gate is one value -compare judges on each workload it applies to: its
// direction and the regression it may show before it reads worse.
type gate struct {
	name        string
	lowerBetter bool
	bound       float64
	workload    string // "" = every workload
}

// gates are 10 % for times and memory and 5 % for throughput, on every
// workload. BENCHMARK.json's bounds are as wide or wider: there one bound
// per metric holds on all four workloads at once, with no "unresolved"
// outcome, so each must exceed the noisiest workload's run-to-run
// spread. Here a row whose runs spread wider than its bound reads
// unresolved, so the tight bound still gates the steady workloads.
//
// On mixed the transcipher p50 of fresh and of repeated blocks are gated
// apart: with half the requests served by the Enc(KS) cache, the p50 of
// all of them falls between the two modes.
var gates = []gate{
	{name: "setup_s", lowerBetter: true, bound: 0.10},
	{name: "p50_ms", lowerBetter: true, bound: 0.10},
	{name: "p90_ms", lowerBetter: true, bound: 0.10},
	{name: "elems_s", bound: 0.05},
	{name: "server_rss_mb", lowerBetter: true, bound: 0.10},
	{name: "transcipher.fresh_p50_ms", lowerBetter: true, bound: 0.10, workload: "mixed"},
	{name: "transcipher.repeat_p50_ms", lowerBetter: true, bound: 0.10, workload: "mixed"},
}

// verdict compares one metric of one workload between a base and a head
// set of runs, given in the order they ran:
//
//   - better: at least ten pairs, the head wins at least 9 in 10 of them
//     and the medians differ by more than the base's interquartile range;
//   - unresolved: either side's interquartile range exceeds the bound,
//     unless every head run reads better than every base run;
//   - worse: the head median is worse than the base median by more than
//     the bound;
//   - unchanged otherwise.
func verdict(base, head []float64, lowerBetter bool, bound float64) (v string, wins, pairs int) {
	better := func(h, b float64) bool { return (h < b) == lowerBetter && h != b }
	pairs = min(len(base), len(head))
	for i := range pairs {
		if better(head[i], base[i]) {
			wins++
		}
	}
	qb, qh := quartiles(base), quartiles(head)
	mb, mh, iqrB := qb[1], qh[1], qb[2]-qb[0]
	worse := (mh - mb) / mb
	if !lowerBetter {
		worse = -worse
	}
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			allBetter = allBetter && better(h, b)
		}
	}
	switch {
	case pairs >= 10 && wins*10 >= 9*pairs && math.Abs(mh-mb) > iqrB && worse < 0:
		return "better", wins, pairs
	case allBetter:
		return "unchanged", wins, pairs
	case iqrB/math.Abs(mb) > bound || (qh[2]-qh[0])/math.Abs(mh) > bound:
		return "unresolved", wins, pairs
	case worse > bound:
		return "worse", wins, pairs
	}
	return "unchanged", wins, pairs
}

// quartiles are the first, second and third quartiles by the method
// Python's statistics.quantiles(values, n=4) uses (exclusive), which is
// how the benchmark's spread is judged.
func quartiles(values []float64) [3]float64 {
	d := slices.Clone(values)
	slices.Sort(d)
	var q [3]float64
	switch len(d) {
	case 0:
		return q
	case 1:
		return [3]float64{d[0], d[0], d[0]}
	}
	m := len(d) + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q
}

// readRecords loads the untraced, verified runs of a result file, per
// workload in file order.
func readRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 && r.Correct {
			out[r.Workload] = append(out[r.Workload], r)
		}
	}
	return out, sc.Err()
}

// compareFiles prints one row per (workload, gated value), then one for
// the workload's failed requests, and reports whether any row is worse.
// A higher share of failed requests is worse by any amount.
func compareFiles(w io.Writer, basePath, headPath string) (anyWorse bool, err error) {
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	head, err := readRecords(headPath)
	if err != nil {
		return false, err
	}
	const row = "%-18s %-25s %38s %38s %8s %6s %7s  %s\n"
	fmt.Fprintf(w, row, "workload", "metric", "base median [q1, q3]", "head median [q1, q3]", "change", "bound", "wins", "verdict")
	for _, wl := range workloads {
		b, h := base[wl.name], head[wl.name]
		if len(b) == 0 || len(h) == 0 {
			continue
		}
		for _, g := range gates {
			bv, hv := values(b, g.name), values(h, g.name)
			if (g.workload != "" && g.workload != wl.name) || len(bv) == 0 || len(hv) == 0 {
				continue
			}
			v, wins, pairs := verdict(bv, hv, g.lowerBetter, g.bound)
			anyWorse = anyWorse || v == "worse"
			qb, qh := quartiles(bv), quartiles(hv)
			fmt.Fprintf(w, row, wl.name, g.name, fmtQ(qb, len(bv)), fmtQ(qh, len(hv)),
				fmt.Sprintf("%+.1f%%", (qh[1]-qb[1])/qb[1]*100), fmt.Sprintf("%.0f%%", g.bound*100),
				fmt.Sprintf("%d/%d", wins, pairs), v)
		}

		bf, ba := failures(b)
		hf, ha := failures(h)
		v := "unchanged"
		switch {
		case hf*ba > bf*ha:
			v, anyWorse = "worse", true
		case hf*ba < bf*ha:
			v = "better"
		}
		fmt.Fprintf(w, row, wl.name, "failed", fmt.Sprintf("%d of %d", bf, ba), fmt.Sprintf("%d of %d", hf, ha), "", "+0", "", v)
	}
	return anyWorse, nil
}

// values are the runs' readings of a metric or, failing that, a detail.
func values(recs []record, name string) []float64 {
	var v []float64
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			v = append(v, m.Value)
		} else if d, ok := r.Details[name]; ok {
			v = append(v, d)
		}
	}
	return v
}

// failures sums the runs' failed and attempted requests.
func failures(recs []record) (failed, attempted int) {
	for _, r := range recs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

func fmtQ(q [3]float64, n int) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", q[1], q[0], q[2], n)
}
