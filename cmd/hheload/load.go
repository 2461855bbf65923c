package main

import (
	"errors"
	"math"
	"slices"
	"sync"
	"syscall"
	"time"
)

// failedLat is the latency recorded for a failed, refused or mismatched
// request: it sorts above every real latency, so it counts as +∞ in
// every quantile.
const failedLat = math.MaxInt64

// outcome is what happened to one op.
type outcome struct {
	sent  bool
	start int64 // ns after the load starts: due time (open loop) or send time (closed loop)
	lat   int64 // ns from start to reply, or failedLat
	late  int64 // open loop: ns the send lagged its due time
}

// runOpen sends ops[i] at t0+ops[i].due from a pool of workers, so a
// request that finds every worker busy waits, and that wait is counted
// against it. Latency and the generator's lateness are both measured
// from the due time.
func runOpen(t0 time.Time, ops []op, out []outcome, workers int, do func(i int) error) {
	next := make(chan int, workers)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				due := t0.Add(time.Duration(ops[i].due))
				o := &out[i]
				o.sent, o.start = true, ops[i].due
				o.late = int64(time.Since(due))
				if err := do(i); err != nil {
					o.lat = failedLat
				} else {
					o.lat = int64(time.Since(due))
				}
			}
		}()
	}
	for i := range ops {
		sleepUntil(t0.Add(time.Duration(ops[i].due)))
		next <- i
	}
	close(next)
	wg.Wait()
}

// sleepUntil blocks until t in the kernel. A Go timer can fire up to a
// millisecond late on an otherwise idle Linux host, because the runtime's
// network poller waits in whole milliseconds; at 16k arrivals per second
// that would be the generator's own lateness.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// runClosed runs one client per session of a closed loop. Each draws its
// next op and sends it as soon as the previous one completes, until
// stop; an error is a session's generator failing.
func runClosed(t0, stop time.Time, l *load, do func(s, k int) error) error {
	errs := make([]error, len(l.traffic.next))
	var wg sync.WaitGroup
	for s, next := range l.traffic.next {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; time.Now().Before(stop); k++ {
				o, err := next()
				if err != nil {
					errs[s] = err
					return
				}
				l.traffic.ops[s] = append(l.traffic.ops[s], o)
				l.out[s] = append(l.out[s], outcome{})
				l.reps[s] = append(l.reps[s], reply{})
				out := &l.out[s][k]
				start := time.Now()
				out.sent, out.start = true, int64(start.Sub(t0))
				if err := do(s, k); err != nil {
					out.lat = failedLat
				} else {
					out.lat = int64(time.Since(start))
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// window is the outcomes of one op kind whose start falls in the
// measured window.
type window struct {
	starts []int64 // per request, in collection order
	lats   []int64 // per request, failures as failedLat
	late   []int64 // sorted
	failed int
	elems  int64 // payload elements of the successful requests
}

// collect gathers the outcomes of kind k that started in [from, to).
func collect(ops [][]op, out [][]outcome, k opKind, from, to int64) window {
	var w window
	for s := range ops {
		for i, o := range out[s] {
			if !o.sent || ops[s][i].kind != k || o.start < from || o.start >= to {
				continue
			}
			w.starts = append(w.starts, o.start)
			w.lats = append(w.lats, o.lat)
			w.late = append(w.late, o.late)
			if o.lat == failedLat {
				w.failed++
				continue
			}
			w.elems += int64(ops[s][i].n)
		}
	}
	slices.Sort(w.late)
	return w
}

// sorted returns the window's latencies in order.
func (w window) sorted() []int64 {
	s := slices.Clone(w.lats)
	slices.Sort(s)
	return s
}

// rate is the payload elements per second the traffic completed from the
// requests it sent in [from, to). A closed-loop session always has a
// request outstanding, so its rate is its elements over the time its
// requests took, with no partial request at the window's edges; an open
// loop's is its elements over the window.
func rate(l load, from, to int64) float64 {
	var total float64
	for s, ops := range l.traffic.ops {
		var elems, busy int64
		for i, o := range l.out[s] {
			if o.sent && o.lat != failedLat && o.start >= from && o.start < to {
				elems += int64(ops[i].n)
				busy += o.lat
			}
		}
		if l.traffic.open {
			busy = to - from
		}
		if busy > 0 {
			total += float64(elems) * 1e9 / float64(busy)
		}
	}
	return total
}

// quantile is the nearest-rank q-quantile of sorted values.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailQuantile picks the highest of p50, p90, p99 and p99.9 that has at
// least ten of n samples beyond it; ok is false when even p50 has fewer.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.9, 0.5} {
		if n-int(math.Ceil(q*float64(n))) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// median of unsorted float64 values (sorted in place).
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// ms converts nanoseconds to milliseconds. failedLat becomes the largest
// float64, the +∞ that JSON can carry.
func ms(ns int64) float64 {
	if ns == failedLat {
		return math.MaxFloat64
	}
	return float64(ns) / 1e6
}
