package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/ff"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/wire"
)

// target is a running server the load is aimed at.
type target struct {
	addr      string // serving address
	debugAddr string // /metrics address
	pid       int    // process whose CPU time and memory are read from /proc
	stop      func() error
}

// startProcess execs the hheserver binary on a free loopback port with
// its debug endpoint on, and returns once it accepts connections.
//
// The server runs at nice 10. Generator and server share the host's
// cores; at equal priority a busy server delays the generator's
// wake-ups by a scheduler slice, so requests would leave late, and that
// lateness would be charged to the server. The generator uses a small
// share of a core, so the priority costs the server little.
func startProcess(bin string, args []string, procs int) (*target, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command("nice", append([]string{"-n", "10", bin, "-addr", addr, "-debug-addr", "127.0.0.1:0"}, args...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))
	cmd.Stderr = os.Stderr
	// The server dies with the benchmark, even when the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start hheserver: %w", err)
	}

	// The server prints its debug address before it serves; the reader
	// then drains stdout until the process exits.
	debug := make(chan string, 1)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		sc := bufio.NewScanner(stdout)
		const marker = "debug endpoint on http://"
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), marker); ok {
				debug <- strings.TrimSuffix(rest, "/metrics")
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
	}()

	var once sync.Once
	var stopErr error
	stop := func() error {
		once.Do(func() {
			_ = cmd.Process.Signal(syscall.SIGTERM)
			select {
			case <-drained:
			case <-time.After(20 * time.Second):
				_ = cmd.Process.Kill()
				<-drained
			}
			if err := cmd.Wait(); err != nil {
				stopErr = fmt.Errorf("hheserver exit: %w", err)
			}
		})
		return stopErr
	}

	t := &target{addr: addr, pid: cmd.Process.Pid, stop: stop}
	select {
	case t.debugAddr = <-debug:
	case <-drained:
		stop()
		return nil, errors.New("hheserver exited before serving")
	case <-time.After(30 * time.Second):
		stop()
		return nil, errors.New("hheserver did not report its debug address")
	}
	if err := waitDial(addr, 10*time.Second); err != nil {
		stop()
		return nil, err
	}
	return t, nil
}

// freeAddr picks a free loopback port below the kernel's ephemeral port
// range. A port from that range can be handed to another socket between
// this check and the server's bind; the server's own debug listener,
// bound to port 0, has been given it.
func freeAddr() (string, error) {
	const lowest = 1024
	first := 32768 // Linux's default start of the ephemeral range
	if b, err := os.ReadFile("/proc/sys/net/ipv4/ip_local_port_range"); err == nil {
		if f := strings.Fields(string(b)); len(f) == 2 {
			if v, err := strconv.Atoi(f[0]); err == nil {
				first = v
			}
		}
	}
	if first <= lowest {
		return "", fmt.Errorf("ephemeral port range starts at %d: no port below it to serve on", first)
	}
	for range 100 {
		ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", lowest+rand.IntN(first-lowest)))
		if err != nil {
			continue
		}
		addr := ln.Addr().String()
		return addr, ln.Close()
	}
	return "", fmt.Errorf("no free loopback port in [%d, %d)", lowest, first)
}

// waitDial polls until addr accepts a connection. The server reports its
// debug address just before it listens, so the first dial can be early;
// the poll is fine-grained because a keyed set-up takes a few
// milliseconds.
func waitDial(addr string, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			return c.Close()
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("hheserver not accepting on %s: %w", addr, err)
		}
		sleepUntil(time.Now().Add(100 * time.Microsecond))
	}
}

// scrape reads the server's /metrics snapshot.
func scrape(debugAddr string) (obs.Snapshot, error) {
	var s obs.Snapshot
	resp, err := http.Get("http://" + debugAddr + "/metrics")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("scrape %s: %s", debugAddr, resp.Status)
	}
	return s, json.NewDecoder(resp.Body).Decode(&s)
}

// cpuTime is the user plus system CPU time a process has used, from
// /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (100 per second
	// on Linux).
	_, rest, ok := strings.Cut(string(b), ") ")
	f := strings.Fields(rest)
	if !ok || len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(utime+stime) * 10 * time.Millisecond, nil
}

// peakRSS is a process's peak resident set size (VmHWM) in bytes.
func peakRSS(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			return kb << 10, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// rig is one server with the workload's connections and sessions open.
type rig struct {
	tgt     *target
	clients []*server.Client
	keyed   []*server.Session
	tc      []*server.Session
}

// openRig starts a server and brings up every session, uploading the
// eval keys of the transcipher sessions. It returns once every upload is
// acked Complete.
func openRig(w workload, in *inputs, start func() (*target, error)) (*rig, error) {
	tgt, err := start()
	if err != nil {
		return nil, err
	}
	r := &rig{tgt: tgt}
	if err := r.open(w, in); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func (r *rig) open(w workload, in *inputs) error {
	for range w.conns {
		c, err := server.Dial(r.tgt.addr)
		if err != nil {
			return err
		}
		r.clients = append(r.clients, c)
	}
	for s := range w.keyed {
		sess, err := r.clients[s%w.conns].OpenSession(in.keyedOpen(s))
		if err != nil {
			return fmt.Errorf("open keyed session %d: %w", s, err)
		}
		r.keyed = append(r.keyed, sess)
	}
	for s := range w.tc {
		sess, err := r.clients[s%w.conns].OpenSession(wire.SessionOpen{Width: 17, Rounds: 2, T: uint16(w.tcT), Nonce: uint64(s)})
		if err != nil {
			return fmt.Errorf("open transcipher session %d: %w", s, err)
		}
		r.tc = append(r.tc, sess)
	}
	errs := make([]error, len(r.tc))
	var wg sync.WaitGroup
	for s, sess := range r.tc {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[s] = sess.UploadEvalKeys(in.blob)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// close tears the connections down and stops the server.
func (r *rig) close() error {
	for _, c := range r.clients {
		c.Close()
	}
	return r.tgt.stop()
}

// reply is a verified request's result, kept only for sampled ops.
type reply struct {
	ct   ff.Vec // keyed: ciphertext
	off  uint64 // stream: assigned stream offset
	blob []byte // transcipher: serialized BFV ciphertext
}

// send sends one op and stores its reply when the op is sampled. A reply
// of the wrong shape is an error, so it counts as failed.
func (r *rig) send(in *inputs, o *op, rep *reply) error {
	msg := in.payload(o)
	switch o.kind {
	case opStream:
		ct, off, err := r.keyed[o.sess].EncryptChunk(msg)
		if err != nil {
			return err
		}
		if len(ct) != len(msg) {
			return fmt.Errorf("stream reply has %d elements, want %d", len(ct), len(msg))
		}
		if o.sample {
			*rep = reply{ct: ct, off: off}
		}
	case opEncrypt:
		ct, err := r.keyed[o.sess].Encrypt(o.nonce, msg)
		if err != nil {
			return err
		}
		if len(ct) != len(msg) {
			return fmt.Errorf("encrypt reply has %d elements, want %d", len(ct), len(msg))
		}
		if o.sample {
			*rep = reply{ct: ct}
		}
	case opTranscipher:
		b := in.block(o)
		cts, err := r.tc[o.sess].Transcipher(b.nonce, b.block, b.sym)
		if err != nil {
			return err
		}
		if len(cts) != 1 {
			return fmt.Errorf("transcipher reply has %d ciphertexts, want 1", len(cts))
		}
		*rep = reply{blob: cts[0]}
	}
	return nil
}
