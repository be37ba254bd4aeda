package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// psmd is one daemon process the benchmark started on localhost.
type psmd struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
	err  error // Wait's result, valid once done is closed
}

// live tracks every started psmd so an early exit still stops them.
var live struct {
	sync.Mutex
	procs map[*psmd]bool
}

// readyPoll is the /readyz polling interval; set-up takes a few
// milliseconds, so a coarser poll would quantise setup_s.
const readyPoll = 200 * time.Microsecond

// startPSMD execs bin with args plus a free localhost port and waits
// until /readyz answers 200.
func startPSMD(bin string, args []string) (*psmd, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	// Should the benchmark die without stopping it, the kernel kills psmd.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p := &psmd{cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start psmd: %w", err)
	}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*psmd]bool{}
	}
	live.procs[p] = true
	live.Unlock()
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(30 * time.Second)
	for {
		select {
		case <-p.done:
			return nil, fmt.Errorf("psmd exited before ready: %v", p.err)
		default:
		}
		resp, err := probe.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, errors.New("psmd not ready within 30s")
		}
		time.Sleep(readyPoll)
	}
}

// freePort asks the kernel for an unused localhost port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// kill sends SIGKILL and waits for the process to end.
func (p *psmd) kill() {
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
	p.forget()
}

// stop asks psmd to drain (SIGTERM) and waits; a process still alive
// after 15s is killed. psmd answers /readyz before it installs its
// SIGTERM handler, so a psmd stopped right after a restart can die of
// the signal undrained; that is reported on stderr, not as a failed
// run, since the benchmark has finished with it.
func (p *psmd) stop() error {
	p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(15 * time.Second):
		p.kill()
		return errors.New("psmd did not drain within 15s")
	}
	p.forget()
	var exit *exec.ExitError
	if !errors.As(p.err, &exit) {
		return nil
	}
	if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
		fmt.Fprintln(os.Stderr, "perfbench: psmd died of SIGTERM before installing its handler")
		return nil
	}
	return fmt.Errorf("psmd exit: %w", p.err)
}

func (p *psmd) forget() {
	live.Lock()
	delete(live.procs, p)
	live.Unlock()
}

// killAll stops every psmd still running (deferred by main, and run on
// a termination signal).
func killAll() {
	live.Lock()
	procs := make([]*psmd, 0, len(live.procs))
	for p := range live.procs {
		procs = append(procs, p)
	}
	live.Unlock()
	for _, p := range procs {
		p.kill()
	}
}

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times (100 on every Linux ABI Go supports).
const clockTick = 100

// cpu returns the process's user plus system CPU time.
func (p *psmd) cpu() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %v %v", err1, err2)
	}
	return time.Duration(ut+st) * time.Second / clockTick, nil
}

// peakRSS returns the process's VmHWM in MiB.
func (p *psmd) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// client is the benchmark's HTTP side: at most conns keep-alive
// connections to one psmd.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

// do sends one call and returns the status and the whole body.
func (cl *client) do(ctx context.Context, c *call) (int, []byte, error) {
	method, path := c.route()
	var body io.Reader
	if c.body != nil {
		body = bytes.NewReader(c.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, cl.base+path, body)
	if err != nil {
		return 0, nil, err
	}
	if c.kind == kindStream {
		req.Header.Set("Content-Type", "application/x-ndjson")
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// must2xx sends a call outside any measured phase and fails unless it
// succeeds, running the call's ack.
func (cl *client) must2xx(ctx context.Context, c *call) ([]byte, error) {
	status, body, err := cl.do(ctx, c)
	if err != nil {
		return nil, err
	}
	if status/100 != 2 {
		m, p := c.route()
		return nil, fmt.Errorf("%s %s: status %d: %s", m, p, status, bytes.TrimSpace(body))
	}
	if c.ack != nil {
		if _, err := c.ack(body); err != nil {
			return nil, err
		}
	}
	return body, nil
}

// get fetches a path's body (operational endpoints).
func (cl *client) get(ctx context.Context, path string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cl.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := cl.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, err
}

// scrape reads /metrics into series name (labels included) -> value.
func (cl *client) scrape(ctx context.Context) (map[string]float64, error) {
	body, err := cl.get(ctx, "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}
