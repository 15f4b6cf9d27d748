package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// proc is one child process of the program under test, listening on a
// loopback port it picked itself and reported through -addr-file.
type proc struct {
	name    string
	cmd     *exec.Cmd
	base    string // http://host:port once ready
	started time.Time
	exited  chan struct{}
	waitErr error
	log     *os.File
}

// startDaemon execs `bin args... -addr 127.0.0.1:0 -addr-file ...` with
// stderr captured in dir/name.log.
func startDaemon(bin, dir, name string, args ...string) (*proc, error) {
	addrFile := filepath.Join(dir, name+".addr")
	_ = os.Remove(addrFile) // a stale file from an earlier start would be read as ready
	logf, err := os.Create(filepath.Join(dir, name+".log"))
	if err != nil {
		return nil, err
	}
	args = append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile)
	cmd := childCommand(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	p := &proc{name: name, cmd: cmd, log: logf, exited: make(chan struct{})}
	p.started = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	// The address file is written once the listener is bound; it is
	// the daemon's own signal that it picked a port.
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			p.base = "http://" + strings.TrimSpace(string(b))
			return p, nil
		}
		select {
		case <-p.exited:
			return nil, fmt.Errorf("%s exited before listening: %v (see %s)", name, p.waitErr, logf.Name())
		case <-time.After(time.Millisecond):
		}
		if time.Since(p.started) > 120*time.Second {
			p.kill()
			return nil, fmt.Errorf("%s did not listen within 120s", name)
		}
	}
}

// childCommand prepares a child of the program under test. The kernel
// kills it if the benchmark dies first, so an interrupted run leaves
// no daemon behind.
func childCommand(bin string, args ...string) *exec.Cmd {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// waitReady polls GET /readyz until it answers 200 and ok accepts the
// body, and returns the time since exec.
func (p *proc) waitReady(c *http.Client, ok func(map[string]any) bool) (time.Duration, error) {
	for {
		st, body, err := getJSON(c, p.base+"/readyz")
		if err == nil && st == http.StatusOK && (ok == nil || ok(body)) {
			return time.Since(p.started), nil
		}
		select {
		case <-p.exited:
			return 0, fmt.Errorf("%s exited before ready: %v", p.name, p.waitErr)
		case <-time.After(time.Millisecond):
		}
		if time.Since(p.started) > 120*time.Second {
			return 0, fmt.Errorf("%s not ready within 120s (last status %d, err %v)", p.name, st, err)
		}
	}
}

// stop sends SIGTERM (the daemon's graceful drain), waits for exit
// and returns the process's peak resident set in MiB. A daemon that
// does not drain within 20s is killed and reported.
func (p *proc) stop() (float64, error) {
	defer p.log.Close()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(20 * time.Second):
		p.kill()
		return p.peakRSSMB(), fmt.Errorf("%s did not drain within 20s", p.name)
	}
	return p.peakRSSMB(), nil
}

// kill stops the process hard and waits for it.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// peakRSSMB is the exited process's high-water resident set (VmHWM,
// as getrusage reports it in KiB on Linux).
func (p *proc) peakRSSMB() float64 {
	return rusageMB(p.cmd.ProcessState)
}

func rusageMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024
	}
	return 0
}

// newClient returns an HTTP client holding at most one keep-alive
// connection, so one client is one connection.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// do sends one request and returns the status and full body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	rep, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer rep.Body.Close()
	b, err := io.ReadAll(rep.Body)
	return rep.StatusCode, b, err
}

func getJSON(c *http.Client, url string) (int, map[string]any, error) {
	st, b, err := do(c, http.MethodGet, url, nil)
	if err != nil {
		return st, nil, err
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		return st, nil, fmt.Errorf("GET %s: status %d, body is not JSON: %w", url, st, err)
	}
	return st, m, nil
}

// metricCounter reads one integer counter from a daemon's /metrics.
func metricCounter(c *http.Client, base, name string) (float64, error) {
	st, m, err := getJSON(c, base+"/metrics")
	if err != nil {
		return 0, err
	}
	v, ok := m[name].(float64)
	if st != http.StatusOK || !ok {
		return 0, fmt.Errorf("/metrics status %d has no numeric %q", st, name)
	}
	return v, nil
}
