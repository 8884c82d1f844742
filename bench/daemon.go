package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"syscall"
	"time"
)

const (
	mtJSON  = "application/json"
	mtBatch = "application/x-triclust-batch"
	// callTimeout bounds every HTTP call, so a hung daemon fails the run
	// instead of stalling it.
	callTimeout = 20 * time.Second
	// readyTimeout bounds the wait for a spawned daemon's /healthz.
	readyTimeout = 30 * time.Second
)

// daemon is one triclustd child process on an ephemeral loopback port.
type daemon struct {
	env    *benchEnv
	cmd    *exec.Cmd
	base   string
	pid    int
	exited chan struct{}

	mu  sync.Mutex
	log bytes.Buffer // the child's stderr
}

// lockedWriter appends the child's stderr to the daemon's log buffer.
type lockedWriter struct{ d *daemon }

func (w lockedWriter) Write(p []byte) (int, error) {
	w.d.mu.Lock()
	defer w.d.mu.Unlock()
	return w.d.log.Write(p)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon spawns triclustd over dataDir at the benchmark's fixed
// conditions and waits until /healthz answers. It returns the time from
// spawn to ready.
func (e *benchEnv) startDaemon(dataDir string) (*daemon, time.Duration, error) {
	bin, err := e.daemonBinary()
	if err != nil {
		return nil, 0, err
	}
	port, err := freePort()
	if err != nil {
		return nil, 0, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	d := &daemon{env: e, base: "http://" + addr, exited: make(chan struct{})}
	// The journal and conformance flags are left at the daemon's defaults
	// (-journal-every 64 -journal-max-bytes 8MiB -conform-mode off).
	d.cmd = exec.Command(bin, "-addr", addr, "-procs", strconv.Itoa(width), "-data-dir", dataDir)
	d.cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(width))
	d.cmd.Stderr = lockedWriter{d}
	// The child dies with this process even when no exit path ran.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	t0 := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start triclustd: %w", err)
	}
	d.pid = d.cmd.Process.Pid
	e.mu.Lock()
	e.daemons[d] = struct{}{}
	e.mu.Unlock()
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()

	probe := &http.Client{Timeout: time.Second}
	for time.Since(t0) < readyTimeout {
		select {
		case <-d.exited:
			d.kill()
			return nil, 0, fmt.Errorf("triclustd exited during start-up:\n%s", d.logText())
		default:
		}
		resp, err := probe.Get(d.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return d, time.Since(t0), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, 0, fmt.Errorf("triclustd not ready within %s:\n%s", readyTimeout, d.logText())
}

// kill sends SIGKILL — the crash the recovery metrics are about — and
// waits until the process has ended.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.env.mu.Lock()
	delete(d.env.daemons, d)
	d.env.mu.Unlock()
}

func (d *daemon) logText() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.log.String()
}

var replayedRe = regexp.MustCompile(`(\d+) journal records replayed`)

// replayedRecords sums the journal records the daemon's start-up log
// says it replayed through the solver.
func (d *daemon) replayedRecords() int {
	n := 0
	for _, m := range replayedRe.FindAllStringSubmatch(d.logText(), -1) {
		k, _ := strconv.Atoi(m[1]) // the pattern only matches digits
		n += k
	}
	return n
}

// client is one keep-alive connection to a daemon.
type client struct {
	http *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{
		base: base,
		http: &http.Client{
			Timeout: callTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		},
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// call issues one request and reads the whole response. The returned
// body is valid until the next call on this client.
func (c *client) call(method, path, contentType, accept, ifNoneMatch string, body []byte) (int, http.Header, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, c.buf.Bytes(), nil
}

// must is call for set-up and verification steps, where anything but
// the wanted status is an error.
func (c *client) must(want int, method, path, contentType string, body []byte) (http.Header, []byte, error) {
	status, hdr, out, err := c.call(method, path, contentType, "", "", body)
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if status != want {
		return nil, nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, status, want, out)
	}
	return hdr, out, nil
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, de os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if de.Type().IsRegular() {
			info, err := de.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
