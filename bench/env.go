package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"time"
)

// buildDirName is where the benchmark keeps what it builds and writes:
// the daemon binary and the daemons' data dirs. It sits inside the
// checkout, on the repository's filesystem, and .gitignore names it.
const buildDirName = ".bench_build"

// benchEnv is the benchmark's footprint on the machine: where the
// repository is, and every child process and temp dir to clean up.
type benchEnv struct {
	root     string // the repository checkout
	buildDir string

	mu      sync.Mutex
	daemons map[*daemon]struct{}
	tmpDirs map[string]struct{}

	binOnce  sync.Once
	bin      string
	binErr   error
	binBuild time.Duration
}

// newEnv finds the repository: the benchmark runs from its own
// directory (go run -C bench .) or from the checkout's root.
func newEnv() (*benchEnv, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for _, dir := range []string{wd, filepath.Dir(wd)} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "triclustd", "main.go")); err == nil {
			return &benchEnv{
				root:     dir,
				buildDir: filepath.Join(dir, buildDirName),
				daemons:  map[*daemon]struct{}{},
				tmpDirs:  map[string]struct{}{},
			}, nil
		}
	}
	return nil, fmt.Errorf("no triclust checkout at or above %s (cmd/triclustd missing)", wd)
}

// daemonBinary builds cmd/triclustd once per process, before any
// workload's set-up clock starts; the build is no part of setup_s.
func (e *benchEnv) daemonBinary() (string, error) {
	e.binOnce.Do(func() {
		if e.binErr = os.MkdirAll(e.buildDir, 0o755); e.binErr != nil {
			return
		}
		e.bin = filepath.Join(e.buildDir, "triclustd")
		t0 := time.Now()
		cmd := exec.Command("go", "build", "-o", e.bin, "./cmd/triclustd")
		cmd.Dir = e.root
		if out, err := cmd.CombinedOutput(); err != nil {
			e.binErr = fmt.Errorf("build triclustd: %v\n%s", err, out)
		}
		e.binBuild = time.Since(t0)
	})
	return e.bin, e.binErr
}

// tempDir makes a fresh directory under the build dir, removed at exit.
func (e *benchEnv) tempDir(pattern string) (string, error) {
	if err := os.MkdirAll(e.buildDir, 0o755); err != nil {
		return "", err
	}
	dir, err := os.MkdirTemp(e.buildDir, pattern)
	if err != nil {
		return "", err
	}
	e.mu.Lock()
	e.tmpDirs[dir] = struct{}{}
	e.mu.Unlock()
	return dir, nil
}

func (e *benchEnv) removeDir(dir string) {
	e.mu.Lock()
	delete(e.tmpDirs, dir)
	e.mu.Unlock()
	os.RemoveAll(dir)
}

// cleanup kills every daemon still running, waits for it, and removes
// every temp dir. It is safe to call more than once.
func (e *benchEnv) cleanup() {
	e.mu.Lock()
	daemons := make([]*daemon, 0, len(e.daemons))
	for d := range e.daemons {
		daemons = append(daemons, d)
	}
	dirs := make([]string, 0, len(e.tmpDirs))
	for d := range e.tmpDirs {
		dirs = append(dirs, d)
	}
	e.tmpDirs = map[string]struct{}{}
	e.mu.Unlock()
	for _, d := range daemons {
		d.kill()
	}
	for _, d := range dirs {
		os.RemoveAll(d)
	}
}
