package main

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// selfCPU is the user+system CPU time this process has used.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// parseProcKey returns the integer after "key:" in a /proc file made of
// "key: value [unit]" lines, as status and io are.
func parseProcKey(data []byte, key string) (int64, error) {
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		rest, ok := bytes.CutPrefix(line, []byte(key+":"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) == 0 {
			break
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc: no %q line", key)
}

// pidCPU is the CPU time process pid has used so far, threads that have
// ended included. It reads the process's CPU-time clock, which the
// kernel keeps in nanoseconds; /proc/<pid>/stat counts 10 ms ticks, a
// quarter of a per cent of a pass.
func pidCPU(pid int) (time.Duration, error) {
	// The id of another process's CPU-time clock, as
	// clock_getcpuclockid(3) makes it: ~pid in the high bits, the
	// scheduler's clock (2) in the low three.
	id := uintptr(^pid)<<3 | 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, fmt.Errorf("CPU-time clock of process %d: %w", pid, errno)
	}
	return time.Duration(ts.Nano()), nil
}

// pidKey reads one key of /proc/<pid>/<file>; 0 when the file cannot be
// read (io needs privileges some sandboxes withhold) — these feed
// diagnostics only.
func pidKey(pid int, file, key string) int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, file))
	if err != nil {
		return 0
	}
	v, err := parseProcKey(data, key)
	if err != nil {
		return 0
	}
	return v
}
