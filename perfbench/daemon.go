package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one qcecd child process listening on loopback.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	logPath string
	exited  chan struct{}
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// startDaemon launches qcecd with two workers and default options (plus
// -journal-dir when journalDir is set) and waits until /healthz answers.
func startDaemon(ctx context.Context, bin, dir, journalDir string) (*daemon, error) {
	addrFile := filepath.Join(dir, "addr")
	logPath := filepath.Join(dir, "qcecd.log")
	_ = os.Remove(addrFile) // absent on first use
	logFile, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logFile.Close() // the child holds its own descriptor
	args := []string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-workers", "2"}
	if journalDir != "" {
		args = append(args, "-journal-dir", journalDir)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logFile
	cmd.Stderr = logFile
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting qcecd: %w", err)
	}
	d := &daemon{cmd: cmd, logPath: logPath, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status is read through d.exited only
		close(d.exited)
	}()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if addr, err := os.ReadFile(addrFile); err == nil && len(addr) > 0 {
			d.url = "http://" + string(addr)
			if resp, err := http.Get(d.url + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("qcecd exited during start-up:\n%s", d.logTail())
		case <-ctx.Done():
			d.stop()
			return nil, ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("qcecd not ready after 30s:\n%s", d.logTail())
		}
	}
}

// stop drains the daemon with SIGTERM, kills it if the drain hangs, and
// returns once the process has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

func (d *daemon) logTail() string {
	data, _ := os.ReadFile(d.logPath) // best-effort diagnostics
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// cpuTime returns the daemon's user plus system CPU time so far.
func (d *daemon) cpuTime() (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields of the whole line.
	rest := string(data[bytes.LastIndexByte(data, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns the daemon's high-water resident set size (VmHWM) in MiB.
func (d *daemon) peakRSS() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// metrics scrapes the daemon's unlabelled /metrics counters.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(name, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, nil
}
