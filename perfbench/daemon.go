package main

// daemon.go — building, starting and stopping bccd, and reading its CPU
// time and peak RSS from /proc.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux platform Go supports.
const clockTicks = 100

// buildBccd compiles cmd/bccd from the checkout at root into dir.
func buildBccd(ctx context.Context, root, dir string) (string, error) {
	bin := filepath.Join(dir, "bccd")
	cmd := exec.CommandContext(ctx, "go", "build", "-o", bin, "./cmd/bccd")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("building cmd/bccd: %w\n%s", err, out)
	}
	return bin, nil
}

// daemon is one running bccd process.
type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	exited  chan struct{}
	err     error // Wait's result, valid once exited is closed
	healthy time.Time
}

// signalGrace is how long stop waits after the first healthy answer: bccd
// starts serving a moment before it installs its SIGTERM handler, and a
// signal in between kills it without a drain.
const signalGrace = 100 * time.Millisecond

// startDaemon execs bccd on store and returns once /healthz first answers
// 200, with the time that took: the setup_s sample.
func startDaemon(ctx context.Context, bin, store, logPath string, cacheCap int) (*daemon, time.Duration, error) {
	// A free loopback port chosen here, rather than bccd's -addrfile, keeps
	// the address file's write and rename out of the timed start.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	args := []string{"-store", store, "-addr", addr}
	if cacheCap > 0 {
		args = append(args, "-cache", strconv.Itoa(cacheCap))
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting bccd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, exited: make(chan struct{})}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	hc := &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: time.Second}
	deadline := t0.Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, 0, fmt.Errorf("bccd exited during startup: %v (log %s)", d.err, logPath)
		case <-ctx.Done():
			d.kill()
			return nil, 0, ctx.Err()
		default:
		}
		if resp, err := hc.Get(d.base + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.healthy = time.Now()
				return d, d.healthy.Sub(t0), nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.kill()
	return nil, 0, fmt.Errorf("bccd not healthy after 30s (log %s)", logPath)
}

// stop SIGTERM-drains the daemon and waits for it to exit.
func (d *daemon) stop() error {
	time.Sleep(time.Until(d.healthy.Add(signalGrace)))
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.kill()
		return err
	}
	select {
	case <-d.exited:
		return d.err
	case <-time.After(30 * time.Second):
		d.kill()
		return errors.New("bccd did not drain within 30s")
	}
}

// kill ends the process without a drain and waits for it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// cpuSeconds is the daemon's user and system CPU time so far.
func (d *daemon) cpuSeconds() (user, sys float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name, which may hold spaces:
	// state is field 3 of the line, utime 14 and stime 15.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, 0, fmt.Errorf("parsing /proc stat: %w", err)
	}
	return float64(ut) / clockTicks, float64(st) / clockTicks, nil
}

// peakRSSMB is the daemon's VmHWM in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
