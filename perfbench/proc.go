package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// proc is a child process of the benchmark: memeserve or the slow proxy.
type proc struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{}
	err    error
}

// freeAddr picks a free loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("picking a port: %w", err)
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startProc starts bin with args, logging to logPath.
func startProc(bin string, args []string, logPath string) (*proc, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", filepath.Base(bin), err)
	}
	p := &proc{cmd: cmd, exited: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		logf.Close()
		close(p.exited)
	}()
	return p, nil
}

// stop sends SIGTERM, waits for a clean exit, and kills after a grace
// period. It reports a non-zero exit.
func (p *proc) stop() error {
	select {
	case <-p.exited:
		return p.err
	default:
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // the process may be exiting already
	select {
	case <-p.exited:
		return p.err
	case <-time.After(20 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
		return fmt.Errorf("%s did not exit on SIGTERM", filepath.Base(p.cmd.Path))
	}
}

// kill stops the process without grace; used on error paths.
func (p *proc) kill() {
	select {
	case <-p.exited:
	default:
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// rssMB reads the process's peak resident set (VmHWM) in MiB.
func (p *proc) rssMB() (float64, error) {
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
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// cpuTime reads a process's user+system CPU time from /proc/<pid>/stat.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := bytes.LastIndexByte(b, ')')
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	const clkTck = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// runTool runs a build-side tool to completion and returns its wall time.
func runTool(bin string, args []string, logPath string) (time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	t := time.Now()
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("%s %s: %w (log %s)", filepath.Base(bin), strings.Join(args, " "), err, logPath)
	}
	return time.Since(t), nil
}
