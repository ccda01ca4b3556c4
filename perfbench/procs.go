package main

import (
	"bytes"
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

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat.
// It is 100 on every Linux architecture Go supports.
const clockTicks = 100

// Proc is one program process the benchmark started.
type Proc struct {
	Name string
	URL  string
	cmd  *exec.Cmd
	done chan struct{}
	log  *os.File
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// Start runs bin with args plus -addr on a free loopback port and waits
// until its /healthz answers. The child's standard error goes to
// <logDir>/<name>.log; the child is killed if the benchmark dies.
func Start(ctx context.Context, logDir, name, bin string, args ...string) (*Proc, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append(args, "-addr", addr)...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &Proc{Name: name, URL: "http://" + addr, cmd: cmd, done: make(chan struct{}), log: logf}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	if err := p.waitReady(ctx); err != nil {
		p.Stop()
		return nil, err
	}
	return p, nil
}

func (p *Proc) waitReady(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 20*time.Second)
	defer cancel()
	client := &http.Client{Timeout: time.Second}
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, p.URL+"/healthz", nil)
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				client.CloseIdleConnections()
				return nil
			}
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready (see %s)", p.Name, p.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("%s not ready: %w", p.Name, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// Stop asks the process to drain with SIGTERM, kills it if it has not
// exited after ten seconds, and waits until it has.
func (p *Proc) Stop() error {
	defer p.log.Close()
	select {
	case <-p.done:
		return nil
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		p.cmd.Process.Kill()
	}
	select {
	case <-p.done:
		return nil
	case <-time.After(10 * time.Second):
		p.cmd.Process.Kill()
		<-p.done
		return fmt.Errorf("%s did not drain within 10s; killed", p.Name)
	}
}

// CPU returns the user+system CPU time the process has used, summed
// over its threads.
func (p *Proc) CPU() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU reads utime+stime from a /proc/<pid>/stat line. The
// command name may hold spaces, so fields count from its closing paren.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	// After ")": state(3) ... utime is field 14, stime 15 (1-based).
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// PeakRSS returns the process's peak resident set size in bytes.
func (p *Proc) PeakRSS() (int64, error) {
	return statusKB(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid), "VmHWM:")
}

// ResetPeakRSS resets the process's peak RSS to its current RSS, so
// that PeakRSS then reads the peak since this call.
func (p *Proc) ResetPeakRSS() error {
	return os.WriteFile(fmt.Sprintf("/proc/%d/clear_refs", p.cmd.Process.Pid), []byte("5"), 0)
}

// statusKB reads one "Key: N kB" field of a /proc status file, in bytes.
func statusKB(path, key string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, key); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseInt(f[0], 10, 64)
			if err != nil {
				return 0, err
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// Group is the set of program processes one workload runs against.
type Group []*Proc

// Stop stops every process, returning the first error.
func (g Group) Stop() error {
	var first error
	for i := len(g) - 1; i >= 0; i-- {
		if err := g[i].Stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// CPU sums the processes' CPU time.
func (g Group) CPU() (time.Duration, error) {
	var sum time.Duration
	for _, p := range g {
		c, err := p.CPU()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// ResetPeakRSS resets every process's peak RSS.
func (g Group) ResetPeakRSS() error {
	for _, p := range g {
		if err := p.ResetPeakRSS(); err != nil {
			return err
		}
	}
	return nil
}

// PeakRSS sums the processes' peak RSS.
func (g Group) PeakRSS() (int64, error) {
	var sum int64
	for _, p := range g {
		r, err := p.PeakRSS()
		if err != nil {
			return 0, err
		}
		sum += r
	}
	return sum, nil
}

// StealTime returns the CPU time the hypervisor has taken from this
// machine's CPUs, from the first line of /proc/stat. A run whose
// numbers moved with no change in the program usually shows it here.
func StealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	st, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(st) * time.Second / clockTicks
}
