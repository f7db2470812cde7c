package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// child is one `zsdb serve` or `zsdb route` process on loopback.
type child struct {
	cmd  *exec.Cmd
	addr string // host:port it reported listening on
	boot time.Duration
	done chan struct{} // closed once Wait returned

	mu   sync.Mutex
	tail []string // last stderr lines, for diagnostics
}

// children tracks every live child so that an interrupt or a failing run
// can reap them all: none may outlive the harness.
var children struct {
	sync.Mutex
	live map[*child]struct{}
}

// listenLine matches the banner serve and route print once they listen
// ("serving ... on 127.0.0.1:38151"). Children are started on port 0, so
// the kernel picks a free port and the banner is where it is learnt.
var listenLine = regexp.MustCompile(` on (127\.0\.0\.1:\d+)$`)

// startChild execs bin with args and returns once the child reports its
// listen address, or fails when it exits or stays silent for 30 s.
func startChild(bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	c := &child{cmd: cmd, done: make(chan struct{})}
	children.Lock()
	if children.live == nil {
		children.live = map[*child]struct{}{}
	}
	children.live[c] = struct{}{}
	children.Unlock()

	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			c.mu.Lock()
			if c.tail = append(c.tail, line); len(c.tail) > 20 {
				c.tail = c.tail[1:]
			}
			c.mu.Unlock()
			if m := listenLine.FindStringSubmatch(line); m != nil {
				select {
				case addr <- m[1]:
				default:
				}
			}
		}
		// Wait only after stderr is drained, as os/exec requires.
		_ = cmd.Wait()
		close(c.done)
	}()
	select {
	case c.addr = <-addr:
		c.boot = time.Since(start)
		return c, nil
	case <-c.done:
		c.forget()
		return nil, fmt.Errorf("%s %s exited before listening:\n%s", filepath.Base(bin), strings.Join(args, " "), c.stderrTail())
	case <-time.After(30 * time.Second):
		c.stop()
		return nil, fmt.Errorf("%s %s did not listen within 30s:\n%s", filepath.Base(bin), strings.Join(args, " "), c.stderrTail())
	}
}

func (c *child) stderrTail() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return strings.Join(c.tail, "\n")
}

func (c *child) forget() {
	children.Lock()
	delete(children.live, c)
	children.Unlock()
}

// stop drains the child (SIGTERM), kills it if it has not exited after
// 5 s, and returns only once it has been waited for.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(5 * time.Second):
		_ = c.cmd.Process.Kill()
		<-c.done
	}
	c.forget()
}

func (c *child) pid() int { return c.cmd.Process.Pid }

// stopAll reaps every live child.
func stopAll() {
	children.Lock()
	var cs []*child
	for c := range children.live {
		cs = append(cs, c)
	}
	children.Unlock()
	for _, c := range cs {
		c.stop()
	}
}

// reapOnSignal makes an interrupted run leave no process behind.
func reapOnSignal() {
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(130)
	}()
}

// userHz is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports.
const userHz = 100

// parseStatCPU returns utime+stime, in microseconds, from the content of
// /proc/<pid>/stat. The command name may hold spaces and parentheses, so
// fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name in %q", stat)
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after the command name", len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad utime/stime %q %q", f[11], f[12])
	}
	return float64(utime+stime) * 1e6 / userHz, nil
}

// parseStatusKB returns the named field (e.g. VmHWM), in kB, from the
// content of /proc/<pid>/status.
func parseStatusKB(status, field string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				return strconv.ParseFloat(f[0], 64)
			}
			return 0, fmt.Errorf("proc status: bad %s line %q", field, line)
		}
	}
	return 0, fmt.Errorf("proc status: no %s field", field)
}

// cpuUs sums the CPU time consumed so far by the given processes.
func cpuUs(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
		if err != nil {
			return 0, err
		}
		us, err := parseStatCPU(string(data))
		if err != nil {
			return 0, err
		}
		total += us
	}
	return total, nil
}

// peakRSSMB sums the processes' resident-set high-water marks.
func peakRSSMB(pids []int) (float64, error) {
	total := 0.0
	for _, pid := range pids {
		data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
		if err != nil {
			return 0, err
		}
		kb, err := parseStatusKB(string(data), "VmHWM")
		if err != nil {
			return 0, err
		}
		total += kb / 1024
	}
	return total, nil
}

// stealTicks is the time, in USER_HZ ticks summed over CPUs, that the
// hypervisor ran somebody else while this VM had work to do: the part of
// a run's noise that comes from outside the box. 0 where /proc/stat has no
// steal column.
func stealTicks() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	v, _ := strconv.ParseFloat(f[8], 64)
	return v
}

// selfCPUUs is this process's own CPU time, from getrusage.
func selfCPUUs() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec)*1e6 + float64(t.Usec) }
	return tv(ru.Utime) + tv(ru.Stime)
}

// hostInfo is the context a result is only comparable within.
type hostInfo struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	LoadAvg1    float64 `json:"loadavg_1min"`
	ForeignZsdb int     `json:"foreign_zsdb_procs"`
	// Noisy marks a run taken while something else was using the box.
	Noisy bool `json:"noisy"`
}

// probeHost records the machine state before any child is started, so
// every `zsdb` process found is somebody else's.
func probeHost(root string) hostInfo {
	h := hostInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			h.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	comms, _ := filepath.Glob("/proc/[0-9]*/comm")
	for _, p := range comms {
		if data, err := os.ReadFile(p); err == nil && strings.TrimSpace(string(data)) == "zsdb" {
			h.ForeignZsdb++
		}
	}
	h.Noisy = h.LoadAvg1 > 0.5 || h.ForeignZsdb > 0
	return h
}
