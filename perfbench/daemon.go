package main

import (
	"bufio"
	"bytes"
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

// daemon is one running rlzd process serving a directory on loopback.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	log  syncBuffer
	done chan struct{} // closed once the process has exited
}

// syncBuffer is a bytes.Buffer safe for the process's output copier and
// a reader at once.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
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

// rlzdNice is the scheduling niceness rlzd runs at in paced phases.
const rlzdNice = 10

// startDaemon launches rlzd on dir with its default serving config plus
// extra flags. It returns once the process is started; call ready to
// wait for it to answer.
func startDaemon(bin, dir string, extra ...string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-a", dir, "-addr", addr}, extra...)
	d := &daemon{base: "http://" + addr, done: make(chan struct{})}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout = &d.log
	d.cmd.Stderr = &d.log
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rlzd: %w", err)
	}
	go func() {
		_ = d.cmd.Wait()
		close(d.done)
	}()
	return d, nil
}

// deprioritize lowers rlzd to niceness rlzdNice, so that in a paced
// phase the load generator's wake-ups preempt rlzd and requests leave on
// schedule on a machine with as many CPUs as rlzd has threads busy.
// Niceness is per thread on Linux: every current thread is lowered, and
// threads rlzd starts later inherit it from the thread that starts them.
func (d *daemon) deprioritize() error {
	dir := "/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/task"
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("lowering rlzd's priority: %w", err)
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		// A thread that has exited meanwhile is not an error.
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, tid, rlzdNice); err != nil && err != syscall.ESRCH {
			return fmt.Errorf("lowering rlzd's priority: %w", err)
		}
	}
	return nil
}

// readyPoll is how often ready retries.
const readyPoll = 200 * time.Microsecond

// ready polls GET path until rlzd answers 200 and returns the body.
func (d *daemon) ready(c *http.Client, path string) ([]byte, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := c.Get(d.base + path)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == http.StatusOK {
				return body, nil
			}
			if rerr == nil {
				err = fmt.Errorf("GET %s: %s", path, resp.Status)
			} else {
				err = rerr
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("rlzd not ready: %v\n%s", err, d.log.String())
		}
		select {
		case <-d.done:
			return nil, fmt.Errorf("rlzd exited: %v\n%s", err, d.log.String())
		default:
		}
		// Poll every 200us: rlzd starts in a few milliseconds, and set-up
		// time would otherwise be rounded up to the polling interval.
		waitUntil(time.Now().Add(readyPoll), nil)
	}
}

// peakRSSMB reads the process's high-water resident set (VmHWM) in MB.
func (d *daemon) peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb * 1024 / 1e6, nil
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}

// clockTicks is the kernel's USER_HZ, the unit of /proc CPU times: 100
// on every Linux architecture Go supports.
const clockTicks = 100

// cpuSeconds reads the user plus system CPU time rlzd has used so far.
// Time the hypervisor stole from the machine is not in it.
func (d *daemon) cpuSeconds() (float64, error) {
	b, err := os.ReadFile("/proc/" + strconv.Itoa(d.cmd.Process.Pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields after it are
	// space-separated, utime and stime being the 14th and 15th.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	utime, err := strconv.ParseFloat(f[11], 64)
	if err != nil {
		return 0, err
	}
	stime, err := strconv.ParseFloat(f[12], 64)
	if err != nil {
		return 0, err
	}
	return (utime + stime) / clockTicks, nil
}

// stop kills rlzd and waits for it to exit. rlzd has no shutdown
// protocol; acknowledged appends are durable, so a kill loses nothing.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.done
}
