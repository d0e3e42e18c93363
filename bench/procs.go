package main

// Child-process handling for the servers under test: free ports chosen
// before exec (swserve does not report a :0 bind), readiness by polling
// /healthz, output captured under -out, and a registry so that every child
// is stopped and waited for on exit, panic and SIGINT alike.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one running server.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{} // closed once Wait has returned
}

// procSet tracks live children.
type procSet struct {
	mu   sync.Mutex
	live map[*proc]struct{}
}

func newProcSet() *procSet { return &procSet{live: make(map[*proc]struct{})} }

// freePort asks the kernel for an unused loopback port and releases it.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// start execs bin with args plus a -listen on a fresh loopback port, logging
// the child's stdout and stderr to logDir/name.log.
func (ps *procSet) start(bin, name, logDir string, args ...string) (*proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(logDir, name+".log"))
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append(args, "-listen", addr)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, url: "http://" + addr, cmd: cmd, log: logf, done: make(chan struct{})}
	ps.mu.Lock()
	ps.live[p] = struct{}{}
	ps.mu.Unlock()
	go func() {
		_ = cmd.Wait() // the exit status of a server we signalled carries no news
		close(p.done)
	}()
	return p, nil
}

// stop ends one child: SIGTERM for swserve's graceful drain, SIGKILL if it
// has not exited within the grace period. It returns once the child is gone.
func (ps *procSet) stop(p *proc) {
	ps.mu.Lock()
	_, live := ps.live[p]
	delete(ps.live, p)
	ps.mu.Unlock()
	if !live {
		return
	}
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // already-exited is fine
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	p.log.Close()
}

// stopAll ends every live child.
func (ps *procSet) stopAll() {
	ps.mu.Lock()
	all := make([]*proc, 0, len(ps.live))
	for p := range ps.live {
		all = append(all, p)
	}
	ps.mu.Unlock()
	for _, p := range all {
		ps.stop(p)
	}
}

// waitHealthy polls GET /healthz until it answers 200, the child exits, or
// ctx ends.
func (p *proc) waitHealthy(ctx context.Context, hc *http.Client) error {
	for {
		if _, err := getHealth(ctx, hc, p.url); err == nil {
			return nil
		}
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before becoming healthy; see %s", p.name, p.log.Name())
		case <-ctx.Done():
			return fmt.Errorf("%s not healthy: %w", p.name, ctx.Err())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// health is the part of /healthz the bench reads.
type health struct {
	VecBackend struct {
		Backend string `json:"backend"`
	} `json:"vec_backend"`
	Scheduler struct {
		Submitted      int64 `json:"submitted"`
		Batches        int64 `json:"batches"`
		BatchedQueries int64 `json:"batched_queries"`
		Joined         int64 `json:"joined"`
		CacheHits      int64 `json:"cache_hits"`
	} `json:"scheduler"`
}

func getHealth(ctx context.Context, hc *http.Client, base string) (*health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/healthz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("healthz: status %d", resp.StatusCode)
	}
	var h health
	if err := json.Unmarshal(body, &h); err != nil {
		return nil, fmt.Errorf("healthz: %w", err)
	}
	return &h, nil
}

// rssPeakMB reads the child's peak resident set (VmHWM) from /proc.
func (p *proc) rssPeakMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", p.name)
}

// cpuSeconds reads the child's user+system CPU time so far from /proc.
func (p *proc) cpuSeconds() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields are counted after its ")".
	i := bytes.LastIndexByte(data, ')')
	f := strings.Fields(string(data[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("malformed stat for %s", p.name)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed stat times for %s", p.name)
	}
	const clockTick = 100 // USER_HZ, fixed at 100 on Linux
	return (utime + stime) / clockTick, nil
}

// runTool runs a helper binary (swindex) to completion.
func runTool(bin string, args ...string) error {
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("%s %s: %w\n%s", filepath.Base(bin), strings.Join(args, " "), err, out)
	}
	return nil
}
