package main

import (
	"context"
	"encoding/json"
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

// daemon is one running ppclustd process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	dir  string // private working directory, removed by stop
	log  *os.File
	done chan error
}

// startDaemon execs bin with a fresh directory under work and waits until
// /readyz answers 200. Disk-backed workloads keep keyring and datasets in
// that directory.
func startDaemon(bin, work string, w *workload) (*daemon, error) {
	dir, err := os.MkdirTemp(work, "daemon-")
	if err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	args := []string{"-addr", addr}
	if w.diskBacked {
		args = append(args, "-data-dir", filepath.Join(dir, "data"), "-keyring", filepath.Join(dir, "keys.json"))
		if c := w.cacheBytes(); c > 0 {
			args = append(args, "-cache-bytes", strconv.FormatInt(c, 10))
		}
	}
	logf, err := os.Create(filepath.Join(dir, "ppclustd.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	if err := cmd.Start(); err != nil {
		logf.Close()
		os.RemoveAll(dir)
		return nil, fmt.Errorf("starting ppclustd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dir: dir, log: logf, done: make(chan error, 1)}
	go func() { d.done <- cmd.Wait() }()
	if err := d.waitReady(30 * time.Second); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func freePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) waitReady(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.done:
			d.done <- err
			return fmt.Errorf("ppclustd exited before ready: %v%s", err, d.logTail())
		default:
		}
		resp, err := http.Get(d.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("ppclustd not ready after %v%s", limit, d.logTail())
}

// stop sends SIGTERM, waits for the process to exit (SIGKILL after 15 s)
// and removes its directory.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case err := <-d.done:
		d.done <- err
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		d.done <- <-d.done
	}
	d.log.Close()
	os.RemoveAll(d.dir)
}

func (d *daemon) logTail() string {
	raw, err := os.ReadFile(d.log.Name())
	if err != nil || len(raw) == 0 {
		return ""
	}
	if len(raw) > 2000 {
		raw = raw[len(raw)-2000:]
	}
	return "\nppclustd log tail:\n" + string(raw)
}

// metrics fetches the flat JSON snapshot of GET /v1/metrics.
func (d *daemon) metrics(ctx context.Context, c *http.Client) (map[string]int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: %s", resp.Status)
	}
	var snap map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	return snap, nil
}

// procSample is what /proc tells about the daemon process.
type procSample struct {
	cpu   time.Duration // utime + stime
	hwmKB int64         // VmHWM
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat times; Linux fixes
// it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

func (d *daemon) proc() (procSample, error) {
	pid := d.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procSample{}, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return procSample{}, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return procSample{}, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return procSample{}, fmt.Errorf("parsing /proc stat: %w", err)
	}
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procSample{}, err
	}
	var hwm int64 = -1
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			hwm, err = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return procSample{}, fmt.Errorf("parsing VmHWM: %w", err)
			}
		}
	}
	if hwm < 0 {
		return procSample{}, errors.New("no VmHWM in /proc status")
	}
	return procSample{cpu: time.Duration(ut+st) * clockTick, hwmKB: hwm}, nil
}
