package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
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

// daemon is one running topoestd process.
type daemon struct {
	cmd     *exec.Cmd
	url     string
	log     *os.File
	logPath string
	started time.Time // exec time, the origin of gctrace's @ offsets
	exited  chan struct{}
	err     error // exit status, valid once exited is closed
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs bin with args on a fresh loopback port, appending its
// output to logPath, and returns once GET /healthz answers 200 together with
// the time from exec to that answer.
func startDaemon(bin string, args, env []string, logPath string) (*daemon, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Env = append(os.Environ(), env...)
	cmd.Stdout, cmd.Stderr = logf, logf
	d := &daemon{cmd: cmd, url: "http://" + addr, log: logf, logPath: logPath, exited: make(chan struct{})}
	t0 := time.Now()
	d.started = t0
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	go func() {
		d.err = cmd.Wait()
		close(d.exited)
	}()
	probe := newClient(1)
	deadline := t0.Add(90 * time.Second)
	for {
		resp, err := probe.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		select {
		case <-d.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("topoestd exited before serving (%v); see %s", d.err, logPath)
		case <-time.After(250 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.kill()
			return nil, 0, fmt.Errorf("topoestd did not answer /healthz within 90s; see %s", logPath)
		}
	}
}

// stop sends SIGTERM and waits for the graceful shutdown (final
// checkpoint included) to finish, returning how long that took. A daemon
// that does not exit within a minute is killed and reported.
func (d *daemon) stop() (time.Duration, error) {
	closeIdleConns()
	t0 := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		return 0, err
	}
	select {
	case <-d.exited:
	case <-time.After(time.Minute):
		d.kill()
		return 0, errors.New("topoestd ignored SIGTERM for a minute; killed")
	}
	el := time.Since(t0)
	d.log.Close()
	if d.err != nil {
		return el, fmt.Errorf("topoestd exit: %w", d.err)
	}
	return el, nil
}

// kill ends the process immediately and waits for it (error paths).
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
	d.log.Close()
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// transports lists every transport the harness made, so their idle
// connections can be closed before a daemon is stopped.
var transports struct {
	sync.Mutex
	all []*http.Transport
}

// newClient returns an HTTP client holding at most conns persistent
// connections to the daemon.
func newClient(conns int) *http.Client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	transports.Lock()
	transports.all = append(transports.all, t)
	transports.Unlock()
	return &http.Client{Timeout: 30 * time.Second, Transport: t}
}

// closeIdleConns closes the harness's idle keep-alive connections. A
// graceful shutdown waits, with backoff, for connections a client opened
// but has not used yet; closing them first keeps the harness's own
// connection pool out of the measured shutdown time.
func closeIdleConns() {
	transports.Lock()
	defer transports.Unlock()
	for _, t := range transports.all {
		t.CloseIdleConnections()
	}
}

// do performs one request and returns the body of a 2xx response; every
// other status is an error carrying the body.
func do(ctx context.Context, c *http.Client, method, url, ctype string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return out, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(out))
	}
	return out, nil
}

// getJSON GETs url and decodes the 2xx body into v.
func getJSON(ctx context.Context, c *http.Client, url string, v any) error {
	body, err := do(ctx, c, http.MethodGet, url, "", nil)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// metrics is one scrape of /metrics: every sample keyed by its series name
// with labels exactly as exposed (e.g. `http_requests_total{code="200",endpoint="/ingest"}`).
type metrics map[string]float64

func scrape(ctx context.Context, c *http.Client, base string) (metrics, error) {
	body, err := do(ctx, c, http.MethodGet, base+"/metrics", "", nil)
	if err != nil {
		return nil, err
	}
	m := metrics{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// delta returns after − before for every series in after.
func (after metrics) delta(before metrics) metrics {
	d := metrics{}
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series whose name (before any labels) is name and whose
// label set contains all of the given `key="value"` pairs.
func (m metrics) sum(name string, labels ...string) float64 {
	var s float64
	for k, v := range m {
		base, lbl, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lbl, l) {
				ok = false
				break
			}
		}
		if ok {
			s += v
		}
	}
	return s
}
