package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"gpluscircles/internal/obs"
	"gpluscircles/internal/serve/api"
)

// proc is one started server process.
type proc struct {
	name   string
	cmd    *exec.Cmd
	addr   string        // host:port from the "listening on" line
	ready  chan string   // receives addr once
	exited chan struct{} // closed once Wait has returned
	err    error         // Wait's result, valid after exited is closed

	mu   sync.Mutex
	tail []string // last lines of standard error, for diagnostics
}

// startProc starts bin and follows its standard error for the
// "<name>: listening on <addr>" line both servers print once bound.
func startProc(name, bin string, args ...string) (*proc, error) {
	p := &proc{
		name:   name,
		cmd:    exec.Command(bin, args...),
		ready:  make(chan string, 1),
		exited: make(chan struct{}),
	}
	// The kernel kills the server if this process dies first, so an
	// interrupted benchmark never leaves one behind.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	prefix := filepath.Base(bin) + ": listening on "
	// The reaper ends when the server exits; stop and kill wait for it
	// through exited.
	//lint:ignore goroutineleak joined through p.exited by stop and kill
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, prefix); ok {
				if addr, _, _ := strings.Cut(rest, " "); addr != "" {
					select {
					case p.ready <- addr:
					default:
					}
				}
			}
			p.mu.Lock()
			p.tail = append(p.tail, line)
			if len(p.tail) > 20 {
				p.tail = p.tail[1:]
			}
			p.mu.Unlock()
		}
		// Drain anything the scanner refused so the server never blocks
		// on a full pipe, then reap it.
		_, _ = io.Copy(io.Discard, stderr)
		p.err = p.cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) logTail() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return strings.Join(p.tail, "\n")
}

// waitReady waits for the listening line.
func (p *proc) waitReady(ctx context.Context, timeout time.Duration) error {
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case p.addr = <-p.ready:
		return nil
	case <-p.exited:
		return fmt.Errorf("%s exited before listening: %v\n%s", p.name, p.err, p.logTail())
	case <-t.C:
		return fmt.Errorf("%s not listening after %v\n%s", p.name, timeout, p.logTail())
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stop sends SIGTERM and waits for the drain. It reports an error when
// the process does not exit 0 within timeout; it is then killed.
func (p *proc) stop(timeout time.Duration) error {
	select {
	case <-p.exited:
		return fmt.Errorf("%s had already exited: %v", p.name, p.err)
	default:
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signal %s: %w", p.name, err)
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-p.exited:
		if p.err != nil {
			return fmt.Errorf("%s did not drain cleanly: %v\n%s", p.name, p.err, p.logTail())
		}
		return nil
	case <-t.C:
		p.kill()
		return fmt.Errorf("%s did not drain within %v", p.name, timeout)
	}
}

// kill stops the process unconditionally and waits for it.
func (p *proc) kill() {
	select {
	case <-p.exited:
		return
	default:
	}
	_ = p.cmd.Process.Kill() // already exiting when this fails
	<-p.exited
}

// tier is a running circlerouter in front of two circled backends.
type tier struct {
	backends  []*proc
	router    *proc
	manifests []string // backend run manifests, written on drain
	hc        *http.Client
}

func (t *tier) url() string { return "http://" + t.router.addr }

func (t *tier) backendURL(i int) string { return "http://" + t.backends[i].addr }

func (t *tier) procs() []*proc {
	out := append([]*proc(nil), t.backends...)
	if t.router != nil {
		out = append(out, t.router)
	}
	return out
}

// kill stops every process of the tier that still runs.
func (t *tier) kill() {
	for _, p := range t.procs() {
		p.kill()
	}
}

const (
	numBackends  = 2
	readyTimeout = 60 * time.Second
	drainTimeout = 20 * time.Second
	// basePort is the first backend's port. The router places data sets
	// on a hash ring of the backend URLs, so fixed ports give every tier
	// the same placement, where ephemeral ones would reshuffle which
	// backend caches what from one boot to the next.
	basePort = 28779
	// portTries is how many consecutive port pairs are tried when one is
	// taken.
	portTries = 5
)

// bootTier starts two backends serving the mix's suite (its scale and
// seed) and a router in front of them, and returns once the router is
// healthy and each backend has answered one request of the mix's kind
// per data set it owns. The returned seconds are the tier's set-up
// time. On error every started process is stopped.
func bootTier(ctx context.Context, cfg config, m *mix, tag string) (t *tier, setup float64, err error) {
	dir := filepath.Join(cfg.out, "tier")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	t = &tier{hc: newClient(cfg.nproc)}
	defer func() {
		if err != nil {
			t.kill()
		}
	}()
	start := now()
	for try := 0; ; try++ {
		err := t.startBackends(ctx, cfg, m, tag, basePort+numBackends*try)
		if err == nil {
			break
		}
		t.kill()
		t.backends, t.manifests = nil, nil
		if try+1 == portTries || ctx.Err() != nil {
			return t, 0, err
		}
	}
	t.router, err = startProc("router", filepath.Join(cfg.bin, "circlerouter"),
		"-addr", "127.0.0.1:0",
		"-backends", "http://"+t.backends[0].addr+",http://"+t.backends[1].addr)
	if err != nil {
		return t, 0, err
	}
	if err := t.router.waitReady(ctx, readyTimeout); err != nil {
		return t, 0, err
	}
	if err := t.waitHealthy(ctx); err != nil {
		return t, 0, err
	}
	for _, req := range m.warmRequests() {
		if _, status, _, err := post(ctx, t.hc, t.url(), req); err != nil || status != http.StatusOK {
			return t, 0, fmt.Errorf("warm-up request %s/%s: status %d, %v", req.Dataset, req.Group, status, err)
		}
	}
	return t, seconds(start), nil
}

// startBackends starts the backends on consecutive ports from port and
// waits until each listens.
func (t *tier) startBackends(ctx context.Context, cfg config, m *mix, tag string, port int) error {
	dir := filepath.Join(cfg.out, "tier")
	for i := 0; i < numBackends; i++ {
		mf := filepath.Join(dir, fmt.Sprintf("%s-backend%d.manifest.jsonl", tag, i))
		_ = os.Remove(mf) // a stale manifest must not pass the drain check
		p, err := startProc(fmt.Sprintf("backend%d", i), filepath.Join(cfg.bin, "circled"),
			"-addr", "127.0.0.1:"+strconv.Itoa(port+i),
			"-scale", strconv.FormatFloat(m.suite.Options().Scale, 'g', -1, 64),
			"-seed", strconv.FormatInt(m.suite.Options().Seed, 10),
			"-manifest", mf)
		if err != nil {
			return err
		}
		t.backends = append(t.backends, p)
		t.manifests = append(t.manifests, mf)
	}
	for _, p := range t.backends {
		if err := p.waitReady(ctx, readyTimeout); err != nil {
			return err
		}
	}
	return nil
}

// waitHealthy polls the router's /healthz until both backends are up.
func (t *tier) waitHealthy(ctx context.Context) error {
	deadline := now().Add(readyTimeout)
	for {
		var h struct {
			Healthy int `json:"healthy"`
		}
		if err := getJSON(ctx, t.hc, t.url()+"/healthz", &h); err == nil && h.Healthy == numBackends {
			return nil
		}
		if now().After(deadline) {
			return fmt.Errorf("router not healthy after %v", readyTimeout)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// shutdown drains the tier with SIGTERM, router first, and checks that
// every process exited 0 and each backend flushed a complete manifest.
func (t *tier) shutdown() error {
	defer t.kill()
	var errs []error
	if err := t.router.stop(drainTimeout); err != nil {
		errs = append(errs, err)
	}
	for i, p := range t.backends {
		if err := p.stop(drainTimeout); err != nil {
			errs = append(errs, err)
			continue
		}
		if err := checkManifest(t.manifests[i]); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", p.name, err))
		}
	}
	return errors.Join(errs...)
}

func checkManifest(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := obs.ReadManifest(f)
	if err != nil {
		return err
	}
	if m.Meta.Partial {
		return fmt.Errorf("manifest marks a partial run: %s", m.Meta.Err)
	}
	return nil
}

// sample is the tier's state at one instant.
type sample struct {
	hwmKB    float64 // peak RSS of the router plus the backends
	backends []obs.Snapshot
}

// snapshot reads the tier's peak RSS from /proc and each backend's
// /metrics.
func (t *tier) snapshot(ctx context.Context) (sample, error) {
	var s sample
	for _, p := range t.procs() {
		hwm, err := procHWMkB(p.pid())
		if err != nil {
			return s, err
		}
		s.hwmKB += hwm
	}
	for i := range t.backends {
		var mr api.MetricsResponse
		if err := getJSON(ctx, t.hc, t.backendURL(i)+"/metrics", &mr); err != nil {
			return s, fmt.Errorf("backend%d metrics: %w", i, err)
		}
		s.backends = append(s.backends, mr.Metrics)
	}
	return s, nil
}

// newClient returns an HTTP client keeping one idle connection per
// closed-loop client.
func newClient(clients int) *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = 2 * clients
	return &http.Client{Transport: tr, Timeout: 60 * time.Second}
}

func getJSON(ctx context.Context, hc *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// post sends one score request and returns the body, the status and the
// X-Backend header.
func post(ctx context.Context, hc *http.Client, base string, r api.ScoreRequest) ([]byte, int, string, error) {
	body, err := json.Marshal(r)
	if err != nil {
		return nil, 0, "", err
	}
	return postBody(ctx, hc, base, body)
}

func postBody(ctx context.Context, hc *http.Client, base string, body []byte) ([]byte, int, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/score", bytes.NewReader(body))
	if err != nil {
		return nil, 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return nil, 0, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, "", err
	}
	return data, resp.StatusCode, resp.Header.Get("X-Backend"), nil
}
