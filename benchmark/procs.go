package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"s3/internal/faultnet"
)

// Fixed inputs of every workload: the dataset and its seed never change
// with --seed, which drives the query lists only.
const (
	dataset      = "twitter"
	datasetSeed  = 1
	datasetScale = 1.0
	// smokeScale is the dataset scale of the -smoke mode.
	smokeScale = 0.5
	shardCount = 4
	// healthzWait is how long a process may take to report serving.
	healthzWait = 30 * time.Second
	// linkLatency is the per-write delay of the dist-rtt proxies; a
	// request and its reply are one write each, so an RPC pays twice this.
	linkLatency = 2 * time.Millisecond
)

// env locates everything a run reads or writes; all of it is inside the
// checkout.
type env struct {
	root    string  // checkout root (holds BENCHMARK.json)
	binDir  string  // built s3gen / s3serve
	outDir  string  // benchmark/out: server logs and span files
	workDir string  // this run's scratch directory, removed on exit
	scale   float64 // s3gen -scale: datasetScale, or smokeScale
}

// proc is one child process. exited is closed once Wait has returned, so
// both "is it still alive" and "wait until it has ended" are a receive.
type proc struct {
	name    string
	cmd     *exec.Cmd
	url     string
	exited  chan struct{}
	waitErr error
}

func (p *proc) alive() bool {
	select {
	case <-p.exited:
		return false
	default:
		return true
	}
}

// stop kills the process and waits until it has ended.
func (p *proc) stop() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// start launches bin in its own working directory with stderr and stdout
// kept under benchmark/out. Pdeathsig makes the kernel kill the child if
// the harness itself dies without running its cleanup.
func (e *env) start(name, bin string, args ...string) (*proc, error) {
	dir := filepath.Join(e.workDir, "cwd-"+name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(e.outDir, name+".log"))
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd := exec.Command(filepath.Join(e.binDir, bin), args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, exited: make(chan struct{})}
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	return p, nil
}

// freeAddr picks a free loopback port by binding and closing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// bindAttempts is how often serve tries a fresh port. Between freeAddr's
// close and the server's listen, an outgoing connection of any process on
// the box can be given the same number as its source port, and the server
// then exits with "address already in use" (seen once in 40 runs).
const bindAttempts = 3

var errExited = errors.New("exited before serving")

// serve starts an s3serve on a free port and waits until /healthz reports
// serving. A process that exits first is started again on another port.
func (e *env) serve(ctx context.Context, name string, args ...string) (*proc, error) {
	for attempt := 1; ; attempt++ {
		addr, err := freeAddr()
		if err != nil {
			return nil, err
		}
		p, err := e.start(name, "s3serve", append(args[:len(args):len(args)], "-addr", addr)...)
		if err != nil {
			return nil, err
		}
		p.url = "http://" + addr
		if err = waitServing(ctx, p); err == nil {
			return p, nil
		}
		p.stop()
		if !errors.Is(err, errExited) || attempt == bindAttempts {
			return nil, err
		}
	}
}

// waitServing polls /healthz until it reports "serving". It fails as soon
// as the process exits, and after healthzWait.
func waitServing(ctx context.Context, p *proc) error {
	ctx, cancel := context.WithTimeout(ctx, healthzWait)
	defer cancel()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		var body struct {
			Status string `json:"status"`
		}
		// Whatever answers on the port may not be the server: bound the poll.
		pollCtx, cancelPoll := context.WithTimeout(ctx, time.Second)
		err := getJSON(pollCtx, p.url+"/healthz", &body)
		cancelPoll()
		if err == nil && body.Status == "serving" {
			return nil
		}
		select {
		case <-p.exited:
			return fmt.Errorf("%s %w: %v (log under benchmark/out)", p.name, errExited, p.waitErr)
		case <-ctx.Done():
			return fmt.Errorf("%s: /healthz not serving within %v", p.name, healthzWait)
		case <-tick.C:
		}
	}
}

// get hands the body of a 200-OK GET to read.
func get(ctx context.Context, url string, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return read(resp.Body)
}

func getJSON(ctx context.Context, url string, v any) error {
	return get(ctx, url, func(r io.Reader) error { return json.NewDecoder(r).Decode(v) })
}

// scrape reads one process's /metrics page.
func scrape(ctx context.Context, p *proc) (page samples, err error) {
	err = get(ctx, p.url+"/metrics", func(r io.Reader) error {
		page, err = parseMetrics(r)
		return err
	})
	return page, err
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM of %d: %v", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// generate runs s3gen into dir and returns the path of the snapshot
// (shards == 1) or of the shard-set manifest.
func (e *env) generate(ctx context.Context, dir string, shards int) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "data.snap")
	args := []string{"-dataset", dataset, "-scale", fmt.Sprint(e.scale), "-seed", fmt.Sprint(datasetSeed)}
	if shards > 1 {
		path = filepath.Join(dir, "data.set")
		args = append(args, "-shards", fmt.Sprint(shards))
	}
	cmd := exec.CommandContext(ctx, filepath.Join(e.binDir, "s3gen"), append(args, "-snap", path)...)
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("s3gen: %v\n%s", err, out)
	}
	return path, nil
}

// topology is one booted deployment: every server process, the proxies in
// front of the workers, and the process clients talk to.
type topology struct {
	front   *proc
	workers []*proc
	proxies []*faultnet.Proxy
}

func (t *topology) procs() []*proc {
	if t.front == nil {
		return t.workers
	}
	return append([]*proc{t.front}, t.workers...)
}

// stop ends every process and proxy and waits for them.
func (t *topology) stop() {
	for _, p := range t.procs() {
		p.stop()
	}
	for _, px := range t.proxies {
		_ = px.Close()
	}
}

// dead names the first process that is no longer running.
func (t *topology) dead() string {
	for _, p := range t.procs() {
		if !p.alive() {
			return fmt.Sprintf("%s (%v)", p.name, p.waitErr)
		}
	}
	return ""
}

// boot generates the workload's files in dir and brings its processes up
// to /healthz serving. On error everything already started is stopped.
func (e *env) boot(ctx context.Context, w *workload, dir, tag string) (_ *topology, err error) {
	t := &topology{}
	defer func() {
		if err != nil {
			t.stop()
		}
	}()
	switch w.kind {
	case kindSingle:
		snap, err := e.generate(ctx, dir, 1)
		if err != nil {
			return nil, err
		}
		t.front, err = e.serve(ctx, tag+"-server", append([]string{"-snapshot", snap, "-mmap"}, w.serverArgs()...)...)
		if err != nil {
			return nil, err
		}
	case kindSharded:
		set, err := e.generate(ctx, dir, shardCount)
		if err != nil {
			return nil, err
		}
		t.front, err = e.serve(ctx, tag+"-server", append([]string{"-shardset", set, "-mmap"}, w.serverArgs()...)...)
		if err != nil {
			return nil, err
		}
	case kindDist:
		set, err := e.generate(ctx, dir, shardCount)
		if err != nil {
			return nil, err
		}
		var urls []string
		for i, hosted := range []string{"0,2", "1,3"} {
			wk, err := e.serve(ctx, fmt.Sprintf("%s-worker%d", tag, i),
				"-shardset", set, "-shards-of", hosted, "-mmap", "-proxcache-mb", "0")
			if err != nil {
				return nil, err
			}
			t.workers = append(t.workers, wk)
			px, err := faultnet.NewProxy("127.0.0.1:0", strings.TrimPrefix(wk.url, "http://"))
			if err != nil {
				return nil, err
			}
			px.SetLatency(linkLatency)
			go func() { _ = px.Serve() }() // returns once stop closes the proxy
			t.proxies = append(t.proxies, px)
			urls = append(urls, "http://"+px.Addr())
		}
		// The coordinator probes membership once at start-up and then
		// every 5 s; serve has waited for the workers to be serving.
		t.front, err = e.serve(ctx, tag+"-coordinator", append([]string{"-shardset", set, "-coordinator",
			"-worker-urls", strings.Join(urls, ",")}, w.serverArgs()...)...)
		if err != nil {
			return nil, err
		}
	}
	return t, nil
}
