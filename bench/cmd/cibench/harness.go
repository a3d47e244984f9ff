package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/easeml/ci/internal/bounds"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/planner"
	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/server"
)

// reqHeader carries the benchmark's request ID from the client span to
// the server-side handler span.
const reqHeader = "X-Bench-Req"

// target is one control plane served over a loopback listener, exactly
// as the easeml-ci-server binary serves it: server.NewMulti behind
// net/http, production defaults (shared pool workers 0 = default, queue
// capacity 0 = 1024, fsync on when durable).
type target struct {
	multi *server.Multi
	srv   *http.Server
	url   string
	done  chan struct{}
}

// defaultGenesis is the implicit default project every control plane
// carries. The benchmark registers its own projects and never commits to
// this one, so it is kept small.
func defaultGenesis() server.Genesis {
	labels := make([]int, 1000)
	for i := range labels {
		labels[i] = i % classes
	}
	return server.Genesis{
		Condition: "n > 0.5 +/- 0.1", Reliability: 0.9, Mode: interval.FPFree,
		Adaptivity: script.Adaptivity{Kind: script.AdaptivityFull}, Steps: 1,
		Labels: labels, Classes: classes, ModelName: "deployed-h0", ModelPredictions: labels,
	}
}

// retainBudget bounds the memory the server's finished-job retention may
// hold. Every retained job keeps its request, prediction vector
// included, so the server default (4096 jobs per project) would pin
// 4096 x 8n bytes per project: 625 MiB for ci-5k-mem, 6.1 GiB for
// ci-100k-mem. The benchmark sizes retention from this budget instead.
const retainBudget = 32 << 20

// retainFor is the per-project finished-job retention for w.
func retainFor(w workload) int {
	return max(32, retainBudget/(8*w.n*w.projects))
}

// startTarget boots a control plane on dataDir ("" = in-memory), serves
// it on 127.0.0.1, registers the projects (none when reopening an
// existing data dir) and waits until /readyz answers 200. It returns the
// elapsed set-up time and each registration's time. A traced run wires
// the tracer's WAL filesystem, oracle factory and handler wrapper in.
func startTarget(c *client, w workload, dataDir string, projects []*projectInput, tr *tracer) (*target, time.Duration, []time.Duration, error) {
	// Every set-up starts from cold process-wide caches, as a fresh
	// server process would.
	planner.Default.Reset()
	bounds.ResetExactCache()

	start := time.Now()
	opts := server.MultiOptions{DataDir: dataDir, Tenant: server.Options{QueueRetain: retainFor(w)}}
	if tr != nil {
		opts.Tenant.OracleFactory = tr.oracleFactory
		if dataDir != "" {
			opts.Tenant.WALFS = timedFS{tr: tr}
			opts.ControlFS = timedFS{tr: tr}
		}
	}
	m, err := server.NewMulti(defaultGenesis(), opts)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("starting control plane: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Close()
		return nil, 0, nil, err
	}
	var h http.Handler = m
	if tr != nil {
		h = tr.handler(m)
	}
	t := &target{multi: m, srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(t.done)
		_ = t.srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	var creates []time.Duration
	for _, p := range projects {
		rep, err := c.do(http.MethodPost, t.url+"/api/v1/projects", p.create, "create", p.id)
		if err == nil && rep.status != http.StatusCreated {
			err = fmt.Errorf("status %d: %s", rep.status, rep.body)
		}
		if err != nil {
			t.stop()
			return nil, 0, nil, fmt.Errorf("registering %s: %w", p.id, err)
		}
		creates = append(creates, rep.end.Sub(rep.start))
	}
	for {
		rep, err := c.do(http.MethodGet, t.url+"/readyz", nil, "readyz", "")
		if err == nil && rep.status == http.StatusOK {
			break
		}
		if time.Since(start) > 30*time.Second {
			t.stop()
			return nil, 0, nil, fmt.Errorf("/readyz did not answer 200 within 30s (last: %v %d)", err, rep.status)
		}
		time.Sleep(time.Millisecond)
	}
	return t, time.Since(start), creates, nil
}

// stop shuts the listener, then drains and closes the control plane.
func (t *target) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = t.srv.Shutdown(ctx)
	<-t.done
	t.multi.Close()
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status     int
	body       []byte
	start, end time.Time
}

// client is the load generator's HTTP client: one keep-alive transport
// holding at most nproc connections per server, shared by every sender.
type client struct {
	hc *http.Client
	tr *tracer

	attempted, failed atomic.Int64
	errMu             sync.Mutex
	errs              []string
}

func newClient(tr *tracer) *client {
	n := runtime.NumCPU()
	return &client{tr: tr, hc: &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     n,
			MaxIdleConnsPerHost: n,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response. kind names the
// request class in trace spans.
func (c *client) do(method, url string, body []byte, kind, project string) (reply, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	var id uint64
	if c.tr != nil && c.tr.on.Load() {
		id = c.tr.ids.Add(1)
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	}
	rep := reply{start: time.Now()}
	resp, err := c.hc.Do(req)
	if err == nil {
		rep.status = resp.StatusCode
		rep.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	rep.end = time.Now()
	if id != 0 {
		c.tr.add(span{Name: "client." + kind, ID: id, Project: project, N: int64(len(body))}, rep.start, rep.end)
	}
	return rep, err
}

// call sends one counted request: anything but the wanted status, a
// transport error or a timeout counts as failed.
func (c *client) call(method, url string, body []byte, want int, kind, project string) (reply, bool) {
	c.attempted.Add(1)
	rep, err := c.do(method, url, body, kind, project)
	if err == nil && rep.status == want {
		return rep, true
	}
	if err == nil {
		err = fmt.Errorf("status %d, want %d: %.200s", rep.status, want, rep.body)
	}
	c.fail(fmt.Sprintf("%s %s: %v", method, strings.TrimPrefix(url, "http://"), err))
	return rep, false
}

// fail counts one failed operation and keeps the first few reasons.
func (c *client) fail(reason string) {
	c.failed.Add(1)
	c.errMu.Lock()
	if len(c.errs) < 5 {
		c.errs = append(c.errs, reason)
	}
	c.errMu.Unlock()
}

// hookReceiver is the loopback endpoint async commits name as their
// webhook. It pairs each delivery with the job the submitter registered,
// whichever of the two arrives first.
type hookReceiver struct {
	srv  *http.Server
	url  string
	done chan struct{}

	mu   sync.Mutex
	jobs map[string]*asyncJob
}

// asyncJob is one accepted async commit.
type asyncJob struct {
	done    chan struct{} // closed by the first webhook delivery
	arrived time.Time
	body    []byte
	hooks   int
}

func startHooks() (*hookReceiver, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := &hookReceiver{url: "http://" + ln.Addr().String() + "/hook", jobs: map[string]*asyncJob{}, done: make(chan struct{})}
	h.srv = &http.Server{Handler: http.HandlerFunc(h.serve)}
	go func() {
		defer close(h.done)
		_ = h.srv.Serve(ln)
	}()
	return h, nil
}

func (h *hookReceiver) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx)
	<-h.done
}

// job returns the record for project/jobID, creating it on first touch.
func (h *hookReceiver) job(project, id string) *asyncJob {
	h.mu.Lock()
	defer h.mu.Unlock()
	key := project + "/" + id
	j := h.jobs[key]
	if j == nil {
		j = &asyncJob{done: make(chan struct{})}
		h.jobs[key] = j
	}
	return j
}

func (h *hookReceiver) serve(w http.ResponseWriter, r *http.Request) {
	arrived := time.Now()
	body, err := io.ReadAll(r.Body)
	if err != nil {
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	var st struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(body, &st); err != nil || st.JobID == "" {
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	j := h.job(strings.TrimPrefix(r.URL.Path, "/hook/"), st.JobID)
	h.mu.Lock()
	j.hooks++
	if j.hooks == 1 {
		j.arrived, j.body = arrived, body
		close(j.done)
	}
	h.mu.Unlock()
	w.WriteHeader(http.StatusOK)
}

// problems lists every job that did not get exactly one webhook. Call it
// once the server has drained.
func (h *hookReceiver) problems() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []string
	for key, j := range h.jobs {
		if j.hooks != 1 {
			out = append(out, fmt.Sprintf("job %s: %d webhooks, want exactly one", key, j.hooks))
		}
	}
	sort.Strings(out)
	return out
}

// copyDir copies a quiesced data directory: the crash image a SIGKILL at
// this instant would leave (no shutdown compaction ran).
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		out := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(out, 0o755)
		}
		if !d.Type().IsRegular() {
			return errors.New("unexpected non-regular file " + path)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(out, b, 0o644)
	})
}
