package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/server"
	"github.com/easeml/ci/internal/wal"
)

// span is one timed call across a layer boundary. Client spans carry the
// request ID; the server's handler span names it as parent. WAL spans
// name the project whose directory they touched, label spans the project
// whose testset the oracle serves.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_us"` // since the tracer started
	End     int64  `json:"end_us"`
	ID      uint64 `json:"id,omitempty"`
	Parent  uint64 `json:"parent,omitempty"`
	Project string `json:"project,omitempty"`
	N       int64  `json:"n,omitempty"` // bytes or count
}

func (s span) dur() time.Duration { return time.Duration(s.End-s.Start) * time.Microsecond }

// tracer holds the spans of a traced run in memory. Recording is off
// until on is set, so set-up and warm-up leave no spans.
type tracer struct {
	on  atomic.Bool
	t0  time.Time
	ids atomic.Uint64

	mu    sync.Mutex
	spans []span
	// compactStart remembers, per log directory, when a snapshot file was
	// opened: a compaction runs from there to the log's truncation.
	compactStart map[string]time.Time

	// truth maps a hash of each testset's labels to its project, so an
	// oracle built by the server's factory knows whose labels it serves.
	truth map[[32]byte]string
}

func newTracer(in []*projectInput) *tracer {
	t := &tracer{t0: time.Now(), compactStart: map[string]time.Time{}, truth: map[[32]byte]string{}}
	for _, p := range in {
		for _, l := range p.labels {
			t.truth[hashLabels(l)] = p.id
		}
	}
	return t
}

func hashLabels(l []int) [32]byte {
	h := sha256.New()
	buf := make([]byte, 0, 8*len(l))
	for _, y := range l {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(y))
	}
	h.Write(buf)
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func (t *tracer) add(s span, start, end time.Time) {
	if !t.on.Load() {
		return
	}
	s.Start = start.Sub(t.t0).Microseconds()
	s.End = end.Sub(t.t0).Microseconds()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write dumps every span as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// handler wraps the control plane's http.Handler: one server.handle span
// per request, parented to the client span through the request header.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		parent, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
		t.add(span{Name: "server.handle", Parent: parent, N: cw.n}, start, time.Now())
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// oracleFactory is the server's Options.OracleFactory in a traced run:
// the in-process truth oracle the server uses anyway, timed per batch.
func (t *tracer) oracleFactory(gen int, truth []int) labeling.Oracle {
	project := t.truth[hashLabels(truth)]
	return timedOracle{t: t, project: project, o: labeling.NewTruthOracle(truth)}
}

type timedOracle struct {
	t       *tracer
	project string
	o       *labeling.TruthOracle
}

func (o timedOracle) Label(i int) (int, error) { return o.o.Label(i) }

func (o timedOracle) LabelBatch(idx []int) ([]int, error) {
	start := time.Now()
	out, err := o.o.LabelBatch(idx)
	o.t.add(span{Name: "labeling.batch", Project: o.project, N: int64(len(idx))}, start, time.Now())
	return out, err
}

// timedFS is a passthrough over the real filesystem that times every
// write and fsync the write-ahead logs make, and every compaction (from
// opening the snapshot's temp file to truncating the log).
type timedFS struct{ tr *tracer }

func (f timedFS) MkdirAll(path string, perm os.FileMode) error {
	return wal.OSFS{}.MkdirAll(path, perm)
}
func (f timedFS) ReadFile(name string) ([]byte, error)  { return wal.OSFS{}.ReadFile(name) }
func (f timedFS) Rename(oldpath, newpath string) error  { return wal.OSFS{}.Rename(oldpath, newpath) }
func (f timedFS) Remove(name string) error              { return wal.OSFS{}.Remove(name) }
func (f timedFS) Stat(name string) (os.FileInfo, error) { return wal.OSFS{}.Stat(name) }

func (f timedFS) OpenFile(name string, flag int, perm os.FileMode) (wal.File, error) {
	file, err := wal.OSFS{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(name, ".tmp") {
		f.tr.mu.Lock()
		f.tr.compactStart[filepath.Dir(name)] = time.Now()
		f.tr.mu.Unlock()
	}
	// The data dir holds one directory per project, plus _control for
	// the registry.
	return timedFile{File: file, tr: f.tr, name: name, project: filepath.Base(filepath.Dir(name))}, nil
}

// Open is how the log opens its directory to fsync it after a snapshot
// rename.
func (f timedFS) Open(name string) (wal.File, error) {
	file, err := wal.OSFS{}.Open(name)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, tr: f.tr, name: name, project: filepath.Base(name)}, nil
}

type timedFile struct {
	wal.File
	tr      *tracer
	name    string
	project string
}

func (f timedFile) Write(b []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(b)
	f.tr.add(span{Name: "wal.write", Project: f.project, N: int64(n)}, start, time.Now())
	return n, err
}

func (f timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.tr.add(span{Name: "wal.fsync", Project: f.project}, start, time.Now())
	return err
}

func (f timedFile) Truncate(size int64) error {
	err := f.File.Truncate(size)
	if size == 0 && filepath.Base(f.name) == "wal.log" {
		dir := filepath.Dir(f.name)
		f.tr.mu.Lock()
		start, ok := f.tr.compactStart[dir]
		delete(f.tr.compactStart, dir)
		f.tr.mu.Unlock()
		if ok {
			f.tr.add(span{Name: "wal.compact", Project: f.project}, start, time.Now())
		}
	}
	return err
}

// scraper polls /api/v1/metrics every 100 ms during a traced phase and
// keeps the scheduler backlog samples plus the first and last snapshot.
type scraper struct {
	pending     []float64
	first, last server.MultiMetricsResponse
	stop        chan struct{}
	done        chan struct{}
}

func startScraper(c *client, url string) *scraper {
	s := &scraper{stop: make(chan struct{}), done: make(chan struct{})}
	s.first, _ = scrapeOnce(c, url)
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				m, ok := scrapeOnce(c, url)
				if !ok {
					continue
				}
				pending := 0
				for _, src := range m.Scheduler.Sources {
					pending += src.Pending
				}
				s.pending = append(s.pending, float64(pending))
			}
		}
	}()
	return s
}

func (s *scraper) finish(c *client, url string) {
	close(s.stop)
	<-s.done
	s.last, _ = scrapeOnce(c, url)
}

func scrapeOnce(c *client, url string) (server.MultiMetricsResponse, bool) {
	var m server.MultiMetricsResponse
	rep, err := c.do(http.MethodGet, url+"/api/v1/metrics", nil, "scrape", "")
	if err != nil || rep.status != http.StatusOK || json.Unmarshal(rep.body, &m) != nil {
		return m, false
	}
	return m, true
}

// heapSampler records the peak of the Go heap's object bytes, read from
// runtime/metrics every 100 ms.
type heapSampler struct {
	peak heapPeak
	stop chan struct{}
	done chan struct{}
}

type heapPeak struct {
	bytes   uint64
	samples int
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: heapMetric}}
		for {
			metrics.Read(sample)
			h.peak.bytes = max(h.peak.bytes, sample[0].Value.Uint64())
			h.peak.samples++
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() heapPeak {
	close(h.stop)
	<-h.done
	return h.peak
}

// runtimeCounters reads the process-wide allocation and CPU counters the
// runtime per-layer metrics are deltas of.
type runtimeCounters struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}
