package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/easeml/ci/internal/server"
)

// A run boots the control plane from scratch at least minSetups times,
// and more (up to maxSetups) until the boots took setupBudget seconds:
// setup_s is their median, and the last boot carries the load.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = 1.0
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
	spans   string // where a traced run writes its spans; "" = nowhere
}

// outcome is one workload run's result.
type outcome struct {
	w                 workload
	correct           bool
	attempted, failed int64
	metrics           map[string]measured
	problems          []string
	ladder            *ladder
	// speed is the host's slowdown against the reference in set-up, the
	// open loop and the closed loop (untraced runs).
	speed [3]float64
}

// runWorkload generates the seed's inputs, boots the control plane,
// drives it through warm-up, the open loop and the closed loop, checks
// every answer and reports the end-to-end metrics (or, traced, the
// per-layer ones of a traced open loop).
func runWorkload(w workload, rc runConfig) (*outcome, error) {
	in, err := genInputs(w, rc.seed)
	if err != nil {
		return nil, err
	}
	var hooks *hookReceiver
	hookURL := ""
	if w.async {
		if hooks, err = startHooks(); err != nil {
			return nil, err
		}
		defer hooks.stop()
		hookURL = hooks.url
	}
	if err := encodeBodies(w, in, hookURL); err != nil {
		return nil, err
	}
	var tr *tracer
	if rc.trace {
		tr = newTracer(in)
	}
	c := newClient(tr)
	defer c.close()

	total := time.Duration(rc.seconds * float64(time.Second))
	openDur := time.Duration(float64(total) * w.openShare)
	closedDur := total - openDur
	r := &runner{w: w, c: c, hooks: hooks}
	ids := map[string]bool{}
	for _, p := range in {
		r.ps = append(r.ps, &projState{in: p, got: map[int]verdict{}})
		ids[p.id] = true
	}

	var dirs []string
	defer func() {
		for _, d := range dirs {
			_ = os.RemoveAll(d)
		}
	}()
	newDir := func() (string, error) {
		if !w.durable {
			return "", nil
		}
		// Under $TMPDIR, which run.sh points into the checkout.
		d, err := os.MkdirTemp("", "cibench-"+w.name+"-")
		if err == nil {
			dirs = append(dirs, d)
		}
		return d, err
	}

	// An untraced run reads the host's slowdown (speed.go) at quiet
	// points: around set-up, after warm-up, and between the stretches of
	// each loaded phase.
	var u untracedRun
	var slowBefore float64
	if !rc.trace {
		slowBefore = hostSlowdown()
	}

	var setups, creates []float64
	var dataDir string
	for spent := 0.0; r.t == nil; {
		dir, err := newDir()
		if err != nil {
			return nil, err
		}
		runtime.GC() // no collection left over from the previous boot
		t, d, cr, err := startTarget(c, w, dir, in, tr)
		if err != nil {
			return nil, err
		}
		spent += d.Seconds()
		setups = append(setups, d.Seconds())
		for _, x := range cr {
			creates = append(creates, ms(x))
		}
		if len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups) {
			t.stop()
			continue
		}
		r.t, dataDir = t, dir
	}
	if !rc.trace {
		u.setups, u.setupSlow = setups, (slowBefore+hostSlowdown())/2
	}
	running := true
	defer func() {
		if running {
			r.t.stop()
		}
	}()

	runtime.GC() // drop input generation's garbage before the heap is watched
	heap := startHeapSampler()
	r.warmup()

	openRange := make([][2]int, len(r.ps))
	mark := func(end int) {
		for i, p := range r.ps {
			openRange[i][end] = p.next
		}
	}
	var untraced, open *phaseRec
	var sc *scraper
	var rt0, rt1 runtimeCounters
	var hooksBefore, hooksAfter webhookCounters
	if rc.trace {
		// A traced run spends half its time in an untraced open loop, the
		// reference for the tracing overhead, and half in a traced one,
		// which the per-layer metrics describe: the load whose latency the
		// commit ladder explains. It runs no closed loop.
		half := total / 2
		untraced = r.openLoop(half, newSchedule(w, rc.seed, 1, half), false)
		tr.on.Store(true)
		rt0, hooksBefore = readRuntime(), r.webhookStats()
		sc = startScraper(c, r.t.url)
		openDur = total - half
	}
	mark(0)
	var slow float64 // the latest quiet reading
	if rc.trace {
		open = r.openLoop(openDur, newSchedule(w, rc.seed, 0, openDur), true)
	} else {
		sched := newSchedule(w, rc.seed, 0, openDur)
		open = &phaseRec{}
		u.open = open
		u.openSlow, slow = stretches(openDur, hostSlowdown(), func(from, d time.Duration) {
			part := r.openLoop(d, sched.window(from, d), false)
			u.openParts = append(u.openParts, part)
			open.merge(part)
		})
	}
	mark(1)
	if rc.trace {
		sc.finish(c, r.t.url)
		rt1, hooksAfter = readRuntime(), r.webhookStats()
		tr.on.Store(false)
	}
	// The heap is watched over the fixed work of warm-up and the open
	// loop only: the server keeps every retired testset, so the heap grows
	// with commits served, and the closed loop's commit count varies.
	u.peak = heap.finish()
	var crash string
	var live map[string][2][]byte
	if w.durable {
		if crash, err = newDir(); err != nil {
			return nil, err
		}
		if err := copyDir(dataDir, crash); err != nil {
			return nil, fmt.Errorf("copying crash image: %w", err)
		}
		live = r.snapshotReads(r.t.url)
	}
	if !rc.trace {
		if w.durable {
			slow = hostSlowdown() // the crash copy ran since the last reading
		}
		u.closedSlow, _ = stretches(closedDur, slow, func(_, d time.Duration) {
			part := r.closedLoop(d)
			u.rates = append(u.rates, part.rate)
			u.closedCommits += part.commits
		})
	}
	r.t.stop()
	running = false

	out := &outcome{w: w, metrics: map[string]measured{}}
	if hooks != nil {
		out.problems = append(out.problems, hooks.problems()...)
	}
	var recovery time.Duration
	var imageBytes int64
	if w.durable {
		var problems []string
		recovery, imageBytes, problems = r.recover(crash, live)
		out.problems = append(out.problems, problems...)
	}
	gate := r.gate(openRange, rc.trace)
	out.problems = append(out.problems, gate.problems...)
	if gate.refLabels != open.labels {
		out.problems = append(out.problems, fmt.Sprintf("reference ledger %d labels over the open loop != live %d (labels_per_commit x commits)", gate.refLabels, open.labels))
	}
	out.attempted, out.failed = c.attempted.Load(), c.failed.Load()
	out.problems = append(out.problems, c.errs...)
	out.correct = len(out.problems) == 0

	if !rc.trace {
		out.metrics = endToEndMetrics(u)
		out.speed = [3]float64{u.setupSlow, mean(u.openSlow), mean(u.closedSlow)}
		return out, nil
	}
	var lad ladder
	out.metrics, lad = layerMetrics(layerInputs{
		w: w, spans: tr.snapshot(), untraced: untraced, open: open, scrape: sc,
		hooksBefore: hooksBefore, hooksAfter: hooksAfter, rt0: rt0, rt1: rt1, gate: gate,
		createMs: creates, recoveredBytes: imageBytes, recovery: recovery, projectIDs: ids,
	})
	out.ladder = &lad
	if rc.spans != "" {
		if err := tr.write(rc.spans); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return out, nil
}

// snapshotReads fetches every project's history and status.
func (r *runner) snapshotReads(url string) map[string][2][]byte {
	out := map[string][2][]byte{}
	for _, p := range r.ps {
		var pair [2][]byte
		for i, rest := range []string{"history", "status"} {
			rep, err := r.c.do(http.MethodGet, url+"/api/v1/projects/"+p.in.id+"/"+rest, nil, "read", p.in.id)
			if err == nil && rep.status == http.StatusOK {
				pair[i] = rep.body
			}
		}
		out[p.in.id] = pair
	}
	return out
}

// recover reopens the crash image and times it until /readyz answers
// 200. Every project's history and status must be byte-identical to what
// the live server answered when the image was taken. It also returns the
// image's size in bytes.
func (r *runner) recover(dir string, live map[string][2][]byte) (time.Duration, int64, []string) {
	var size int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			size += info.Size()
		}
		return err
	})
	if err != nil {
		return 0, 0, []string{"sizing crash image: " + err.Error()}
	}
	t, d, _, err := startTarget(r.c, r.w, dir, nil, nil)
	if err != nil {
		return 0, 0, []string{"reopening crash image: " + err.Error()}
	}
	defer t.stop()
	var problems []string
	got := r.snapshotReads(t.url)
	for id, want := range live {
		for i, what := range []string{"history", "status"} {
			if want[i] == nil || !bytes.Equal(got[id][i], want[i]) {
				problems = append(problems, fmt.Sprintf("%s: recovered %s differs from the live server's at copy time", id, what))
			}
		}
	}
	return d, size, problems
}

// webhookCounters sums the projects' webhook retry counters: delivery
// attempts, deliveries, and wall time spent delivering.
type webhookCounters struct {
	attempts, delivered, ns uint64
}

func (r *runner) webhookStats() webhookCounters {
	var sum webhookCounters
	for _, p := range r.ps {
		rep, err := r.c.do(http.MethodGet, r.url(p, "metrics"), nil, "scrape", p.in.id)
		var m server.MetricsResponse
		if err != nil || rep.status != http.StatusOK || json.Unmarshal(rep.body, &m) != nil {
			continue
		}
		sum.attempts += m.WebhookRetry.Attempts
		sum.delivered += m.WebhookRetry.Delivered
		sum.ns += m.WebhookRetry.PerKind["webhook"].NsTotal
	}
	return sum
}

// result is the one-line JSON a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints every metric by name, unit and sample count, then
// returns the result line's content.
func (o *outcome) report(rc runConfig) result {
	defs := endToEnd
	if rc.trace {
		defs = perLayer
	}
	w := o.w
	fmt.Printf("# %s seed %d: %d projects, n=%d, %q; open loop %.0f commits/s + %.0f reads/s, closed loop %d clients; %.0fs measured; nproc %d\n",
		w.name, rc.seed, w.projects, w.n, w.condition, w.commitRate, w.readRate, min(runtime.NumCPU(), w.projects), rc.seconds, runtime.NumCPU())
	if w.durable {
		fmt.Printf("# %s flush policy: fsync after every WAL append (submit and commit record: two serial fsyncs per commit), auto-compaction at %d bytes per log\n",
			w.name, server.DefaultCompactAt)
	}
	if s := o.speed; s[0] > 0 {
		fmt.Printf("# %s host slowdown against the reference: set-up %.3f, open loop %.3f, closed loop %.3f; times are raw / slowdown, rates raw x slowdown\n",
			w.name, s[0], s[1], s[2])
	}
	res := result{Correct: o.correct, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		m, ok := o.metrics[d.name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			m.value = 0
			o.correct = false
			o.problems = append(o.problems, "metric "+d.name+" was not measured")
		}
		note := ""
		if strings.HasSuffix(d.name, "_p50_ms") || strings.HasSuffix(d.name, "_p90_ms") {
			note = fmt.Sprintf(" (highest percentile with >=10 samples beyond: p%g)", supportedPercentile(m.n))
		}
		if m.raw != m.value {
			note += fmt.Sprintf(" (raw %.4f)", m.raw)
		}
		fmt.Printf("%-14s %-36s %14.4f %-7s n=%d%s\n", w.name, d.name, m.value, d.unit, m.n, note)
		res.Metrics[d.name] = metricValue{Value: m.value, Unit: d.unit}
	}
	if l := o.ladder; l != nil {
		fmt.Printf("# %s commit ladder (us/commit): client %.1f = http %.1f + handle %.1f; handle = decode %.1f + queue %.1f + engine %.1f + wal %.1f + unexplained %.1f (%.0f%% of client)\n",
			w.name, l.clientUs, l.overheadUs, l.handleUs, l.decodeUs, l.waitUs, l.engineUs, l.walUs, l.unexplainedUs, 100*ratio(l.unexplainedUs, l.clientUs))
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "%s: FAIL: %s\n", w.name, p)
	}
	res.Correct = o.correct
	return res
}
