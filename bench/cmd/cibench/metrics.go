package main

import (
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. The names are the benchmark's
// contract: BENCHMARK.json lists the same ones, and later changes cite
// them.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the service sees; every workload
// reports all of them, and none is ever zero.
var endToEnd = []metricDef{
	{"commit_p50_ms", "ms", "lower"},
	{"commit_p90_ms", "ms", "lower"},
	{"commits_per_s", "1/s", "higher"},
	{"labels_per_commit", "labels", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p90_ms", "ms", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
}

// perLayer are the traced run's metrics, one layer each. Time-valued
// metrics are chosen so that none reads zero on any workload; layers a
// workload does not exercise (the WAL on in-memory runs, webhooks on
// sync runs) report counts and shares, which read 0 there.
var perLayer = []metricDef{
	{"http.overhead_us_per_req", "us", "lower"},
	{"server.handle_us_p50", "us", "lower"},
	{"server.self_us_per_commit", "us", "lower"},
	{"server.unexplained_us_per_commit", "us", "lower"},
	{"server.decode_us_per_commit", "us", "lower"},
	{"server.req_kb_per_commit", "KiB", "lower"},
	{"server.resp_bytes_per_commit", "bytes", "lower"},
	{"queue.pending_mean", "count", "lower"},
	{"queue.wait_share", "ratio", "lower"},
	{"engine.commit_us_per_commit", "us", "lower"},
	{"engine.replay_us_per_commit", "us", "lower"},
	{"engine.looks_per_commit", "count", "lower"},
	{"engine.early_exit_share", "ratio", "higher"},
	{"engine.labels_saved_per_commit", "labels", "higher"},
	{"evaluator.kernel_us_per_commit", "us", "lower"},
	{"evaluator.bytes_scanned_per_commit", "bytes", "lower"},
	{"labeling.batches_per_commit", "count", "lower"},
	{"labeling.labels_per_batch", "labels", "higher"},
	{"labeling.busy_us_per_commit", "us", "lower"},
	{"wal.fsyncs_per_commit", "count", "lower"},
	{"wal.fsync_busy_share", "ratio", "lower"},
	{"wal.bytes_per_commit", "bytes", "lower"},
	{"wal.write_amp", "ratio", "lower"},
	{"wal.compactions", "count", "lower"},
	{"wal.compaction_busy_share", "ratio", "lower"},
	{"wal.recovery_mb_per_s", "MiB/s", "higher"},
	{"registry.create_ms_per_project", "ms", "lower"},
	{"planner.hit_rate", "ratio", "higher"},
	{"planner.cold_plans", "count", "lower"},
	{"bounds.exact_evals", "count", "lower"},
	{"notify.attempts_per_webhook", "count", "lower"},
	{"notify.deliver_share_of_verdict", "ratio", "lower"},
	{"runtime.alloc_kb_per_commit", "KiB", "lower"},
	{"runtime.gc_cpu_share", "ratio", "lower"},
	{"bench.late_ms_p90", "ms", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

// measured is one metric value with the number of samples behind it, and
// the value before host-speed normalisation (the same for metrics that
// are not normalised).
type measured struct {
	value float64
	n     int
	raw   float64
}

// quantile is the q-quantile of xs by linear interpolation between
// closest ranks (xs need not be sorted; it is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// windowMin is the fewest samples a latency window holds: ten beyond its
// 90th percentile.
const windowMin = 100

// windowed is the median, over windows of consecutive stretches that
// hold at least windowMin samples each (a leftover joins the last
// window), of each window's q-quantile. A stall of the host or its disk
// confined to a stretch or two moves it little, where it would move the
// q-quantile of all samples pooled; a slowdown the program causes again
// and again moves every window.
func windowed(stretches [][]float64, q float64) float64 {
	var windows [][]float64
	var cur []float64
	for _, s := range stretches {
		cur = append(cur, s...)
		if len(cur) >= windowMin {
			windows = append(windows, cur)
			cur = nil
		}
	}
	switch {
	case len(windows) == 0:
		windows = [][]float64{cur}
	case len(cur) > 0:
		windows[len(windows)-1] = append(windows[len(windows)-1], cur...)
	}
	qs := make([]float64, len(windows))
	for i, win := range windows {
		qs[i] = quantile(win, q)
	}
	return quantile(qs, 0.5)
}

// scaled is xs times f, in a new slice.
func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

// supportedPercentile is the highest of p50, p90, p99 and p99.9 that has
// at least ten of n samples beyond it (0 when even p50 has fewer).
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{50, 90, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// quartiles are the three cut points of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), the spread the
// benchmark's acceptance rule is stated in. len(xs) must be >= 2.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// untracedRun is what an untraced run measured. Both loaded phases ran
// as stretches, each with the host slowdown read around it.
type untracedRun struct {
	open      *phaseRec   // the whole open loop
	openParts []*phaseRec // its stretches
	openSlow  []float64

	rates         []float64 // each closed-loop stretch's commits/s
	closedSlow    []float64
	closedCommits int

	setups    []float64 // seconds per boot
	setupSlow float64
	peak      heapPeak
}

// endToEndMetrics turns an untraced run into the end-to-end metrics.
// Times are divided, and rates multiplied, by how much slower than the
// reference host the machine ran in the stretch they come from. Latency
// percentiles are windowed; the closed-loop rate is the median
// stretch's.
func endToEndMetrics(u untracedRun) map[string]measured {
	var commitLat, readLat, rawCommitLat, rawReadLat [][]float64
	for k, part := range u.openParts {
		commitLat = append(commitLat, scaled(part.commitLat, 1/u.openSlow[k]))
		readLat = append(readLat, scaled(part.readLat, 1/u.openSlow[k]))
		rawCommitLat = append(rawCommitLat, part.commitLat)
		rawReadLat = append(rawReadLat, part.readLat)
	}
	var rates []float64
	for k, x := range u.rates {
		rates = append(rates, x*u.closedSlow[k])
	}
	m := map[string]measured{}
	set := func(name string, v, raw float64, n int) { m[name] = measured{v, n, raw} }
	open := u.open
	set("commit_p50_ms", windowed(commitLat, 0.5), windowed(rawCommitLat, 0.5), len(open.commitLat))
	set("commit_p90_ms", windowed(commitLat, 0.9), windowed(rawCommitLat, 0.9), len(open.commitLat))
	set("commits_per_s", quantile(rates, 0.5), quantile(u.rates, 0.5), u.closedCommits)
	lpc := ratio(float64(open.labels), float64(open.commits))
	set("labels_per_commit", lpc, lpc, open.commits)
	set("read_p50_ms", windowed(readLat, 0.5), windowed(rawReadLat, 0.5), len(open.readLat))
	set("read_p90_ms", windowed(readLat, 0.9), windowed(rawReadLat, 0.9), len(open.readLat))
	setup := quantile(u.setups, 0.5)
	set("setup_s", setup/u.setupSlow, setup, len(u.setups))
	heapMB := float64(u.peak.bytes) / (1 << 20)
	set("peak_heap_mb", heapMB, heapMB, u.peak.samples)
	return m
}

// layerInputs is everything a traced run measured.
type layerInputs struct {
	w           workload
	spans       []span
	untraced    *phaseRec // open loop before tracing was switched on
	open        *phaseRec // the traced open loop
	scrape      *scraper
	hooksBefore webhookCounters
	hooksAfter  webhookCounters
	rt0, rt1    runtimeCounters
	gate        gateResult
	createMs    []float64
	// recoveredBytes is the size of the crash image recovery reopened.
	recoveredBytes int64
	recovery       time.Duration
	projectIDs     map[string]bool
}

// layerMetrics turns a traced open loop into the per-layer metrics. The
// commit ladder is client round trip = http overhead + handle, and
// handle = decode + queue wait + engine + WAL + unexplained, so the
// layer means add up to the client's mean by construction and the
// unexplained remainder says how much the layers do not account for.
func layerMetrics(li layerInputs) (map[string]measured, ladder) {
	m := map[string]measured{}
	set := func(name string, v float64, n int) { m[name] = measured{v, n, v} }
	open := li.open
	commits := open.commits
	fc := float64(commits)
	window := open.end.Sub(open.start).Seconds()

	clients := map[uint64]span{}
	for _, s := range li.spans {
		if s.ID != 0 {
			clients[s.ID] = s
		}
	}
	var handles []float64
	var overheadSum, handleSum float64
	var walBytes, fsyncs, compactions, batches, labels int64
	var walBusy, fsyncBusy, compactBusy, labelBusy time.Duration
	for _, s := range li.spans {
		switch s.Name {
		case "server.handle":
			c, ok := clients[s.Parent]
			if !ok || (c.Name != "client.commit" && c.Name != "client.submit") {
				continue
			}
			h := float64(s.dur()) / 1e3
			handles = append(handles, h)
			handleSum += h
			overheadSum += float64(c.dur())/1e3 - h
		case "wal.write":
			walBytes += s.N
			walBusy += s.dur()
		case "wal.fsync":
			fsyncs++
			fsyncBusy += s.dur()
			walBusy += s.dur()
		case "wal.compact":
			compactions++
			compactBusy += s.dur()
		case "labeling.batch":
			if li.projectIDs[s.Project] {
				batches++
				labels += s.N
				labelBusy += s.dur()
			}
		}
	}
	nh := len(handles)
	handleMean := ratio(handleSum, float64(nh))
	set("http.overhead_us_per_req", ratio(overheadSum, float64(nh)), nh)
	set("server.handle_us_p50", quantile(handles, 0.5), nh)

	var evals, evalNs uint64
	for i, p := range li.scrape.last.Projects {
		if !li.projectIDs[p.ID] {
			continue
		}
		evals += p.CommitsEvaluated
		evalNs += p.CommitEvalNsTotal
		if i < len(li.scrape.first.Projects) && li.scrape.first.Projects[i].ID == p.ID {
			evals -= li.scrape.first.Projects[i].CommitsEvaluated
			evalNs -= li.scrape.first.Projects[i].CommitEvalNsTotal
		}
	}
	engineUs := ratio(float64(evalNs)/1e3, float64(evals))
	set("engine.commit_us_per_commit", engineUs, int(evals))
	set("engine.replay_us_per_commit", ratio(float64(li.gate.commitNs)/1e3, float64(li.gate.commits)), li.gate.commits)
	set("engine.looks_per_commit", ratio(float64(open.looks), fc), commits)
	set("engine.early_exit_share", ratio(float64(open.early), fc), commits)
	set("engine.labels_saved_per_commit", ratio(float64(open.saved), fc), commits)

	decodeUs := mean(open.decodeUs)
	// The WAL rung is the log's own disk time plus, on a durable run, the
	// submit record's JSON encode, which happens before the write.
	walUs := ratio(float64(walBusy)/1e3, fc)
	if li.w.durable {
		walUs += mean(open.encodeUs)
	}
	pendingMean := mean(li.scrape.pending)
	// Little's law: mean backlog over completion rate is the mean wait.
	waitUs := ratio(pendingMean, fc/window) * 1e6
	set("queue.pending_mean", pendingMean, len(li.scrape.pending))
	set("queue.wait_share", ratio(waitUs, handleMean), len(li.scrape.pending))

	// An async submit's handle holds neither the evaluation nor the
	// queue wait: both happen after the 202.
	inHandleEngine, inHandleWait := engineUs, waitUs
	if li.w.async {
		inHandleEngine, inHandleWait = 0, 0
	}
	set("server.self_us_per_commit", handleMean-inHandleEngine-walUs, nh)
	unexplained := handleMean - decodeUs - inHandleWait - inHandleEngine - walUs
	set("server.unexplained_us_per_commit", unexplained, nh)
	set("server.decode_us_per_commit", decodeUs, len(open.decodeUs))
	set("server.req_kb_per_commit", ratio(float64(open.reqBytes)/1024, fc), commits)
	set("server.resp_bytes_per_commit", ratio(float64(open.respBytes), fc), commits)

	set("evaluator.kernel_us_per_commit", ratio(float64(li.gate.kernelNs)/1e3, float64(li.gate.commits)), li.gate.commits)
	// Computed, not measured: the fused pass reads the 8-byte candidate
	// predictions plus the 1-byte baseline and label columns, and writes
	// two bitmaps.
	set("evaluator.bytes_scanned_per_commit", float64(10*li.w.n+li.w.n/4), li.gate.commits)

	set("labeling.batches_per_commit", ratio(float64(batches), fc), int(batches))
	set("labeling.labels_per_batch", ratio(float64(labels), float64(batches)), int(batches))
	set("labeling.busy_us_per_commit", ratio(float64(labelBusy)/1e3, fc), int(batches))

	set("wal.fsyncs_per_commit", ratio(float64(fsyncs), fc), int(fsyncs))
	set("wal.fsync_busy_share", ratio(fsyncBusy.Seconds(), window), int(fsyncs))
	set("wal.bytes_per_commit", ratio(float64(walBytes), fc), commits)
	set("wal.write_amp", ratio(float64(walBytes), float64(open.reqBytes)), commits)
	set("wal.compactions", float64(compactions), int(compactions))
	set("wal.compaction_busy_share", ratio(compactBusy.Seconds(), window), int(compactions))
	set("wal.recovery_mb_per_s", ratio(float64(li.recoveredBytes)/(1<<20), li.recovery.Seconds()), int(li.recoveredBytes))

	set("registry.create_ms_per_project", mean(li.createMs), len(li.createMs))

	first, last := li.scrape.first, li.scrape.last
	hits := float64(last.PlanCache.PlanHits - first.PlanCache.PlanHits)
	misses := float64(last.PlanCache.PlanMisses - first.PlanCache.PlanMisses)
	set("planner.hit_rate", ratio(hits, hits+misses), int(hits+misses))
	set("planner.cold_plans", misses, int(hits+misses))
	set("bounds.exact_evals", float64(last.ExactEvals-first.ExactEvals), int(hits+misses))

	hb, ha := li.hooksBefore, li.hooksAfter
	attempts := float64(ha.attempts - hb.attempts)
	delivered := float64(ha.delivered - hb.delivered)
	deliverUs := ratio(float64(ha.ns-hb.ns)/1e3, attempts)
	set("notify.attempts_per_webhook", ratio(attempts, delivered), int(delivered))
	verdictUs := mean(open.commitLat) * 1e3
	set("notify.deliver_share_of_verdict", ratio(deliverUs, verdictUs), int(delivered))

	set("runtime.alloc_kb_per_commit", ratio(float64(li.rt1.allocBytes-li.rt0.allocBytes)/1024, fc), commits)
	set("runtime.gc_cpu_share", ratio(li.rt1.gcCPU-li.rt0.gcCPU, li.rt1.totalCPU-li.rt0.totalCPU), commits)

	set("bench.late_ms_p90", quantile(open.late, 0.9), len(open.late))
	base := quantile(li.untraced.commitLat, 0.5)
	set("bench.trace_overhead_pct", 100*(quantile(open.commitLat, 0.5)-base)/base, len(open.commitLat))

	return m, ladder{
		clientUs: mean(open.rtt) * 1e3, overheadUs: m["http.overhead_us_per_req"].value, handleUs: handleMean,
		decodeUs: decodeUs, waitUs: inHandleWait, engineUs: inHandleEngine, walUs: walUs, unexplainedUs: unexplained,
	}
}

// ladder is the commit path's rung-by-rung breakdown, in microseconds
// per commit.
type ladder struct {
	clientUs, overheadUs, handleUs, decodeUs, waitUs, engineUs, walUs, unexplainedUs float64
}
