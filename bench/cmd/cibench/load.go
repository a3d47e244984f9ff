package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"github.com/easeml/ci/internal/engine"
	"github.com/easeml/ci/internal/evaluator"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/server"
)

// hookTimeout bounds the wait for one job's webhook.
const hookTimeout = 20 * time.Second

// projState is one project's progress through its op sequence. One
// goroutine drives a project at a time (its open-loop sender, then one
// closed-loop client), so next and lastEnd need no lock; verdicts can
// land from webhook waiters and are guarded by mu.
type projState struct {
	in      *projectInput
	next    int       // ops sent so far
	lastEnd time.Time // when the project's previous request finished

	mu  sync.Mutex
	got map[int]verdict // live verdict per commit op index
}

func (p *projState) record(k int, v verdict) {
	p.mu.Lock()
	p.got[k] = v
	p.mu.Unlock()
}

// phaseRec collects one phase's samples.
type phaseRec struct {
	mu        sync.Mutex
	commitLat []float64 // ms from due until the verdict is in hand
	rtt       []float64 // ms from send to response (commit requests)
	readLat   []float64 // ms from due to response
	late      []float64 // ms the generator sent after due (own waits excluded)
	commits   int
	labels    int
	looks     int
	early     int
	saved     int
	reqBytes  int64
	respBytes int64
	rate      float64 // closed loop: commits/s
	start     time.Time
	end       time.Time

	// With codec set (a traced open loop), every codecEvery-th commit's
	// body is also decoded into the server's wire type and re-encoded by
	// its sender right after the commit returns: the server's JSON cost
	// on the same bytes, timed under the same load and host conditions.
	codec              bool
	sampling           sync.WaitGroup
	decodeUs, encodeUs []float64
}

const codecEvery = 4

// sampleCodec times, beside the load, the server-side JSON work of
// commit k's body when k is a sampled commit of a traced open loop.
func (r *phaseRec) sampleCodec(k int, body []byte) {
	if r == nil || !r.codec || k%codecEvery != 0 {
		return
	}
	r.sampling.Add(1)
	go func() {
		defer r.sampling.Done()
		var req server.AsyncCommitRequest
		start := time.Now()
		err := json.Unmarshal(body, &req)
		decoded := time.Now()
		_, _ = json.Marshal(&req)
		encoded := time.Now()
		if err != nil {
			return
		}
		r.mu.Lock()
		r.decodeUs = append(r.decodeUs, float64(decoded.Sub(start).Nanoseconds())/1e3)
		r.encodeUs = append(r.encodeUs, float64(encoded.Sub(decoded).Nanoseconds())/1e3)
		r.mu.Unlock()
	}()
}

func (r *phaseRec) addCommit(lat, rtt time.Duration, v verdict, reqBytes, respBytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if lat >= 0 {
		r.commitLat = append(r.commitLat, ms(lat))
	}
	r.rtt = append(r.rtt, ms(rtt))
	r.commits++
	r.labels += v.FreshLabels
	r.looks += v.Looks
	r.saved += v.LabelsSaved
	if v.EarlyExit {
		r.early++
	}
	r.reqBytes += int64(reqBytes)
	r.respBytes += int64(respBytes)
}

// merge adds o's samples and counts to r.
func (r *phaseRec) merge(o *phaseRec) {
	r.commitLat = append(r.commitLat, o.commitLat...)
	r.readLat = append(r.readLat, o.readLat...)
	r.rtt = append(r.rtt, o.rtt...)
	r.late = append(r.late, o.late...)
	r.commits += o.commits
	r.labels += o.labels
	r.looks += o.looks
	r.early += o.early
	r.saved += o.saved
	r.reqBytes += o.reqBytes
	r.respBytes += o.respBytes
}

func (r *phaseRec) addRead(lat time.Duration) {
	r.mu.Lock()
	r.readLat = append(r.readLat, ms(lat))
	r.mu.Unlock()
}

func (r *phaseRec) addLate(d time.Duration) {
	r.mu.Lock()
	r.late = append(r.late, ms(max(d, 0)))
	r.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// runner drives one workload against one target.
type runner struct {
	w     workload
	c     *client
	t     *target
	hooks *hookReceiver
	ps    []*projState
}

func (r *runner) url(p *projState, rest string) string {
	return r.t.url + "/api/v1/projects/" + p.in.id + "/" + rest
}

// rotations sends every rotation due before the project's next commit.
func (r *runner) rotations(p *projState) {
	for p.in.opAt(p.next).rotate {
		o := p.in.opAt(p.next)
		p.next++
		rep, _ := r.c.call(http.MethodPost, r.url(p, "testset"), o.body, http.StatusOK, "rotate", p.in.id)
		p.lastEnd = rep.end
	}
}

// untimed marks a commit sent outside the open loop: its latency is not
// a sample.
const untimed = time.Duration(-1)

// commitSync sends the project's next commit through the synchronous
// endpoint and records its verdict. queued is how long the commit waited
// behind the project's previous request after it fell due (or untimed);
// its latency is that wait plus the round trip.
func (r *runner) commitSync(p *projState, rec *phaseRec, queued time.Duration) bool {
	k := p.next
	o := p.in.opAt(k)
	p.next++
	rep, ok := r.c.call(http.MethodPost, r.url(p, "commit"), o.body, http.StatusOK, "commit", p.in.id)
	p.lastEnd = rep.end
	if !ok {
		return false
	}
	var v verdict
	if err := json.Unmarshal(rep.body, &v); err != nil {
		r.c.fail(fmt.Sprintf("%s commit %d: %v", p.in.id, k, err))
		return false
	}
	p.record(k, v)
	if rec != nil {
		rec.addCommit(latency(queued, rep.start, rep.end), rep.end.Sub(rep.start), v, len(o.body), len(rep.body))
	}
	rec.sampleCodec(k, o.body)
	return true
}

// latency is an open-loop sample: the wait behind the project's previous
// request plus send-to-verdict time. A server stall therefore counts
// against every commit that fell due during it, while the generator's
// own timer lateness (reported as bench.late_ms_p90) does not.
func latency(queued time.Duration, sent, verdict time.Time) time.Duration {
	if queued == untimed {
		return untimed
	}
	return queued + verdict.Sub(sent)
}

// submitAsync sends the project's next commit through the asynchronous
// endpoint. It returns the job (nil if the submit failed) and a wait
// func that follows the job to its end and reports when its verdict
// arrived.
func (r *runner) submitAsync(p *projState, rec *phaseRec, queued time.Duration, poll bool) (*asyncJob, func() (time.Time, bool)) {
	k := p.next
	o := p.in.opAt(k)
	p.next++
	rep, ok := r.c.call(http.MethodPost, r.url(p, "commit/async"), o.body, http.StatusAccepted, "submit", p.in.id)
	p.lastEnd = rep.end
	var acc struct {
		JobID string `json:"job_id"`
	}
	if ok {
		if err := json.Unmarshal(rep.body, &acc); err != nil || acc.JobID == "" {
			r.c.fail(fmt.Sprintf("%s submit %d: bad 202 body %.200s", p.in.id, k, rep.body))
			ok = false
		}
	}
	if !ok {
		return nil, func() (time.Time, bool) { return time.Time{}, false }
	}
	rec.sampleCodec(k, o.body)
	j := r.hooks.job(p.in.id, acc.JobID)
	return j, func() (time.Time, bool) {
		return r.awaitJob(p, k, acc.JobID, j, rec, queued, rep, poll)
	}
}

// drain waits until every listed job's webhook has arrived: a rotation
// must not overtake commits still queued on the old testset.
func (r *runner) drain(p *projState, jobs []*asyncJob) {
	timeout := time.After(hookTimeout)
	for _, j := range jobs {
		select {
		case <-j.done:
		case <-timeout:
			r.c.fail(fmt.Sprintf("%s: webhooks still missing after %s", p.in.id, hookTimeout))
			return
		}
	}
}

// awaitJob follows one async job to its end as a CI client would: poll
// every pollEvery until the job is done (open loop), then take the
// webhook. Every accepted job must get exactly one webhook whose body
// equals the final polled status.
func (r *runner) awaitJob(p *projState, k int, id string, j *asyncJob, rec *phaseRec, queued time.Duration, sub reply, poll bool) (time.Time, bool) {
	var final []byte
	pollDue := sub.end.Add(pollEvery)
	for poll {
		sleepUntil(pollDue)
		rep, ok := r.c.call(http.MethodGet, r.url(p, "commit/jobs/"+id), nil, http.StatusOK, "poll", p.in.id)
		if !ok {
			return time.Time{}, false
		}
		if rec != nil {
			rec.addRead(rep.end.Sub(rep.start))
		}
		var st struct {
			State string `json:"state"`
		}
		if err := json.Unmarshal(rep.body, &st); err != nil {
			r.c.fail(fmt.Sprintf("%s poll %s: %v", p.in.id, id, err))
			return time.Time{}, false
		}
		if st.State == "done" || st.State == "failed" {
			final = rep.body
			break
		}
		pollDue = pollDue.Add(pollEvery)
	}
	select {
	case <-j.done:
	case <-time.After(hookTimeout):
		r.c.fail(fmt.Sprintf("%s job %s: no webhook within %s", p.in.id, id, hookTimeout))
		return time.Time{}, false
	}
	if final == nil {
		rep, ok := r.c.call(http.MethodGet, r.url(p, "commit/jobs/"+id), nil, http.StatusOK, "poll", p.in.id)
		if !ok {
			return time.Time{}, false
		}
		final = rep.body
	}
	if !bytes.Equal(bytes.TrimSpace(final), bytes.TrimSpace(j.body)) {
		r.c.fail(fmt.Sprintf("%s job %s: webhook body %.200s != polled status %.200s", p.in.id, id, j.body, final))
		return time.Time{}, false
	}
	var st struct {
		State  string   `json:"state"`
		Result *verdict `json:"result"`
	}
	if err := json.Unmarshal(j.body, &st); err != nil || st.State != "done" || st.Result == nil {
		r.c.fail(fmt.Sprintf("%s job %s: not done: %.200s", p.in.id, id, j.body))
		return time.Time{}, false
	}
	p.record(k, *st.Result)
	if rec != nil {
		rec.addCommit(latency(queued, sub.start, j.arrived), sub.end.Sub(sub.start), *st.Result, len(p.in.opAt(k).body), len(sub.body))
	}
	return j.arrived, true
}

// warmup sends each project's first testset of commits back to back,
// untimed.
func (r *runner) warmup() {
	var wg sync.WaitGroup
	for _, p := range r.ps {
		wg.Add(1)
		go func(p *projState) {
			defer wg.Done()
			for i := 0; i < r.w.steps; i++ {
				r.rotations(p)
				if r.w.async {
					_, wait := r.submitAsync(p, nil, untimed, false)
					wait()
				} else {
					r.commitSync(p, nil, untimed)
				}
			}
		}(p)
	}
	wg.Wait()
}

// openLoop runs the scheduled commits and reads for dur. Each project's
// commits come from one sender in schedule order, so the server sees
// them in a fixed order; a commit due while the project's previous
// request is still out is sent as soon as it returns, and its latency
// still counts from when it was due. Reads are independent users, each
// sent at its slot.
func (r *runner) openLoop(dur time.Duration, s schedule, traced bool) *phaseRec {
	rec := &phaseRec{start: time.Now().Add(5 * time.Millisecond), codec: traced}
	rec.end = rec.start.Add(dur)
	var senders, jobs sync.WaitGroup
	for i, p := range r.ps {
		senders.Add(1)
		go func(offsets []time.Duration, p *projState) {
			defer senders.Done()
			var outstanding []*asyncJob
			for _, off := range offsets {
				due := rec.start.Add(off)
				if p.in.opAt(p.next).rotate {
					r.drain(p, outstanding)
					outstanding = outstanding[:0]
				}
				r.rotations(p)
				sleepUntil(due)
				ready := laterOf(due, p.lastEnd)
				rec.addLate(time.Since(ready))
				if !r.w.async {
					r.commitSync(p, rec, ready.Sub(due))
					continue
				}
				j, wait := r.submitAsync(p, rec, ready.Sub(due), true)
				if j != nil {
					outstanding = append(outstanding, j)
				}
				jobs.Add(1)
				go func() {
					defer jobs.Done()
					wait()
				}()
			}
		}(s.commits[i], p)
	}
	for _, rd := range s.reads {
		due, path := rec.start.Add(rd.at), rd.path
		sleepUntil(due)
		rec.addLate(time.Since(due))
		jobs.Add(1)
		go func(path string) {
			defer jobs.Done()
			rep, ok := r.c.call(http.MethodGet, r.t.url+path, nil, http.StatusOK, "read", "")
			if ok {
				rec.addRead(rep.end.Sub(rep.start))
			}
		}(path)
	}
	senders.Wait()
	jobs.Wait()
	rec.sampling.Wait()
	return rec
}

func laterOf(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// closedLoop runs nproc clients for dur, each sending its projects'
// commits back to back (round robin over its projects). rec.rate is the
// commits completed per second, from the start to the last completion.
func (r *runner) closedLoop(dur time.Duration) *phaseRec {
	rec := &phaseRec{start: time.Now()}
	rec.end = rec.start.Add(dur)
	clients := min(runtime.NumCPU(), len(r.ps))
	var wg sync.WaitGroup
	var mu sync.Mutex
	var last time.Time
	done := 0
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var mine []*projState
			for i := c; i < len(r.ps); i += clients {
				mine = append(mine, r.ps[i])
			}
			for i := 0; time.Now().Before(rec.end); i++ {
				p := mine[i%len(mine)]
				r.rotations(p)
				var at time.Time
				var ok bool
				if r.w.async {
					_, wait := r.submitAsync(p, rec, untimed, false)
					at, ok = wait()
				} else {
					ok = r.commitSync(p, rec, untimed)
					at = p.lastEnd
				}
				if ok {
					mu.Lock()
					done++
					if at.After(last) {
						last = at
					}
					mu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	rec.rate = ratio(float64(done), last.Sub(rec.start).Seconds())
	return rec
}

// gateResult is the correctness gate's verdict on one run.
type gateResult struct {
	problems []string
	// refLabels is the reference engine's fresh-label total over the
	// open-loop commits, which must equal the live total.
	refLabels int
	// commitNs / kernelNs time the replay ladder's Engine.Commit and
	// packed kernel over every replayed commit (kernel only when timed).
	commitNs, kernelNs int64
	commits            int
}

// gate replays every op each project sent through a fresh reference
// engine (engine.New + Engine.Commit + RotateTestset, the server's own
// evaluation code without HTTP, queue or WAL) and checks that the live
// (step, signal, pass, fresh_labels, looks, early_exit, labels_saved)
// sequence equals the reference. open gives each project's op range of
// the open-loop phase. With kernel set it also times the packed kernel
// on each commit's exact columns.
func (r *runner) gate(open [][2]int, kernel bool) gateResult {
	cfg, err := r.w.config()
	if err != nil {
		return gateResult{problems: []string{err.Error()}}
	}
	results := make([]gateResult, len(r.ps))
	var wg sync.WaitGroup
	for i, p := range r.ps {
		wg.Add(1)
		go func(i int, p *projState) {
			defer wg.Done()
			g := &results[i]
			in := p.in
			eng, err := engine.New(cfg, dataset(in.labels[0]), labeling.NewTruthOracle(in.labels[0]),
				engine.Options{InitialModel: model.NewFixedPredictions("deployed-h0", in.h0[0])})
			if err != nil {
				g.problems = append(g.problems, err.Error())
				return
			}
			active, labels := in.h0[0], in.labels[0]
			var kb kernelBench
			for k := 0; k < p.next; k++ {
				o := in.opAt(k)
				if o.rotate {
					labels, active = in.labels[o.gen], toInts(o.preds)
					if err := rotate(eng, labels, active); err != nil {
						g.problems = append(g.problems, fmt.Sprintf("%s op %d: reference rotation: %v", in.id, k, err))
						return
					}
					continue
				}
				preds := toInts(o.preds)
				if kernel {
					g.kernelNs += kb.time(preds, active, labels, eng)
				}
				start := time.Now()
				res, err := eng.Commit(model.NewFixedPredictions(o.model, preds), "bench", "candidate")
				g.commitNs += int64(time.Since(start))
				g.commits++
				if err != nil {
					g.problems = append(g.problems, fmt.Sprintf("%s op %d: reference commit: %v", in.id, k, err))
					return
				}
				want := verdictOf(res)
				if k >= open[i][0] && k < open[i][1] {
					g.refLabels += want.FreshLabels
				}
				if res.Pass {
					active = preds
				}
				p.mu.Lock()
				got, ok := p.got[k]
				p.mu.Unlock()
				switch {
				case !ok:
					g.problems = append(g.problems, fmt.Sprintf("%s op %d: no live verdict", in.id, k))
				case !got.equal(want):
					g.problems = append(g.problems, fmt.Sprintf("%s op %d: live %v != reference %v", in.id, k, got, want))
				}
			}
			if total := eng.LabelCost().Total(); total != sumFresh(eng) {
				g.problems = append(g.problems, fmt.Sprintf("%s: reference ledger %d != per-commit sum %d", in.id, total, sumFresh(eng)))
			}
		}(i, p)
	}
	wg.Wait()
	var out gateResult
	for _, g := range results {
		out.problems = append(out.problems, g.problems...)
		out.refLabels += g.refLabels
		out.commitNs += g.commitNs
		out.kernelNs += g.kernelNs
		out.commits += g.commits
	}
	return out
}

func sumFresh(eng *engine.Engine) int {
	total := 0
	for _, res := range eng.History() {
		total += res.FreshLabels
	}
	return total
}

// kernelBench times evaluator.CommitBitmapsBytes, the engine's fused
// pass, on the columns the engine holds when a commit arrives: the
// candidate's predictions, the active model narrowed to bytes and the
// revealed labels (255 where unrevealed).
type kernelBench struct {
	base8, labels8 []uint8
	diff, match    evaluator.Bitmap
}

// kernelReps repeats each kernel call so one timing covers more than the
// clock's resolution.
const kernelReps = 4

func (kb *kernelBench) time(pred, active, labels []int, eng *engine.Engine) int64 {
	n := len(pred)
	if cap(kb.base8) < n {
		kb.base8, kb.labels8 = make([]uint8, n), make([]uint8, n)
	}
	kb.base8, kb.labels8 = kb.base8[:n], kb.labels8[:n]
	ts := eng.Testsets().Current()
	for i := range pred {
		kb.base8[i] = uint8(active[i])
		kb.labels8[i] = 255
		if ts.Revealed(i) {
			kb.labels8[i] = uint8(labels[i])
		}
	}
	start := time.Now()
	for i := 0; i < kernelReps; i++ {
		evaluator.CommitBitmapsBytes(pred, kb.base8, kb.labels8, &kb.diff, &kb.match)
	}
	return int64(time.Since(start)) / kernelReps
}
