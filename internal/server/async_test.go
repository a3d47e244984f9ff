package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/easeml/ci/internal/bounds"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/script"
)

// jobsPath is the poll/cancel row's alias spelling.
const jobsPath = apiPrefix + jobsRest

// newServerWith builds an in-memory tenant over a synthetic testset of
// the given size and step budget through openTestTenant, with explicit
// options; manual selects a pool the test steps with srv.pool.RunOne.
func newServerWith(t *testing.T, adaptKind script.AdaptivityKind, steps, size int, opts Options, manual bool) (*Server, []int) {
	t.Helper()
	g, labels := durableGenesis(t, steps, size)
	g.Adaptivity = script.Adaptivity{Kind: adaptKind}
	if adaptKind == script.AdaptivityNone {
		g.Adaptivity.Email = "qa@x.y"
	}
	srv, err := openTestTenant(g, "", opts, manual)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closeTestTenant(srv) })
	return srv, labels
}

func decodeJobStatus(t *testing.T, rec *httptest.ResponseRecorder) JobStatusResponse {
	t.Helper()
	var st JobStatusResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad job status JSON: %v: %s", err, rec.Body.String())
	}
	return st
}

// waitForWebhooks waits until the outbox holds at least n webhook
// deliveries (they arrive asynchronously from the delivery goroutines)
// and returns them.
func waitForWebhooks(t *testing.T, outbox *notify.Outbox, n int) []notify.Notification {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		hooks := outbox.ByKind(notify.KindWebhook)
		if len(hooks) >= n || time.Now().After(deadline) {
			return hooks
		}
		time.Sleep(time.Millisecond)
	}
}

// pollUntilTerminal polls one job until it reaches a terminal state.
func pollUntilTerminal(t *testing.T, srv *Server, jobID string) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rec, _ := doJSON(t, srv, http.MethodGet, jobsPath+jobID, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll %s status = %d: %s", jobID, rec.Code, rec.Body.String())
		}
		st := decodeJobStatus(t, rec)
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", jobID)
	return JobStatusResponse{}
}

// TestAsyncSubmitPollWebhookDeterministic walks the whole async flow
// under a manual pool, observing every intermediate state the
// production path goes through: accepted-queued, polled-queued, executed,
// polled-done, webhook delivered.
func TestAsyncSubmitPollWebhookDeterministic(t *testing.T) {
	outbox := notify.NewOutbox()
	srv, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{
		Webhooks: outbox,
	}, true)
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
		CommitRequest: CommitRequest{
			Model: "cand", Author: "dev", Message: "async",
			Predictions: goodPredictions(t, labels, 0.9, 2),
		},
		Webhook: "http://subscriber.local/hook",
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit status = %d: %s", rec.Code, rec.Body.String())
	}
	var acc JobAcceptedResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if acc.JobID == "" || acc.State != "queued" || acc.Poll != jobsPath+acc.JobID {
		t.Errorf("accepted = %+v", acc)
	}

	// Nothing runs until the harness says so.
	rec, _ = doJSON(t, srv, http.MethodGet, acc.Poll, nil)
	if st := decodeJobStatus(t, rec); st.State != "queued" || st.Result != nil {
		t.Errorf("pre-run poll = %+v", st)
	}
	if len(outbox.Messages()) != 0 {
		t.Error("webhook fired before the job ran")
	}

	if !srv.pool.RunOne() {
		t.Fatal("RunOne found no queued job")
	}
	if srv.pool.RunOne() {
		t.Error("backlog should be empty after one run")
	}

	rec, _ = doJSON(t, srv, http.MethodGet, acc.Poll, nil)
	st := decodeJobStatus(t, rec)
	if st.State != "done" || st.Result == nil || st.Error != "" {
		t.Fatalf("post-run poll = %+v", st)
	}
	if !st.Result.Signal || st.Result.Step != 1 || st.Result.Truth != "True" {
		t.Errorf("job result = %+v", st.Result)
	}

	// Exactly one webhook, carrying the same JobStatusResponse the poll
	// endpoint serves. Delivery happens off the worker goroutine, so wait
	// for it.
	hooks := waitForWebhooks(t, outbox, 1)
	if len(hooks) != 1 {
		t.Fatalf("webhook deliveries = %d, want 1", len(hooks))
	}
	if hooks[0].To != "http://subscriber.local/hook" {
		t.Errorf("webhook target = %q", hooks[0].To)
	}
	var delivered JobStatusResponse
	if err := json.Unmarshal([]byte(hooks[0].Body), &delivered); err != nil {
		t.Fatalf("webhook body is not a JobStatusResponse: %v: %s", err, hooks[0].Body)
	}
	if !bytes.Equal(rec.Body.Bytes()[:len(rec.Body.Bytes())-1], []byte(hooks[0].Body)) &&
		fmt.Sprintf("%+v", delivered) != fmt.Sprintf("%+v", st) {
		t.Errorf("webhook payload %+v != polled status %+v", delivered, st)
	}
}

func TestAsyncValidation(t *testing.T) {
	srv, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{}, true)
	rec, _ := doJSON(t, srv, http.MethodGet, "/api/v1/commit/async", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET async status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/commit/async", bytes.NewBufferString("{nope"))
	rec2 := httptest.NewRecorder()
	serveTenant(srv, rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("malformed async JSON status = %d", rec2.Code)
	}
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
		CommitRequest: CommitRequest{Predictions: goodPredictions(t, labels, 0.9, 2)},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing model status = %d", rec.Code)
	}
	for _, hook := range []string{"not-a-url", "ftp://x/y", "http://"} {
		rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
			CommitRequest: CommitRequest{Model: "m", Predictions: goodPredictions(t, labels, 0.9, 2)},
			Webhook:       hook,
		})
		if rec.Code != http.StatusBadRequest {
			t.Errorf("webhook %q status = %d, want 400", hook, rec.Code)
		}
	}
	// A bad predictions length is accepted at submit time and fails at
	// execution (the testset may rotate between the two).
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
		CommitRequest: CommitRequest{Model: "short", Predictions: []int{1, 2, 3}},
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("short-predictions submit status = %d", rec.Code)
	}
	var acc JobAcceptedResponse
	json.Unmarshal(rec.Body.Bytes(), &acc)
	srv.pool.RunOne()
	rec, _ = doJSON(t, srv, http.MethodGet, jobsPath+acc.JobID, nil)
	if st := decodeJobStatus(t, rec); st.State != "failed" || st.Error == "" {
		t.Errorf("short-predictions job = %+v", st)
	}

	// Job endpoint validation.
	rec, _ = doJSON(t, srv, http.MethodGet, jobsPath+"job-999", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown job status = %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, http.MethodGet, jobsPath, nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("empty job ID status = %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, http.MethodPut, jobsPath+"job-1", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("PUT job status = %d", rec.Code)
	}
}

func TestAsyncCancel(t *testing.T) {
	srv, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{}, true)
	preds := goodPredictions(t, labels, 0.9, 2)
	submit := func(name string) string {
		rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
			CommitRequest: CommitRequest{Model: name, Predictions: preds},
		})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit status = %d", rec.Code)
		}
		var acc JobAcceptedResponse
		json.Unmarshal(rec.Body.Bytes(), &acc)
		return acc.JobID
	}
	keep := submit("keep")
	drop := submit("drop")

	rec, _ := doJSON(t, srv, http.MethodDelete, jobsPath+drop, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel status = %d: %s", rec.Code, rec.Body.String())
	}
	if st := decodeJobStatus(t, rec); st.State != "failed" || st.Error == "" {
		t.Errorf("canceled job = %+v", st)
	}
	// Cancel is not idempotent: the job is already terminal.
	rec, _ = doJSON(t, srv, http.MethodDelete, jobsPath+drop, nil)
	if rec.Code != http.StatusConflict {
		t.Errorf("double cancel status = %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, http.MethodDelete, jobsPath+"job-77", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("unknown cancel status = %d", rec.Code)
	}

	// The canceled commit never reached the engine; the kept one does.
	for srv.pool.RunOne() {
	}
	st := pollUntilTerminal(t, srv, keep)
	if st.State != "done" || st.Result.Step != 1 {
		t.Errorf("kept job = %+v", st)
	}
	var status StatusResponse
	rec, _ = doJSON(t, srv, http.MethodGet, "/api/v1/status", nil)
	json.Unmarshal(rec.Body.Bytes(), &status)
	if status.Commits != 1 {
		t.Errorf("engine saw %d commits, want 1 (cancel leaked through)", status.Commits)
	}
}

func TestAsyncQueueFullAnswers503(t *testing.T) {
	srv, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{
		QueueCapacity: 1,
	}, true)
	preds := goodPredictions(t, labels, 0.9, 2)
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
		CommitRequest: CommitRequest{Model: "first", Predictions: preds},
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
		CommitRequest: CommitRequest{Model: "second", Predictions: preds},
	})
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("over-capacity submit = %d, want 503", rec.Code)
	}
	srv.pool.RunOne()
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
		CommitRequest: CommitRequest{Model: "third", Predictions: preds},
	})
	if rec.Code != http.StatusAccepted {
		t.Errorf("post-drain submit = %d", rec.Code)
	}
}

// TestWebhookEndToEnd runs the production transport for real: an
// httptest subscriber receives job-finished callbacks POSTed by the
// HTTPPoster from the worker goroutine, exactly once per job.
func TestWebhookEndToEnd(t *testing.T) {
	var mu sync.Mutex
	deliveries := map[string]int{}
	subscriber := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var st JobStatusResponse
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Errorf("webhook body: %v", err)
			return
		}
		mu.Lock()
		deliveries[st.JobID]++
		mu.Unlock()
	}))
	defer subscriber.Close()

	srv, labels := newServerWith(t, script.AdaptivityFull, 16, 900, Options{}, false)
	var ids []string
	for i := 0; i < 8; i++ {
		rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
			CommitRequest: CommitRequest{
				Model:       fmt.Sprintf("m%d", i),
				Predictions: goodPredictions(t, labels, 0.9, int64(10+i)),
			},
			Webhook: subscriber.URL,
		})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d status = %d: %s", i, rec.Code, rec.Body.String())
		}
		var acc JobAcceptedResponse
		json.Unmarshal(rec.Body.Bytes(), &acc)
		ids = append(ids, acc.JobID)
	}
	for _, id := range ids {
		if st := pollUntilTerminal(t, srv, id); st.State != "done" {
			t.Errorf("job %s = %+v", id, st)
		}
	}
	// Deliveries run on their own goroutines after the terminal
	// transition; Close waits for them all.
	closeTestTenant(srv)
	mu.Lock()
	for _, id := range ids {
		if deliveries[id] != 1 {
			t.Errorf("job %s delivered %d times, want exactly 1", id, deliveries[id])
		}
	}
	mu.Unlock()
	var m MetricsResponse
	rec, _ := doJSON(t, srv, http.MethodGet, "/api/v1/metrics", nil)
	json.Unmarshal(rec.Body.Bytes(), &m)
	if m.WebhooksSent != uint64(len(ids)) || m.WebhooksFailed != 0 {
		t.Errorf("webhook counters = sent %d failed %d, want %d/0", m.WebhooksSent, m.WebhooksFailed, len(ids))
	}
	if m.CommitQueue.Completed != uint64(len(ids)) {
		t.Errorf("queue counters = %+v", m.CommitQueue)
	}
}

// TestAsyncSyncEquivalence is the PR's acceptance criterion: a burst of
// 64 concurrent async submissions is fully accepted, drains FIFO, and
// leaves the engine in a byte-identical state to the same commits pushed
// sequentially through the synchronous endpoint.
func TestAsyncSyncEquivalence(t *testing.T) {
	const burst = 64
	mkPreds := func(t *testing.T, labels []int, i int) []int {
		// A fixed accuracy ramp, deterministic per index, shared by both
		// servers.
		return goodPredictions(t, labels, 0.7+0.2*float64(i)/burst, int64(1000+i))
	}

	// Sequential synchronous reference.
	syncSrv, labels := newServerWith(t, script.AdaptivityFull, burst, 2500, Options{}, false)
	for i := 0; i < burst; i++ {
		rec, _ := doJSON(t, syncSrv, http.MethodPost, "/api/v1/commit", CommitRequest{
			Model: fmt.Sprintf("m%d", i), Author: "dev", Message: fmt.Sprintf("commit %d", i),
			Predictions: mkPreds(t, labels, i),
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("sync commit %d status = %d: %s", i, rec.Code, rec.Body.String())
		}
	}

	// Concurrent asynchronous burst. Submission order must be the FIFO
	// order, so the burst races the HTTP accept path (the part that must
	// absorb concurrency) while each goroutine waits its turn to submit.
	asyncSrv, labels2 := newServerWith(t, script.AdaptivityFull, burst, 2500, Options{QueueCapacity: burst}, false)
	if len(labels2) != len(labels) {
		t.Fatal("test servers disagree on testset size")
	}
	ids := make([]string, burst)
	turn := make([]chan struct{}, burst+1)
	for i := range turn {
		turn[i] = make(chan struct{})
	}
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for i := 0; i < burst; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(AsyncCommitRequest{CommitRequest: CommitRequest{
				Model: fmt.Sprintf("m%d", i), Author: "dev", Message: fmt.Sprintf("commit %d", i),
				Predictions: mkPreds(t, labels, i),
			}})
			<-turn[i] // my submission slot
			req := httptest.NewRequest(http.MethodPost, "/api/v1/commit/async", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			serveTenant(asyncSrv, rec, req)
			close(turn[i+1])
			if rec.Code != http.StatusAccepted {
				t.Errorf("async submit %d status = %d: %s", i, rec.Code, rec.Body.String())
				return
			}
			accepted.Add(1)
			var acc JobAcceptedResponse
			json.Unmarshal(rec.Body.Bytes(), &acc)
			ids[i] = acc.JobID
		}()
	}
	close(turn[0])
	wg.Wait()
	if accepted.Load() != burst {
		t.Fatalf("accepted %d of %d submissions", accepted.Load(), burst)
	}

	// Drain: every job terminal, in FIFO submission order (job i is the
	// i+1'th evaluation step).
	for i, id := range ids {
		st := pollUntilTerminal(t, asyncSrv, id)
		if st.State != "done" || st.Result == nil {
			t.Fatalf("job %d (%s) = %+v", i, id, st)
		}
		if st.Result.Step != i+1 {
			t.Errorf("job %d ran as step %d: FIFO order violated", i, st.Result.Step)
		}
		if st.Seq != i+1 {
			t.Errorf("job %d has seq %d", i, st.Seq)
		}
	}

	// The two engines must now be byte-identical observables: history,
	// status, and the label ledger.
	syncHist, _ := doJSON(t, syncSrv, http.MethodGet, "/api/v1/history", nil)
	asyncHist, _ := doJSON(t, asyncSrv, http.MethodGet, "/api/v1/history", nil)
	if !bytes.Equal(syncHist.Body.Bytes(), asyncHist.Body.Bytes()) {
		t.Errorf("histories differ:\nsync : %.300s\nasync: %.300s",
			syncHist.Body.String(), asyncHist.Body.String())
	}
	syncStatus, _ := doJSON(t, syncSrv, http.MethodGet, "/api/v1/status", nil)
	asyncStatus, _ := doJSON(t, asyncSrv, http.MethodGet, "/api/v1/status", nil)
	if !bytes.Equal(syncStatus.Body.Bytes(), asyncStatus.Body.Bytes()) {
		t.Errorf("statuses differ:\nsync : %s\nasync: %s",
			syncStatus.Body.String(), asyncStatus.Body.String())
	}
	if a, b := syncSrv.eng.LabelCost().Total(), asyncSrv.eng.LabelCost().Total(); a != b {
		t.Errorf("label ledger totals differ: sync %d, async %d", a, b)
	}
	// H/history ordering: generation and step sequences agree exactly.
	sh, ah := syncSrv.eng.History(), asyncSrv.eng.History()
	if len(sh) != burst || len(ah) != burst {
		t.Fatalf("history lengths: sync %d async %d, want %d", len(sh), len(ah), burst)
	}
	for i := range sh {
		if sh[i].Step != ah[i].Step || sh[i].Generation != ah[i].Generation ||
			sh[i].Commit.ID != ah[i].Commit.ID || sh[i].Pass != ah[i].Pass {
			t.Errorf("history[%d] differs: sync %+v vs async %+v", i, sh[i], ah[i])
		}
	}
}

// TestMetricsSweepCounters covers the sweep observability satellite:
// /api/v1/metrics surfaces the event-driven sweep's process-wide counters
// next to ExactEvals, an uncached worst-case evaluation moves all three,
// and the admin cache reset returns them to zero.
func TestMetricsSweepCounters(t *testing.T) {
	m := newTestMulti(t, MultiOptions{})
	defer m.Close()
	doH(t, m, http.MethodPost, "/api/v1/admin/reset-caches", nil)

	// Drive one uncached worst-case evaluation through the same
	// process-wide engine the tight-bound plans use.
	if _, err := bounds.ExactWorstCaseFailure(5000, 0.02, 0, 1); err != nil {
		t.Fatal(err)
	}
	rec := doH(t, m, http.MethodGet, "/api/v1/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	var mr MultiMetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.ExactEvals == 0 {
		t.Error("exact_evals should count the uncached evaluation")
	}
	if mr.SweepEvents == 0 {
		t.Error("sweep_events should count the enumerated lattice events")
	}
	if mr.SweepSegmentsRefined == 0 {
		t.Error("sweep_segments_refined should count the exactly evaluated events")
	}
	if mr.SweepSegmentsAnalytic == 0 {
		t.Error("sweep_segments_analytic should count the events the bisection excluded")
	}
	if mr.SweepSegmentsAnalytic+mr.SweepSegmentsRefined != mr.SweepEvents {
		t.Errorf("analytic (%d) + refined (%d) != events (%d)",
			mr.SweepSegmentsAnalytic, mr.SweepSegmentsRefined, mr.SweepEvents)
	}

	// The admin reset clears them along with the memo.
	rec = doH(t, m, http.MethodPost, "/api/v1/admin/reset-caches", nil)
	var pre MultiMetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pre); err != nil {
		t.Fatal(err)
	}
	if pre.SweepEvents == 0 {
		t.Error("pre-reset snapshot should still show the sweep traffic")
	}
	rec = doH(t, m, http.MethodGet, "/api/v1/metrics", nil)
	var post MultiMetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &post); err != nil {
		t.Fatal(err)
	}
	if post.SweepEvents != 0 || post.SweepSegmentsAnalytic != 0 || post.SweepSegmentsRefined != 0 {
		t.Errorf("post-reset sweep counters not zero: %+v", post)
	}
}

// TestAdminResetCaches covers the ROADMAP item: the admin endpoint
// returns the pre-reset counters, drops both caches to zero, and plans
// recompute identically afterwards.
func TestAdminResetCaches(t *testing.T) {
	m := newTestMulti(t, MultiOptions{})
	defer m.Close()
	// Prime the plan cache and record the served plan.
	before := doH(t, m, http.MethodGet, "/api/v1/plan", nil)
	if before.Code != http.StatusOK {
		t.Fatalf("plan status = %d", before.Code)
	}
	doH(t, m, http.MethodGet, "/api/v1/plan", nil)

	rec := doH(t, m, http.MethodGet, "/api/v1/admin/reset-caches", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET reset status = %d", rec.Code)
	}
	rec = doH(t, m, http.MethodPost, "/api/v1/admin/reset-caches", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("reset status = %d: %s", rec.Code, rec.Body.String())
	}
	var pre MultiMetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pre); err != nil {
		t.Fatal(err)
	}
	if pre.PlanCache.PlanEntries == 0 || pre.PlanCache.PlanHits == 0 {
		t.Errorf("pre-reset snapshot should show the primed cache: %+v", pre.PlanCache)
	}

	// Post-reset: counters are zero.
	rec = doH(t, m, http.MethodGet, "/api/v1/metrics", nil)
	var post MultiMetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &post); err != nil {
		t.Fatal(err)
	}
	if post.PlanCache.PlanEntries != 0 || post.PlanCache.PlanHits != 0 || post.PlanCache.PlanMisses != 0 {
		t.Errorf("post-reset plan cache not empty: %+v", post.PlanCache)
	}
	if post.ExactMemoLen != 0 || post.ExactMemoHits != 0 || post.ExactMemoMisses != 0 {
		t.Errorf("post-reset exact memo not empty: hits=%d misses=%d len=%d",
			post.ExactMemoHits, post.ExactMemoMisses, post.ExactMemoLen)
	}
	if post.SweepEvents != 0 || post.SweepSegmentsAnalytic != 0 || post.SweepSegmentsRefined != 0 {
		t.Errorf("post-reset sweep counters not zero: events=%d analytic=%d refined=%d",
			post.SweepEvents, post.SweepSegmentsAnalytic, post.SweepSegmentsRefined)
	}

	// Plans recompute identically (a fresh miss, then the same bytes).
	after := doH(t, m, http.MethodGet, "/api/v1/plan", nil)
	if !bytes.Equal(after.Body.Bytes(), before.Body.Bytes()) {
		t.Errorf("recomputed plan differs:\n%s\n%s", after.Body.String(), before.Body.String())
	}
	rec = doH(t, m, http.MethodGet, "/api/v1/metrics", nil)
	json.Unmarshal(rec.Body.Bytes(), &post)
	if post.PlanCache.PlanMisses == 0 {
		t.Errorf("recompute should register a fresh miss: %+v", post.PlanCache)
	}
}

// TestSyncCommitIgnoresWebhook pins the synchronous endpoint's contract
// on "webhook": a body carrying one, as a URL or as a value the async
// endpoint would refuse, gets the same response and history as the body
// without it, and no delivery is ever attempted.
func TestSyncCommitIgnoresWebhook(t *testing.T) {
	outbox := notify.NewOutbox()
	withHook, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{Webhooks: outbox}, false)
	plain, _ := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{}, false)
	for i, hook := range []string{`"http://127.0.0.1:1/hook"`, `5`} {
		preds, err := json.Marshal(goodPredictions(t, labels, 0.9, int64(30+i)))
		if err != nil {
			t.Fatal(err)
		}
		base := fmt.Sprintf(`{"model":"m%d","predictions":%s`, i, preds)
		got := postRaw(withHook, "/api/v1/commit", []byte(base+`,"webhook":`+hook+`}`))
		want := postRaw(plain, "/api/v1/commit", []byte(base+`}`))
		if got.Code != http.StatusOK || got.Code != want.Code || got.Body.String() != want.Body.String() {
			t.Fatalf("webhook %s: got %d %s, want %d %s", hook, got.Code, got.Body.String(), want.Code, want.Body.String())
		}
	}
	gotHist, _ := doJSON(t, withHook, http.MethodGet, "/api/v1/history", nil)
	wantHist, _ := doJSON(t, plain, http.MethodGet, "/api/v1/history", nil)
	if gotHist.Body.String() != wantHist.Body.String() {
		t.Fatalf("history with webhook %s, without %s", gotHist.Body.String(), wantHist.Body.String())
	}
	// Close drains every pending delivery, so an attempted one would be
	// in the outbox and the counters by now.
	closeTestTenant(withHook)
	if hooks := outbox.ByKind(notify.KindWebhook); len(hooks) != 0 {
		t.Fatalf("sync commits delivered %d webhooks: %+v", len(hooks), hooks)
	}
	var m MetricsResponse
	rec, _ := doJSON(t, withHook, http.MethodGet, "/api/v1/metrics", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.WebhooksSent != 0 || m.WebhooksFailed != 0 {
		t.Fatalf("webhook counters = sent %d failed %d, want 0/0", m.WebhooksSent, m.WebhooksFailed)
	}
}
