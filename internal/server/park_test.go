package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/script"
)

// flakyFactory builds an OracleFactory whose provider fails the first
// `fails` round trips and then recovers. With MaxAttempts 2, two faults
// park the first evaluation and the release succeeds. Sleeps and the
// fault clock are stubbed out, so the tests never actually wait.
func flakyFactory(fails int) func(gen int, truth []int) labeling.Oracle {
	return func(gen int, truth []int) labeling.Oracle {
		schedule := make([]labeling.Fault, fails)
		for i := range schedule {
			schedule[i] = labeling.Fault{Fail: true}
		}
		faults := labeling.NewFaultOracle(labeling.NewTruthOracle(truth), schedule, func(time.Duration) {})
		return labeling.NewResilient(faults, labeling.ResilientOptions{
			MaxAttempts: 2,
			Backoff:     time.Microsecond,
			Sleep:       func(time.Duration) {},
			Jitter:      func() float64 { return 0 },
		})
	}
}

func submitAsync(t *testing.T, h http.Handler, path string, labels []int, model string, seed int64) JobAcceptedResponse {
	t.Helper()
	rec := doH(t, h, http.MethodPost, path, AsyncCommitRequest{
		CommitRequest: CommitRequest{
			Model: model, Author: "dev", Message: "park",
			Predictions: goodPredictions(t, labels, 0.9, seed),
		},
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async submit = %d: %s", rec.Code, rec.Body.String())
	}
	var acc JobAcceptedResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	return acc
}

func jobState(t *testing.T, srv *Server, id string) JobStatusResponse {
	t.Helper()
	rec, _ := doJSON(t, srv, http.MethodGet, jobsPath+id, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("poll %s = %d: %s", id, rec.Code, rec.Body.String())
	}
	return decodeJobStatus(t, rec)
}

// TestParkAndReleaseEndToEnd: a provider outage parks the commit job in
// awaiting_labels instead of failing it, and the released job delivers a
// verdict byte-identical to a server whose oracle never failed.
func TestParkAndReleaseEndToEnd(t *testing.T) {
	control, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{Clock: testClock})
	acc := submitAsync(t, tenantHandler(control), "/api/v1/commit/async", labels, "cand", 2)
	if !control.pool.RunOne() {
		t.Fatal("control job did not run")
	}
	want := jobState(t, control, acc.JobID)
	if want.State != "done" {
		t.Fatalf("control job = %+v", want)
	}

	srv, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{
		Clock:         testClock,
		OracleFactory: flakyFactory(2),
	})
	acc = submitAsync(t, tenantHandler(srv), "/api/v1/commit/async", labels, "cand", 2)
	if !srv.pool.RunOne() {
		t.Fatal("flaky job did not run")
	}
	st := jobState(t, srv, acc.JobID)
	if st.State != "awaiting_labels" {
		t.Fatalf("job after outage = %+v, want awaiting_labels", st)
	}
	if st.Result != nil || st.Error != "" {
		t.Fatalf("parked job leaked a result or error: %+v", st)
	}
	if got := srv.ParkedCount(); got != 1 {
		t.Fatalf("ParkedCount = %d", got)
	}
	if srv.pool.RunOne() {
		t.Fatal("parked job ran without a release")
	}

	if got := srv.ReleaseParked(); got != 1 {
		t.Fatalf("ReleaseParked = %d", got)
	}
	if st := jobState(t, srv, acc.JobID); st.State != "queued" {
		t.Fatalf("released job = %q, want queued", st.State)
	}
	if !srv.pool.RunOne() {
		t.Fatal("released job did not run")
	}
	got := jobState(t, srv, acc.JobID)
	if got.State != "done" {
		t.Fatalf("job after recovery = %+v", got)
	}
	wantJSON, _ := json.Marshal(want.Result)
	gotJSON, _ := json.Marshal(got.Result)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("verdict diverged across the outage:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	// Exactly-once labels: the outage run charged the same ledger total.
	if g, w := srv.eng.LabelCost().Total(), control.eng.LabelCost().Total(); g != w {
		t.Errorf("label charges = %d, want %d", g, w)
	}
}

// TestParkAutoRelease: without a harness clock the server re-queues
// parked jobs on a timer, pacing off the provider's Retry-After hint
// (floored at MinParkRelease), and the pool's workers run them.
func TestParkAutoRelease(t *testing.T) {
	factory := func(gen int, truth []int) labeling.Oracle {
		faults := labeling.NewFaultOracle(labeling.NewTruthOracle(truth), []labeling.Fault{
			{Fail: true, RetryIn: 10 * time.Millisecond, HasRetryIn: true},
			{Fail: true, RetryIn: 10 * time.Millisecond, HasRetryIn: true},
		}, func(time.Duration) {})
		return labeling.NewResilient(faults, labeling.ResilientOptions{
			MaxAttempts: 2,
			Backoff:     time.Microsecond,
			Sleep:       func(time.Duration) {},
			Jitter:      func() float64 { return 0 },
		})
	}
	srv, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{
		OracleFactory: factory,
	})
	acc := submitAsync(t, tenantHandler(srv), "/api/v1/commit/async", labels, "cand", 2)
	// The worker runs the job into the outage; the release timer (hint
	// 10ms, floored to MinParkRelease = 1s) then re-queues it and the
	// worker runs it again against the recovered provider.
	waitState := func(want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			st := jobState(t, srv, acc.JobID)
			if st.State == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("job = %+v, never reached %s", st, want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitState("awaiting_labels")
	waitState("done")
}

// TestParkMetricsSurviveAdminReset: oracle health is delivery state, not
// a cache — the admin reset reports it unchanged, globally and per
// project.
func TestParkMetricsSurviveAdminReset(t *testing.T) {
	srv, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{
		Clock:         testClock,
		OracleFactory: flakyFactory(2),
	})
	acc := submitAsync(t, tenantHandler(srv), "/api/v1/commit/async", labels, "cand", 2)
	srv.pool.RunOne()
	srv.ReleaseParked()
	srv.pool.RunOne()
	if st := jobState(t, srv, acc.JobID); st.State != "done" {
		t.Fatalf("setup: job = %+v", st)
	}

	metrics := func() map[string]json.RawMessage {
		rec, body := doJSON(t, srv, http.MethodGet, "/api/v1/metrics", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("metrics = %d", rec.Code)
		}
		return body
	}
	before, ok := metrics()["label_oracle"]
	if !ok {
		t.Fatal("metrics missing label_oracle")
	}
	var st labeling.OracleStats
	if err := json.Unmarshal(before, &st); err != nil {
		t.Fatal(err)
	}
	if st.Attempts == 0 || st.Retries == 0 || st.Unavailable == 0 || st.LabelsFetched == 0 {
		t.Fatalf("oracle stats did not record the outage: %+v", st)
	}
	if st.Breaker.State == "" {
		t.Fatalf("oracle stats missing breaker status: %+v", st)
	}

	// The tenant's half of the admin reset.
	srv.resetCommitCounters()
	after := metrics()["label_oracle"]
	if !bytes.Equal(before, after) {
		t.Errorf("admin reset changed oracle health:\n before %s\n after  %s", before, after)
	}
}

// TestParkWithoutFactoryAbsent: servers with no remote oracle expose no
// label_oracle block and never park.
func TestParkWithoutFactoryAbsent(t *testing.T) {
	srv, _ := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{Clock: testClock})
	_, body := doJSON(t, srv, http.MethodGet, "/api/v1/metrics", nil)
	if _, ok := body["label_oracle"]; ok {
		t.Error("label_oracle present without an OracleFactory")
	}
	if srv.ParkedCount() != 0 || srv.ReleaseParked() != 0 {
		t.Error("parked bookkeeping active without an OracleFactory")
	}
}

// TestDurableRestartWhileParked: SIGKILL while a job waits out a provider
// outage. On restart the job re-enqueues from its submit record (parking
// writes no commit record — replay must not claim an evaluation that
// never completed), runs against the recovered provider, and lands the
// same verdict as a run that never saw the outage.
func TestDurableRestartWhileParked(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)

	controlDir := t.TempDir()
	control, err := openTestTenant(g, controlDir, Options{Clock: testClock, Webhooks: notify.NewOutbox()})
	if err != nil {
		t.Fatal(err)
	}
	defer closeTestTenant(control)
	cacc := submitAsync(t, tenantHandler(control), "/api/v1/commit/async", labels, "cand", 2)
	if !control.pool.RunOne() {
		t.Fatal("control job did not run")
	}
	want := jobState(t, control, cacc.JobID)

	dir := t.TempDir()
	srv, err := openTestTenant(g, dir, Options{
		Clock:         testClock,
		Webhooks:      notify.NewOutbox(),
		OracleFactory: flakyFactory(1000), // hard down: every attempt fails
	})
	if err != nil {
		t.Fatal(err)
	}
	acc := submitAsync(t, tenantHandler(srv), "/api/v1/commit/async", labels, "cand", 2)
	if !srv.pool.RunOne() {
		t.Fatal("job did not run")
	}
	if st := jobState(t, srv, acc.JobID); st.State != "awaiting_labels" {
		t.Fatalf("job = %+v, want awaiting_labels", st)
	}
	// Crash: no Close, no release. The provider is back when the process
	// returns.
	restarted, err := openTestTenant(g, dir, Options{
		Clock:         testClock,
		Webhooks:      notify.NewOutbox(),
		OracleFactory: flakyFactory(0),
	})
	if err != nil {
		t.Fatalf("restart with a parked job: %v", err)
	}
	defer closeTestTenant(restarted)
	if st := jobState(t, restarted, acc.JobID); st.State != "queued" {
		t.Fatalf("parked job after restart = %q, want queued (restart is the release)", st.State)
	}
	if !restarted.pool.RunOne() {
		t.Fatal("re-enqueued job did not run")
	}
	got := jobState(t, restarted, acc.JobID)
	if got.State != "done" {
		t.Fatalf("job after restart = %+v", got)
	}
	wantJSON, _ := json.Marshal(want.Result)
	gotJSON, _ := json.Marshal(got.Result)
	if !bytes.Equal(wantJSON, gotJSON) {
		t.Errorf("verdict diverged across crash-while-parked:\n got %s\nwant %s", gotJSON, wantJSON)
	}
	// No label charged twice or lost across the restart.
	if g, w := restarted.eng.LabelCost().Total(), control.eng.LabelCost().Total(); g != w {
		t.Errorf("label charges = %d, want %d", g, w)
	}
	var history []CommitResponse
	if err := json.Unmarshal(getBody(t, restarted, "/api/v1/history"), &history); err != nil {
		t.Fatal(err)
	}
	if len(history) != 1 {
		t.Errorf("history holds %d commits, want exactly 1", len(history))
	}
}

// TestMultiDeleteProjectWithParkedJob: deleting a project whose queue
// holds an awaiting_labels job fails that job with the caller's 409 —
// a synchronous commit waiter never hangs on a queue nothing will drain.
func TestMultiDeleteProjectWithParkedJob(t *testing.T) {
	m := newTestMulti(t, MultiOptions{Tenant: Options{
		OracleFactory: flakyFactory(1000),
	}})
	defer m.Close()
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "flaky", ProjectSpec: testSpec(t, 3, testSize, 2)}); rec.Code != http.StatusCreated {
		t.Fatal(rec.Body.String())
	}
	labels := testLabels()
	syncDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		syncDone <- doH(t, m, http.MethodPost, "/api/v1/projects/flaky/commit", CommitRequest{
			Model: "waiter", Predictions: goodPredictions(t, labels, 0.9, 2),
		})
	}()
	srv := m.tenant("flaky")
	deadline := time.Now().Add(10 * time.Second)
	for srv.ParkedCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("sync commit never parked")
		}
		time.Sleep(time.Millisecond)
	}
	// The tenant's own metrics expose the parked oracle's health.
	rec, _ := doJSON(t, m.tenant("flaky"), http.MethodGet, "/api/v1/metrics", nil)
	var tm struct {
		LabelOracle *labeling.OracleStats `json:"label_oracle"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tm); err != nil {
		t.Fatal(err)
	}
	if tm.LabelOracle == nil || tm.LabelOracle.Unavailable == 0 {
		t.Errorf("tenant metrics missing the outage: %+v", tm.LabelOracle)
	}

	if rec := doH(t, m, http.MethodDelete, "/api/v1/projects/flaky", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete = %d: %s", rec.Code, rec.Body.String())
	}
	select {
	case rec := <-syncDone:
		if rec.Code != http.StatusConflict {
			t.Fatalf("sync commit across delete = %d: %s", rec.Code, rec.Body.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sync waiter still blocked after its project was deleted")
	}
}

// TestJobCancelWhileParked: DELETE on a parked job cancels it like any
// queued job — the poller sees failed/canceled, not a hang.
func TestJobCancelWhileParked(t *testing.T) {
	srv, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{
		Clock:         testClock,
		OracleFactory: flakyFactory(1000),
	})
	acc := submitAsync(t, tenantHandler(srv), "/api/v1/commit/async", labels, "cand", 2)
	if !srv.pool.RunOne() {
		t.Fatal("job did not run")
	}
	if st := jobState(t, srv, acc.JobID); st.State != "awaiting_labels" {
		t.Fatalf("job = %+v", st)
	}
	rec, _ := doJSON(t, srv, http.MethodDelete, jobsPath+acc.JobID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel parked job = %d: %s", rec.Code, rec.Body.String())
	}
	st := jobState(t, srv, acc.JobID)
	if st.State != "failed" || st.Error == "" {
		t.Fatalf("canceled parked job = %+v, want failed", st)
	}
	if srv.ParkedCount() != 0 {
		t.Error("canceled job still counted as parked")
	}
	if srv.ReleaseParked() != 0 {
		t.Error("canceled job released")
	}
}

// TestParkReleaseKicksScheduler: every parked job released back to the
// queue kicks the tenant's pool, so the scheduler sees its credit.
func TestParkReleaseKicksScheduler(t *testing.T) {
	srv, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{
		Clock:         testClock,
		OracleFactory: flakyFactory(2),
	})
	pending := func() int { return srv.pool.Stats().Sources[0].Pending }
	submitAsync(t, tenantHandler(srv), "/api/v1/commit/async", labels, "cand", 2)
	if got := pending(); got != 1 {
		t.Fatalf("pool pending after submit = %d, want 1", got)
	}
	if !srv.pool.RunOne() || srv.ParkedCount() != 1 {
		t.Fatalf("job did not park: parked = %d", srv.ParkedCount())
	}
	if got := pending(); got != 0 {
		t.Fatalf("pool pending while parked = %d, want 0", got)
	}
	if got := srv.ReleaseParked(); got != 1 {
		t.Fatalf("ReleaseParked = %d", got)
	}
	if got := pending(); got != 1 {
		t.Fatalf("pool pending after release = %d, want 1", got)
	}
}

// TestParkHarnessClock pins the harness clock both ways on a Multi whose
// Tenant.Clock is set: each time-driven step holds still until the test
// takes it, then does what production does on its own. An accepted job
// stays queued until RunOne; a finished job's webhook stays undelivered
// until RunDueWebhooks; a parked job stays awaiting_labels, with no
// release timer armed, until ReleaseParked.
func TestParkHarnessClock(t *testing.T) {
	outbox := notify.NewOutbox()
	releaseUnarmed := func(s *Server) bool {
		s.releaseMu.Lock()
		defer s.releaseMu.Unlock()
		return s.releaseTimer == nil
	}
	for _, tc := range []struct {
		name    string
		opts    Options
		webhook string
		runs    int    // RunOne calls before the hold
		held    string // the job's state while held
		holding func(*Server) bool
		step    func(*Multi, *Server) bool
	}{
		{
			name: "job queued until RunOne",
			held: "queued",
			step: func(m *Multi, _ *Server) bool { return m.RunOne() },
		},
		{
			name:    "webhook undelivered until RunDueWebhooks",
			opts:    Options{Webhooks: outbox},
			webhook: "http://hooks.local/ci",
			runs:    1,
			held:    "done",
			holding: func(*Server) bool { return len(outbox.Messages()) == 0 },
			step: func(_ *Multi, s *Server) bool {
				return s.RunDueWebhooks() == 1 && len(outbox.Messages()) == 1
			},
		},
		{
			name:    "parked until ReleaseParked",
			opts:    Options{OracleFactory: flakyFactory(2)},
			runs:    1,
			held:    "awaiting_labels",
			holding: releaseUnarmed,
			step:    func(m *Multi, s *Server) bool { return s.ReleaseParked() == 1 && m.RunOne() },
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Clock = testClock
			m := newTestMulti(t, MultiOptions{Tenant: opts})
			defer m.Close()
			srv := m.Default()
			rec := doH(t, m, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
				CommitRequest: CommitRequest{Model: "cand", Predictions: goodPredictions(t, testLabels(), 0.9, 2)},
				Webhook:       tc.webhook,
			})
			if rec.Code != http.StatusAccepted {
				t.Fatalf("submit = %d: %s", rec.Code, rec.Body.String())
			}
			var acc JobAcceptedResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < tc.runs; i++ {
				if !m.RunOne() {
					t.Fatalf("RunOne %d found no job", i+1)
				}
			}
			// Give a wall-clock worker or timer, were one running, time to act.
			time.Sleep(20 * time.Millisecond)
			if st := jobState(t, srv, acc.JobID); st.State != tc.held {
				t.Fatalf("held job = %+v, want %s", st, tc.held)
			}
			if tc.holding != nil && !tc.holding(srv) {
				t.Fatal("the harness let a time-driven step run on its own")
			}
			if !tc.step(m, srv) {
				t.Fatal("the harness step did not act")
			}
			if st := jobState(t, srv, acc.JobID); st.State != "done" {
				t.Fatalf("job after the step = %+v, want done", st)
			}
		})
	}
}
