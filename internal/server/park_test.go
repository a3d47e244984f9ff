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
	control, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{}, true)
	acc := submitAsync(t, tenantHandler(control), "/api/v1/commit/async", labels, "cand", 2)
	if !control.pool.RunOne() {
		t.Fatal("control job did not run")
	}
	want := jobState(t, control, acc.JobID)
	if want.State != "done" {
		t.Fatalf("control job = %+v", want)
	}

	srv, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{
		ManualRelease: true,
		OracleFactory: flakyFactory(2),
	}, true)
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

// TestParkAutoRelease: without ManualRelease the server re-queues parked
// jobs on a timer, pacing off the provider's Retry-After hint (floored at
// MinParkRelease).
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
	}, true)
	acc := submitAsync(t, tenantHandler(srv), "/api/v1/commit/async", labels, "cand", 2)
	if !srv.pool.RunOne() {
		t.Fatal("job did not run")
	}
	if st := jobState(t, srv, acc.JobID); st.State != "awaiting_labels" {
		t.Fatalf("job after outage = %+v", st)
	}
	// The release timer fires on its own (hint 10ms, floored to
	// MinParkRelease = 1s) and re-queues the job.
	deadline := time.Now().Add(10 * time.Second)
	for jobState(t, srv, acc.JobID).State != "queued" {
		if time.Now().After(deadline) {
			t.Fatal("auto-release timer never re-queued the parked job")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !srv.pool.RunOne() {
		t.Fatal("auto-released job did not run")
	}
	if st := jobState(t, srv, acc.JobID); st.State != "done" {
		t.Fatalf("job after auto-release = %+v", st)
	}
}

// TestParkMetricsSurviveAdminReset: oracle health is delivery state, not
// a cache — the admin reset reports it unchanged, globally and per
// project.
func TestParkMetricsSurviveAdminReset(t *testing.T) {
	srv, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{
		ManualRelease: true,
		OracleFactory: flakyFactory(2),
	}, true)
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
	srv, _ := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{}, true)
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
	control, err := openTestTenant(g, controlDir, Options{Webhooks: notify.NewOutbox()}, true)
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
		ManualRelease: true,
		Webhooks:      notify.NewOutbox(),
		OracleFactory: flakyFactory(1000), // hard down: every attempt fails
	}, true)
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
		ManualRelease: true,
		Webhooks:      notify.NewOutbox(),
		OracleFactory: flakyFactory(0),
	}, true)
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
		ManualRelease: true,
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
		ManualRelease: true,
		OracleFactory: flakyFactory(1000),
	}, true)
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
		ManualRelease: true,
		OracleFactory: flakyFactory(2),
	}, true)
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
