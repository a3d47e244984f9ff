package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/resilience"
	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/wal/faultfs"
)

// durableGenesis mirrors newServerWith's engine construction exactly, so
// a durable server and an in-memory oracle built from the same numbers
// produce byte-identical histories.
func durableGenesis(t testing.TB, steps, size int) (Genesis, []int) {
	t.Helper()
	labels := make([]int, size)
	for i := range labels {
		labels[i] = i % testClasses
	}
	h0, err := model.SimulatedPredictions(labels, testClasses, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	return Genesis{
		Condition:        "n > 0.6 +/- 0.1",
		Reliability:      0.99,
		Mode:             interval.FPFree,
		Adaptivity:       script.Adaptivity{Kind: script.AdaptivityFull},
		Steps:            steps,
		Labels:           labels,
		Classes:          testClasses,
		ModelName:        "h0",
		ModelPredictions: h0,
	}, labels
}

// getBody asserts a 200 GET and returns the raw response bytes — the
// byte-identity currency of the restart-equivalence tests.
func getBody(t *testing.T, srv *Server, path string) []byte {
	t.Helper()
	rec, _ := doJSON(t, srv, http.MethodGet, path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s status = %d: %s", path, rec.Code, rec.Body.String())
	}
	return append([]byte(nil), rec.Body.Bytes()...)
}

// driveTraffic pushes a fixed deterministic workload through a server:
// sync commits to budget exhaustion, a rotation, then async commits
// (some with webhooks) polled to terminal states.
func driveTraffic(t *testing.T, srv *Server, labels []int) (jobIDs []string, hooked int) {
	t.Helper()
	for i := 0; i < 3; i++ {
		rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
			Model: fmt.Sprintf("m%d", i), Author: "dev", Message: "x",
			Predictions: goodPredictions(t, labels, 0.9, int64(10+i)),
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("commit %d status = %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/testset", RotateRequest{
		Labels:            labels,
		ActivePredictions: goodPredictions(t, labels, 0.9, 20),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("rotate status = %d: %s", rec.Code, rec.Body.String())
	}
	for i := 0; i < 2; i++ {
		hook := ""
		if i == 0 {
			hook = "http://hooks.local/ci"
			hooked++
		}
		rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
			CommitRequest: CommitRequest{
				Model: fmt.Sprintf("a%d", i), Author: "dev", Message: "y",
				Predictions: goodPredictions(t, labels, 0.9, int64(30+i)),
			},
			Webhook: hook,
		})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("async %d status = %d: %s", i, rec.Code, rec.Body.String())
		}
		var acc JobAcceptedResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
			t.Fatal(err)
		}
		pollUntilTerminal(t, srv, acc.JobID)
		jobIDs = append(jobIDs, acc.JobID)
	}
	return jobIDs, hooked
}

// waitQuiescent waits until every accepted job and webhook delivery has
// reached its terminal outcome (including the WAL records those outcomes
// write), so abandoning the server afterwards cannot race a restart.
func waitQuiescent(t *testing.T, srv *Server, wantWebhooks uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var m MetricsResponse
		if err := json.Unmarshal(getBody(t, srv, "/api/v1/metrics"), &m); err != nil {
			t.Fatal(err)
		}
		if m.CommitQueue.Pending == 0 && m.CommitQueue.Running == 0 &&
			m.WebhooksSent+m.WebhooksFailed >= wantWebhooks && m.WebhookRetry.Pending == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never went quiescent: %+v", m)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDurableRestartEquivalence is the tentpole property: a durable
// server that crashes (or shuts down cleanly) and restarts is invisible
// to clients — history, status, and every job's poll response are
// byte-identical to what the pre-restart process served, and both match
// an uninterrupted in-memory oracle run fed the same traffic.
func TestDurableRestartEquivalence(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)

	// Oracle: plain in-memory server, same engine numbers, same traffic.
	oracle, _ := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{Webhooks: notify.NewOutbox()}, false)
	defer closeTestTenant(oracle)
	driveTraffic(t, oracle, labels)
	oracleHistory := getBody(t, oracle, "/api/v1/history")

	for _, clean := range []bool{true, false} {
		name := "crash"
		if clean {
			name = "clean-shutdown"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			srv, err := openTestTenant(g, dir, Options{Webhooks: notify.NewOutbox()}, false)
			if err != nil {
				t.Fatal(err)
			}
			jobIDs, hooked := driveTraffic(t, srv, labels)
			waitQuiescent(t, srv, uint64(hooked))

			history := getBody(t, srv, "/api/v1/history")
			status := getBody(t, srv, "/api/v1/status")
			jobs := map[string][]byte{}
			for _, id := range jobIDs {
				jobs[id] = getBody(t, srv, jobsPath+id)
			}
			if !bytes.Equal(history, oracleHistory) {
				t.Fatalf("durable history diverges from the in-memory oracle:\n%s\n%s", history, oracleHistory)
			}

			if clean {
				closeTestTenant(srv) // compacts into snapshot.json; restart restores from it
			} // else: abandon without Close — the log replays from genesis

			restarted, err := openTestTenant(g, dir, Options{Webhooks: notify.NewOutbox()}, false)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer closeTestTenant(restarted)
			if got := getBody(t, restarted, "/api/v1/history"); !bytes.Equal(got, history) {
				t.Errorf("history changed across restart:\n%s\n%s", got, history)
			}
			if got := getBody(t, restarted, "/api/v1/status"); !bytes.Equal(got, status) {
				t.Errorf("status changed across restart:\n%s\n%s", got, status)
			}
			for id, want := range jobs {
				if got := getBody(t, restarted, jobsPath+id); !bytes.Equal(got, want) {
					t.Errorf("job %s status changed across restart:\n%s\n%s", id, got, want)
				}
			}
			// The restarted server is live, not a read-only replica: it
			// accepts new commits on the rotated testset.
			rec, _ := doJSON(t, restarted, http.MethodPost, "/api/v1/commit", CommitRequest{
				Model: "after-restart", Predictions: goodPredictions(t, labels, 0.9, 99),
			})
			if rec.Code != http.StatusOK {
				t.Errorf("post-restart commit status = %d: %s", rec.Code, rec.Body.String())
			}
		})
	}
}

// TestDurablePendingJobResume: jobs accepted (202) but not yet executed
// at the crash are re-enqueued on restart and run exactly once, while
// already-evaluated jobs come back terminal without re-executing.
func TestDurablePendingJobResume(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	dir := t.TempDir()
	srv, err := openTestTenant(g, dir, Options{Webhooks: notify.NewOutbox()}, true)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(s *Server, i int) string {
		rec, _ := doJSON(t, s, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
			CommitRequest: CommitRequest{
				Model: fmt.Sprintf("m%d", i), Predictions: goodPredictions(t, labels, 0.9, int64(10+i)),
			},
		})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("submit %d status = %d: %s", i, rec.Code, rec.Body.String())
		}
		var acc JobAcceptedResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
			t.Fatal(err)
		}
		return acc.JobID
	}
	id0, id1 := submit(srv, 0), submit(srv, 1)
	if !srv.pool.RunOne() {
		t.Fatal("no job to run")
	}
	done0 := getBody(t, srv, jobsPath+id0)
	// Crash: abandon without Close — job 1 was accepted but never ran.

	restarted, err := openTestTenant(g, dir, Options{Webhooks: notify.NewOutbox()}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer closeTestTenant(restarted)
	if got := getBody(t, restarted, jobsPath+id0); !bytes.Equal(got, done0) {
		t.Errorf("evaluated job changed across restart:\n%s\n%s", got, done0)
	}
	if st := decodeJobStatusRec(t, getBody(t, restarted, jobsPath+id1)); st.State != "queued" {
		t.Fatalf("job %s state after restart = %q, want queued", id1, st.State)
	}
	if !restarted.pool.RunOne() {
		t.Fatal("restored pending job did not run")
	}
	if st := decodeJobStatusRec(t, getBody(t, restarted, jobsPath+id1)); st.State != "done" {
		t.Errorf("resumed job state = %q, want done", st.State)
	}
	// Exactly once: the engine history holds each commit a single time.
	var history []CommitResponse
	if err := json.Unmarshal(getBody(t, restarted, "/api/v1/history"), &history); err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 {
		t.Errorf("history has %d commits, want 2 (one per job, no re-execution)", len(history))
	}
	if restarted.pool.RunOne() {
		t.Error("a third job ran; terminal jobs must not re-enqueue")
	}
}

func decodeJobStatusRec(t *testing.T, body []byte) JobStatusResponse {
	t.Helper()
	var st JobStatusResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("bad job status JSON: %v: %s", err, body)
	}
	return st
}

// TestDurableCrashAtEveryRecordBoundary is the crash-recovery property
// test: a log truncated at ANY record boundary (and mid-record — a torn
// write) must recover to a valid prefix of the full run's history —
// the state strictly before or after each record, never a torn hybrid.
func TestDurableCrashAtEveryRecordBoundary(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	base := Options{WALNoSync: true, CompactAt: -1, Webhooks: notify.NewOutbox()}

	// Produce a full run's log: commits, a rotation, another commit.
	dir := t.TempDir()
	srv, err := openTestTenant(g, dir, base, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
			Model: fmt.Sprintf("m%d", i), Predictions: goodPredictions(t, labels, 0.9, int64(10+i)),
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("commit %d status = %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/testset", RotateRequest{
		Labels: labels, ActivePredictions: goodPredictions(t, labels, 0.9, 20),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("rotate status = %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "m2", Predictions: goodPredictions(t, labels, 0.9, 30),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("final commit status = %d", rec.Code)
	}
	var full []json.RawMessage
	if err := json.Unmarshal(getBody(t, srv, "/api/v1/history"), &full); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close: the log keeps every record.
	raw, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(raw), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines) < 5 {
		t.Fatalf("expected a multi-record log, got %d lines", len(lines))
	}

	historyAt := func(t *testing.T, logPrefix string) []json.RawMessage {
		t.Helper()
		d := t.TempDir()
		if err := os.WriteFile(filepath.Join(d, "wal.log"), []byte(logPrefix), 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openTestTenant(g, d, Options{WALNoSync: true, CompactAt: -1, Webhooks: notify.NewOutbox()}, true)
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		defer closeTestTenant(s)
		var h []json.RawMessage
		if err := json.Unmarshal(getBody(t, s, "/api/v1/history"), &h); err != nil {
			t.Fatal(err)
		}
		return h
	}
	assertPrefix := func(t *testing.T, h []json.RawMessage) {
		t.Helper()
		if len(h) > len(full) {
			t.Fatalf("recovered history has %d commits, full run had %d", len(h), len(full))
		}
		for k := range h {
			if !bytes.Equal(h[k], full[k]) {
				t.Fatalf("recovered commit %d diverges from the full run:\n%s\n%s", k, h[k], full[k])
			}
		}
	}

	prevLen := -1
	for i := 0; i <= len(lines); i++ {
		prefix := strings.Join(lines[:i], "")
		h := historyAt(t, prefix)
		assertPrefix(t, h)
		if len(h) < prevLen {
			t.Fatalf("boundary %d: history shrank from %d to %d commits", i, prevLen, len(h))
		}
		prevLen = len(h)
		// Torn write: half of the next record appended after the boundary
		// must truncate away and recover the identical boundary state.
		if i < len(lines) {
			torn := prefix + lines[i][:len(lines[i])/2]
			if ht := historyAt(t, torn); len(ht) != len(h) {
				t.Fatalf("boundary %d: torn tail recovered %d commits, boundary state has %d", i, len(ht), len(h))
			}
		}
	}
	if prevLen != len(full) {
		t.Fatalf("full log recovered %d commits, want %d", prevLen, len(full))
	}
}

// flakyNotifier fails its first n Sends, then delivers into sent.
type flakyNotifier struct {
	mu       sync.Mutex
	failures int
	sent     []notify.Notification
}

func (f *flakyNotifier) Send(n notify.Notification) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.failures > 0 {
		f.failures--
		return fmt.Errorf("subscriber down")
	}
	f.sent = append(f.sent, n)
	return nil
}

func (f *flakyNotifier) delivered() []notify.Notification {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]notify.Notification(nil), f.sent...)
}

// fakeClock is a settable clock for deterministic backoff tests.
type fakeClock struct{ ns atomic.Int64 }

func (c *fakeClock) now() time.Time          { return time.Unix(0, c.ns.Load()) }
func (c *fakeClock) advance(d time.Duration) { c.ns.Add(int64(d)) }

// TestDurableWebhookFlakySubscriberExactlyOnce: a webhook endpoint that
// fails three times is delivered exactly once after backoff; the breaker
// opens on the failure streak and its state is visible in the metrics.
func TestDurableWebhookFlakySubscriberExactlyOnce(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	hook := &flakyNotifier{failures: 3}
	clock := &fakeClock{}
	srv, err := openTestTenant(g, t.TempDir(), Options{
		ManualRetry: true,
		Webhooks:    hook,
		RetryClock:  clock.now,
		RetryJitter: func() float64 { return 0 },
		RetryPolicy: notify.RetryPolicy{
			MaxAttempts: 5,
			Backoff:     time.Second,
			Breaker:     resilience.BreakerOptions{FailureThreshold: 3, Cooldown: 2 * time.Second},
		},
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer closeTestTenant(srv)
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
		CommitRequest: CommitRequest{Model: "m0", Predictions: goodPredictions(t, labels, 0.9, 10)},
		Webhook:       "http://down.local/hook",
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d", rec.Code)
	}
	var acc JobAcceptedResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if !srv.pool.RunOne() {
		t.Fatal("no job to run")
	}

	// Attempts 1..3 fail (backoff 1s then 2s); the third failure trips
	// the breaker.
	for i := 0; i < 3; i++ {
		if n := srv.RunDueWebhooks(); n != 1 {
			t.Fatalf("attempt %d: RunDueWebhooks = %d, want 1", i+1, n)
		}
		clock.advance(time.Duration(1<<i) * time.Second)
	}
	var m MetricsResponse
	if err := json.Unmarshal(getBody(t, srv, "/api/v1/metrics"), &m); err != nil {
		t.Fatal(err)
	}
	b, ok := m.WebhookRetry.Breakers["http://down.local/hook"]
	if !ok || b.State != "open" || b.Opens != 1 {
		t.Errorf("breaker after 3 failures = %+v (all: %+v)", b, m.WebhookRetry.Breakers)
	}
	if m.WebhookRetry.Retries < 2 || m.WebhookRetry.Delivered != 0 {
		t.Errorf("retry stats mid-flight: %+v", m.WebhookRetry)
	}

	// Backoff after the third failure is 4s; the cooldown (2s) has passed
	// by then, so the due attempt is the half-open probe — and the
	// subscriber is back.
	clock.advance(2 * time.Second)
	if n := srv.RunDueWebhooks(); n != 1 {
		t.Fatalf("probe: RunDueWebhooks = %d, want 1", n)
	}
	got := hook.delivered()
	if len(got) != 1 {
		t.Fatalf("delivered %d webhooks, want exactly 1", len(got))
	}
	var st JobStatusResponse
	if err := json.Unmarshal([]byte(got[0].Body), &st); err != nil {
		t.Fatal(err)
	}
	if st.JobID != acc.JobID || st.State != "done" {
		t.Errorf("webhook payload = %+v", st)
	}
	if err := json.Unmarshal(getBody(t, srv, "/api/v1/metrics"), &m); err != nil {
		t.Fatal(err)
	}
	if m.WebhookRetry.Delivered != 1 || m.WebhookRetry.Attempts != 4 || m.WebhooksSent != 1 {
		t.Errorf("final retry stats: %+v, webhooks_sent=%d", m.WebhookRetry, m.WebhooksSent)
	}
	if b := m.WebhookRetry.Breakers["http://down.local/hook"]; b.State != "closed" {
		t.Errorf("breaker after successful probe = %+v", b)
	}
	if kind, ok := m.WebhookRetry.PerKind[notify.KindWebhook.String()]; !ok || kind.Attempts != 4 {
		t.Errorf("per-kind stats = %+v", m.WebhookRetry.PerKind)
	}
	// RunDueWebhooks again: nothing left — no duplicate delivery.
	if n := srv.RunDueWebhooks(); n != 0 {
		t.Errorf("extra attempts after delivery: %d", n)
	}
}

// TestDurableWebhookRedeliveryAcrossRestart: a delivery abandoned
// mid-backoff by shutdown has no outcome record in the log, so the next
// start redelivers it; once an outcome is recorded, further restarts
// leave it alone.
func TestDurableWebhookRedeliveryAcrossRestart(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	dir := t.TempDir()
	down := &flakyNotifier{failures: 1 << 20}
	clock := &fakeClock{}
	opts := func(n notify.Notifier) Options {
		return Options{
			ManualRetry: true, Webhooks: n,
			RetryClock: clock.now, RetryJitter: func() float64 { return 0 },
			RetryPolicy: notify.RetryPolicy{MaxAttempts: 5, Backoff: time.Minute},
		}
	}
	srv, err := openTestTenant(g, dir, opts(down), true)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
		CommitRequest: CommitRequest{Model: "m0", Predictions: goodPredictions(t, labels, 0.9, 10)},
		Webhook:       "http://hooks.local/ci",
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d", rec.Code)
	}
	var acc JobAcceptedResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	if !srv.pool.RunOne() {
		t.Fatal("no job to run")
	}
	if n := srv.RunDueWebhooks(); n != 1 {
		t.Fatalf("first attempt: RunDueWebhooks = %d", n)
	}
	// The delivery is now waiting out a one-minute backoff; Close
	// abandons it with NO outcome record — that absence schedules
	// redelivery after restart. (Close also compacts, so the restart
	// additionally exercises the snapshot-restore path.)
	closeTestTenant(srv)

	up := &flakyNotifier{}
	restarted, err := openTestTenant(g, dir, opts(up), true)
	if err != nil {
		t.Fatal(err)
	}
	if n := restarted.RunDueWebhooks(); n != 1 {
		t.Fatalf("redelivery: RunDueWebhooks = %d, want 1", n)
	}
	got := up.delivered()
	if len(got) != 1 {
		t.Fatalf("redelivered %d webhooks, want exactly 1", len(got))
	}
	var st JobStatusResponse
	if err := json.Unmarshal([]byte(got[0].Body), &st); err != nil {
		t.Fatal(err)
	}
	if st.JobID != acc.JobID || st.State != "done" || st.Result == nil {
		t.Errorf("redelivered payload = %+v", st)
	}
	closeTestTenant(restarted)

	// The outcome is recorded now: a third start must not redeliver.
	final := &flakyNotifier{}
	again, err := openTestTenant(g, dir, opts(final), true)
	if err != nil {
		t.Fatal(err)
	}
	defer closeTestTenant(again)
	if n := again.RunDueWebhooks(); n != 0 {
		t.Errorf("third start made %d delivery attempts, want 0", n)
	}
	if len(final.delivered()) != 0 {
		t.Errorf("third start duplicated the webhook: %+v", final.delivered())
	}
}

// TestDurableWALPoisoning: an append failure mid-commit aborts the
// commit, flips every mutating endpoint to 503 (reads keep working),
// and a restart recovers the pre-failure state with the interrupted job
// re-enqueued — it runs exactly once in the end.
func TestDurableWALPoisoning(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	dir := t.TempDir()
	fs := faultfs.New()
	srv, err := openTestTenant(g, dir, Options{Webhooks: notify.NewOutbox(), WALFS: fs}, true)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(s *Server, i int, wantCode int) string {
		rec, _ := doJSON(t, s, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
			CommitRequest: CommitRequest{Model: fmt.Sprintf("m%d", i), Predictions: goodPredictions(t, labels, 0.9, int64(10+i))},
		})
		if rec.Code != wantCode {
			t.Fatalf("submit %d status = %d, want %d: %s", i, rec.Code, wantCode, rec.Body.String())
		}
		if wantCode != http.StatusAccepted {
			return ""
		}
		var acc JobAcceptedResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
			t.Fatal(err)
		}
		return acc.JobID
	}
	submit(srv, 0, http.StatusAccepted)
	if !srv.pool.RunOne() {
		t.Fatal("no job to run")
	}
	id1 := submit(srv, 1, http.StatusAccepted)

	// Disk goes bad: the job's first journal append fails mid-commit. The
	// engine aborts, no commit record is written, the server is poisoned.
	fs.Add(faultfs.Fault{Op: faultfs.OpWrite, Path: "wal.log"})
	if !srv.pool.RunOne() {
		t.Fatal("no second job to run")
	}
	if st := decodeJobStatusRec(t, getBody(t, srv, jobsPath+id1)); st.State != "failed" {
		t.Fatalf("poisoned job state = %q, want failed", st.State)
	}
	// Every mutating endpoint answers 503 now; reads still work.
	submit(srv, 2, http.StatusServiceUnavailable)
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/testset", RotateRequest{
		Labels: labels, ActivePredictions: goodPredictions(t, labels, 0.9, 20),
	})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("rotate on poisoned server status = %d, want 503", rec.Code)
	}
	var m MetricsResponse
	if err := json.Unmarshal(getBody(t, srv, "/api/v1/metrics"), &m); err != nil {
		t.Fatal(err)
	}
	if m.WAL == nil || m.WAL.AppendErrors == 0 {
		t.Errorf("metrics must report the append errors: %+v", m.WAL)
	}
	// Crash (Close would try to compact through the bad disk; a poisoned
	// server skips that, but the abandon path is the harsher test).

	restarted, err := openTestTenant(g, dir, Options{Webhooks: notify.NewOutbox(), WALFS: fs}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer closeTestTenant(restarted)
	var history []CommitResponse
	if err := json.Unmarshal(getBody(t, restarted, "/api/v1/history"), &history); err != nil {
		t.Fatal(err)
	}
	if len(history) != 1 {
		t.Fatalf("recovered history has %d commits, want 1 (the aborted commit never happened)", len(history))
	}
	// The interrupted job's submit record survived, its commit record
	// didn't: it re-enqueues and runs exactly once.
	if st := decodeJobStatusRec(t, getBody(t, restarted, jobsPath+id1)); st.State != "queued" {
		t.Fatalf("interrupted job state after restart = %q, want queued", st.State)
	}
	if !restarted.pool.RunOne() {
		t.Fatal("interrupted job did not re-run")
	}
	if st := decodeJobStatusRec(t, getBody(t, restarted, jobsPath+id1)); st.State != "done" {
		t.Errorf("interrupted job final state = %q, want done", st.State)
	}
	if err := json.Unmarshal(getBody(t, restarted, "/api/v1/history"), &history); err != nil {
		t.Fatal(err)
	}
	if len(history) != 2 {
		t.Errorf("history after re-run has %d commits, want 2", len(history))
	}
}

// TestDurableAdminEndpoints covers the two admin surfaces in durable
// mode: the cache reset REPORTS the WAL and retry-queue counters without
// zeroing them (they are durability state, not caches), and the compact
// endpoint folds the log into a snapshot on demand.
func TestDurableAdminEndpoints(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	dir := t.TempDir()
	outbox := notify.NewOutbox()
	m, err := NewMulti(g, MultiOptions{DataDir: dir, Tenant: Options{Webhooks: outbox, CompactAt: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rec := doH(t, m, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
		CommitRequest: CommitRequest{Model: "m0", Predictions: goodPredictions(t, labels, 0.9, 10)},
		Webhook:       "http://hooks.local/ci",
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit status = %d", rec.Code)
	}
	var acc JobAcceptedResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	pollH(t, m, acc.Poll)
	waitQuiescent(t, m.Default(), 1)

	// The project's admin reset: the pre-reset snapshot carries the WAL
	// and webhook counters, and a follow-up metrics read shows them NOT
	// zeroed.
	const scoped = "/api/v1/projects/default/"
	rec = doH(t, m, http.MethodPost, scoped+"admin/reset-caches", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("reset status = %d", rec.Code)
	}
	var pre TenantMetrics
	if err := json.Unmarshal(rec.Body.Bytes(), &pre); err != nil {
		t.Fatal(err)
	}
	if pre.WAL == nil || pre.WAL.Appends == 0 {
		t.Errorf("reset snapshot must report WAL appends: %+v", pre.WAL)
	}
	if pre.WebhooksSent != 1 {
		t.Errorf("reset snapshot must report webhook traffic: %d", pre.WebhooksSent)
	}
	var mr MetricsResponse
	if err := json.Unmarshal(doH(t, m, http.MethodGet, scoped+"metrics", nil).Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.CommitsEvaluated != 0 {
		t.Errorf("commit counters must reset: %+v", mr.CommitsEvaluated)
	}
	if mr.WAL == nil || mr.WAL.Appends != pre.WAL.Appends {
		t.Errorf("WAL counters must survive the cache reset: %+v vs %+v", mr.WAL, pre.WAL)
	}
	if mr.WebhookRetry.Delivered != 1 || mr.WebhooksSent != pre.WebhooksSent {
		t.Errorf("retry counters must survive the cache reset: %+v, sent %d", mr.WebhookRetry, mr.WebhooksSent)
	}

	// The project's admin compact: the log folds into the snapshot and
	// empties.
	rec = doH(t, m, http.MethodPost, scoped+"admin/compact", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("compact status = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(doH(t, m, http.MethodGet, scoped+"metrics", nil).Body.Bytes(), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.WAL.Compactions == 0 || mr.WAL.SnapshotSeq == 0 || mr.WAL.SizeBytes != 0 {
		t.Errorf("post-compact WAL stats: %+v", mr.WAL)
	}
	if _, err := os.Stat(filepath.Join(dir, DefaultProject, "snapshot.json")); err != nil {
		t.Errorf("compaction left no snapshot: %v", err)
	}

	// On a non-durable control plane the endpoint is a 409.
	mem := newTestMulti(t, MultiOptions{})
	defer mem.Close()
	if rec := doH(t, mem, http.MethodPost, scoped+"admin/compact", nil); rec.Code != http.StatusConflict {
		t.Errorf("compact on in-memory server status = %d, want 409", rec.Code)
	}
}

// TestDurableAutoCompaction: once the log outgrows CompactAt, the next
// commit triggers a compaction inline; state survives the fold.
func TestDurableAutoCompaction(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	dir := t.TempDir()
	srv, err := openTestTenant(g, dir, Options{Webhooks: notify.NewOutbox(), CompactAt: 1}, false) // every commit exceeds 1 byte
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
			Model: fmt.Sprintf("m%d", i), Predictions: goodPredictions(t, labels, 0.9, int64(10+i)),
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("commit %d status = %d", i, rec.Code)
		}
	}
	var m MetricsResponse
	if err := json.Unmarshal(getBody(t, srv, "/api/v1/metrics"), &m); err != nil {
		t.Fatal(err)
	}
	if m.WAL.Compactions == 0 {
		t.Errorf("no automatic compaction happened: %+v", m.WAL)
	}
	history := getBody(t, srv, "/api/v1/history")
	// Crash after compaction: restart restores from the snapshot.
	restarted, err := openTestTenant(g, dir, Options{Webhooks: notify.NewOutbox(), CompactAt: 1}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer closeTestTenant(restarted)
	if got := getBody(t, restarted, "/api/v1/history"); !bytes.Equal(got, history) {
		t.Errorf("history changed across compacted restart:\n%s\n%s", got, history)
	}
}

// TestNewDurableValidation: bad genesis inputs fail a durable tenant
// before it opens a log.
func TestNewDurableValidation(t *testing.T) {
	g, _ := durableGenesis(t, 3, testSize)
	bad := g
	bad.ModelPredictions = bad.ModelPredictions[:3]
	if _, err := openTestTenant(bad, t.TempDir(), Options{}, false); err == nil {
		t.Error("mismatched genesis predictions must fail")
	}
	bad = g
	bad.Condition = "!!"
	if _, err := openTestTenant(bad, t.TempDir(), Options{}, false); err == nil {
		t.Error("bad condition must fail")
	}
}

// TestDurableRestoredJobRunsUnderPool is the regression test for the
// startup race: a job restored as queued must not execute before
// newTenant has wired the engine journal and notifier — a job committing
// against a nil journal would fsync a commit record with no audit
// records, and every subsequent recovery would fail the audit
// cross-check, bricking the data dir. A tenant joins the pool only after
// newTenant returns, so the shared pool's workers run the restored job
// with its full audit trail and a third start replays clean.
func TestDurableRestoredJobRunsUnderPool(t *testing.T) {
	dir := t.TempDir()
	_, labels := durableGenesis(t, 3, testSize)

	// Accept a job but never run it (manual pool), then crash.
	m := newTestMulti(t, MultiOptions{DataDir: dir, ManualPool: true})
	rec := doH(t, m, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
		CommitRequest: CommitRequest{
			Model: "m", Author: "dev", Message: "x",
			Predictions: goodPredictions(t, labels, 0.9, 30),
		},
	})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("async status = %d: %s", rec.Code, rec.Body.String())
	}
	var acc JobAcceptedResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	// Abandon without Close: the job is in the log as queued, unevaluated.

	// Reopen on the served path: the shared pool's workers execute the
	// restored job as soon as the tenant is attached.
	revived := newTestMulti(t, MultiOptions{DataDir: dir})
	var st JobStatusResponse
	if err := json.Unmarshal(pollH(t, revived, acc.Poll), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "done" {
		t.Fatalf("restored job = %+v, want done", st)
	}
	waitQuiescent(t, revived.Default(), 0)
	history := bodyOf(t, revived, "/api/v1/history")
	// Abandon again without Close (no compaction): the third start must
	// replay the raw log, including the restored job's charge/reveal
	// records written by the revived process.
	third := newTestMulti(t, MultiOptions{DataDir: dir, ManualPool: true})
	defer third.Close()
	if got := bodyOf(t, third, "/api/v1/history"); !bytes.Equal(history, got) {
		t.Errorf("history diverged across restart:\n  before: %s\n  after:  %s", history, got)
	}
}

// TestDurableGenesisMismatch: a data directory is bound to the config
// fingerprint it was created under — restarting with different flags
// (reliability, testset size, ...) must fail loudly at recovery, on both
// the raw-log path (genesis record) and the post-compaction path
// (snapshot), while the original genesis keeps working.
func TestDurableGenesisMismatch(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	dir := t.TempDir()
	srv, err := openTestTenant(g, dir, Options{Webhooks: notify.NewOutbox()}, false)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "m0", Author: "dev", Message: "x",
		Predictions: goodPredictions(t, labels, 0.9, 10),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("commit status = %d: %s", rec.Code, rec.Body.String())
	}
	waitQuiescent(t, srv, 0)
	// Abandon without Close: the genesis record is still in the raw log.

	badRel := g
	badRel.Reliability = 0.95
	badSize := g
	badSize.Labels = g.Labels[:len(g.Labels)-2]
	badSize.ModelPredictions = g.ModelPredictions[:len(g.ModelPredictions)-2]
	for name, bad := range map[string]Genesis{"reliability": badRel, "testset size": badSize} {
		if s, err := openTestTenant(bad, dir, Options{}, false); err == nil {
			closeTestTenant(s)
			t.Fatalf("restart with different %s accepted the old data dir", name)
		} else if !strings.Contains(err.Error(), "fingerprint") {
			t.Errorf("%s mismatch error = %v, want a fingerprint error", name, err)
		}
	}

	// The original genesis still recovers; Close compacts, moving the
	// fingerprint into the snapshot.
	same, err := openTestTenant(g, dir, Options{Webhooks: notify.NewOutbox()}, false)
	if err != nil {
		t.Fatal(err)
	}
	closeTestTenant(same)
	if s, err := openTestTenant(badRel, dir, Options{}, false); err == nil {
		closeTestTenant(s)
		t.Fatal("post-compaction restart with a different config accepted the old data dir")
	} else if !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("snapshot mismatch error = %v, want a fingerprint error", err)
	}
	final, err := openTestTenant(g, dir, Options{Webhooks: notify.NewOutbox()}, false)
	if err != nil {
		t.Fatal(err)
	}
	closeTestTenant(final)
}
