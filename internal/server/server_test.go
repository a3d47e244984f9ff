package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/planner"
	"github.com/easeml/ci/internal/queue"
	"github.com/easeml/ci/internal/script"
)

const (
	testClasses = 4
	testSize    = 700
)

func testLabels() []int {
	labels := make([]int, testSize)
	for i := range labels {
		labels[i] = i % testClasses
	}
	return labels
}

func newTestServer(t *testing.T, adaptKind script.AdaptivityKind) (*Server, []int) {
	t.Helper()
	return newServerWith(t, adaptKind, 3, testSize, Options{})
}

// testClock is the harness clock of tests that step a tenant by hand.
// It stands still: a webhook is due at once, and a retry after a backoff
// never comes due.
func testClock() time.Time { return time.Unix(0, 0) }

// openTestTenant builds a tenant from g (durable under dir, in memory
// when dir is "") and attaches it to a private pool as NewMulti attaches
// one to the shared pool: a one-worker pool, or under a harness clock
// (opts.Clock) a pool that runs nothing until the test calls
// srv.pool.RunOne. Shut it down with closeTestTenant.
func openTestTenant(g Genesis, dir string, opts Options) (*Server, error) {
	srv, err := newTenant(g, dir, opts)
	if err != nil {
		return nil, err
	}
	pool := queue.NewPool(queue.PoolOptions{Workers: 1, Manual: opts.Clock != nil})
	if err := attachTenant(pool, DefaultProject, srv, 1); err != nil {
		pool.Close()
		srv.Close()
		return nil, err
	}
	return srv, nil
}

// closeTestTenant shuts a test tenant down in Multi.Close's order: stop
// intake, let the pool drain every accepted job, then close the tenant.
func closeTestTenant(s *Server) {
	s.CloseIntake()
	s.pool.Close()
	s.Close()
}

// serveTenant answers r from one tenant's rows below the alias prefix,
// as Multi answers them for a project — for tests that drive a tenant
// built without a control plane. Its metrics are the body a project's
// scoped metrics path answers.
func serveTenant(s *Server, w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, apiPrefix)
	rt := lookupRoute(rest)
	switch {
	case rt == nil || (rt.tenant == nil && rest != "metrics"):
		http.NotFound(w, r)
	case !rt.allows(w, r):
	case rt.tenant == nil:
		writeJSON(w, http.StatusOK, MetricsResponse{sharedCacheStats(), s.tenantMetrics(DefaultProject, "active")})
	default:
		rt.tenant(s, w, r, scope{id: DefaultProject, prefix: apiPrefix, rest: rest})
	}
}

// tenantHandler is serveTenant as an http.Handler.
func tenantHandler(s *Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { serveTenant(s, w, r) })
}

func doJSON(t *testing.T, srv *Server, method, path string, body any) (*httptest.ResponseRecorder, map[string]json.RawMessage) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	serveTenant(srv, rec, req)
	out := map[string]json.RawMessage{}
	if rec.Body.Len() > 0 && rec.Body.Bytes()[0] == '{' {
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
			t.Fatalf("bad JSON response: %v: %s", err, rec.Body.String())
		}
	}
	return rec, out
}

func goodPredictions(t *testing.T, labels []int, acc float64, seed int64) []int {
	t.Helper()
	preds, err := model.SimulatedPredictions(labels, testClasses, acc, seed)
	if err != nil {
		t.Fatal(err)
	}
	return preds
}

func TestPlanEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, script.AdaptivityFull)
	rec, _ := doJSON(t, srv, http.MethodGet, "/api/v1/plan", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var plan PlanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &plan); err != nil {
		t.Fatal(err)
	}
	if plan.Kind == "" || plan.Condition != "n > 0.6 +/- 0.1" || plan.Steps != 3 {
		t.Errorf("plan = %+v", plan)
	}
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/plan", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST plan status = %d", rec.Code)
	}
}

func TestCommitAndStatusFlow(t *testing.T) {
	srv, labels := newTestServer(t, script.AdaptivityFull)
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "good", Author: "dev", Message: "better",
		Predictions: goodPredictions(t, labels, 0.9, 2),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("commit status = %d: %s", rec.Code, rec.Body.String())
	}
	var res CommitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Signal || res.Truth != "True" || res.Pass == nil || !*res.Pass {
		t.Errorf("commit response = %+v", res)
	}
	if res.Estimates["n"] < 0.85 {
		t.Errorf("estimates = %v", res.Estimates)
	}

	var status StatusResponse
	rec, _ = doJSON(t, srv, http.MethodGet, "/api/v1/status", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.ActiveModel != "good" || status.BudgetUsed != 1 || status.Commits != 1 {
		t.Errorf("status = %+v", status)
	}

	rec, _ = doJSON(t, srv, http.MethodGet, "/api/v1/history", nil)
	var history []CommitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &history); err != nil {
		t.Fatal(err)
	}
	if len(history) != 1 || history[0].CommitID != res.CommitID {
		t.Errorf("history = %+v", history)
	}
}

func TestNonAdaptiveModeHidesTruth(t *testing.T) {
	srv, labels := newTestServer(t, script.AdaptivityNone)
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "weak", Predictions: goodPredictions(t, labels, 0.3, 3),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("commit status = %d: %s", rec.Code, rec.Body.String())
	}
	var res CommitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Signal {
		t.Error("non-adaptive signal must be accept")
	}
	if res.Truth != "" || res.Pass != nil || res.Estimates != nil {
		t.Errorf("non-adaptive response leaks the truth: %+v", res)
	}
}

func TestCommitValidation(t *testing.T) {
	srv, labels := newTestServer(t, script.AdaptivityFull)
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "short", Predictions: []int{1, 2, 3},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("short predictions status = %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Predictions: goodPredictions(t, labels, 0.9, 2),
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing model name status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/commit", bytes.NewBufferString("{nope"))
	rec2 := httptest.NewRecorder()
	serveTenant(srv, rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON status = %d", rec2.Code)
	}
	rec, _ = doJSON(t, srv, http.MethodGet, "/api/v1/commit", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET commit status = %d", rec.Code)
	}
}

func TestBudgetExhaustionAndRotation(t *testing.T) {
	srv, labels := newTestServer(t, script.AdaptivityFull)
	// Burn the 3-step budget.
	for i := 0; i < 3; i++ {
		rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
			Model: fmt.Sprintf("m%d", i), Predictions: goodPredictions(t, labels, 0.9, int64(10+i)),
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("commit %d status = %d", i, rec.Code)
		}
	}
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "overflow", Predictions: goodPredictions(t, labels, 0.9, 20),
	})
	if rec.Code != http.StatusConflict {
		t.Fatalf("post-budget commit status = %d, want 409", rec.Code)
	}

	// Rotate a fresh testset in.
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/testset", RotateRequest{
		Labels:            labels,
		ActivePredictions: goodPredictions(t, labels, 0.9, 21),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("rotate status = %d: %s", rec.Code, rec.Body.String())
	}
	var status StatusResponse
	rec, _ = doJSON(t, srv, http.MethodGet, "/api/v1/status", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &status); err != nil {
		t.Fatal(err)
	}
	if status.TestsetGeneration != 2 || !status.CanEvaluate {
		t.Errorf("post-rotation status = %+v", status)
	}

	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "fresh", Predictions: goodPredictions(t, labels, 0.9, 22),
	})
	if rec.Code != http.StatusOK {
		t.Errorf("post-rotation commit status = %d", rec.Code)
	}
}

func TestRotateValidation(t *testing.T) {
	srv, labels := newTestServer(t, script.AdaptivityFull)
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/testset", RotateRequest{})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty rotate status = %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/testset", RotateRequest{
		Labels: []int{0, 99}, ActivePredictions: []int{0, 0},
	})
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "label 99 out of range at 1") {
		t.Errorf("bad label rotate status = %d: %s", rec.Code, rec.Body.String())
	}
	rec, _ = doJSON(t, srv, http.MethodGet, "/api/v1/testset", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET testset status = %d", rec.Code)
	}
	_ = labels
}

// TestNewValidation: a tenant cannot start from the zero Genesis,
// in-memory or durable.
func TestNewValidation(t *testing.T) {
	for _, dir := range []string{"", t.TempDir()} {
		if _, err := openTestTenant(Genesis{}, dir, Options{}); err == nil {
			t.Errorf("zero genesis (data dir %q) should fail", dir)
		}
	}
}

func TestPlanServedFromCache(t *testing.T) {
	srv, _ := newTestServer(t, script.AdaptivityFull)
	before := planner.Default.Stats()
	rec, _ := doJSON(t, srv, http.MethodGet, "/api/v1/plan", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("first plan status = %d: %s", rec.Code, rec.Body.String())
	}
	mid := planner.Default.Stats()
	rec2, _ := doJSON(t, srv, http.MethodGet, "/api/v1/plan", nil)
	if rec2.Code != http.StatusOK {
		t.Fatalf("second plan status = %d: %s", rec2.Code, rec2.Body.String())
	}
	after := planner.Default.Stats()
	if after.PlanHits <= mid.PlanHits {
		t.Errorf("second identical plan request did not hit the cache: before=%+v mid=%+v after=%+v",
			before, mid, after)
	}
	if !bytes.Equal(rec.Body.Bytes(), rec2.Body.Bytes()) {
		t.Errorf("cached plan differs from computed plan:\n%s\n%s", rec.Body.String(), rec2.Body.String())
	}
}

func TestPlanQueryParameters(t *testing.T) {
	srv, _ := newTestServer(t, script.AdaptivityFull)
	rec, _ := doJSON(t, srv, http.MethodGet,
		"/api/v1/plan?steps=8&reliability=0.999&adaptivity=none", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d: %s", rec.Code, rec.Body.String())
	}
	var plan PlanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &plan); err != nil {
		t.Fatal(err)
	}
	if plan.Steps != 8 || plan.Reliability != 0.999 {
		t.Errorf("overridden plan = %+v", plan)
	}
	// The configured plan must be untouched by ad-hoc queries.
	rec, _ = doJSON(t, srv, http.MethodGet, "/api/v1/plan", nil)
	var base PlanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &base); err != nil {
		t.Fatal(err)
	}
	if base.Steps != 3 {
		t.Errorf("configured plan changed: %+v", base)
	}
	// Bad parameters are a client error.
	for _, q := range []string{"steps=no", "reliability=x", "adaptivity=bogus", "condition=%21%21"} {
		rec, _ = doJSON(t, srv, http.MethodGet, "/api/v1/plan?"+q, nil)
		if rec.Code != http.StatusBadRequest && rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("query %q status = %d, want 4xx", q, rec.Code)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, script.AdaptivityFull)
	doJSON(t, srv, http.MethodGet, "/api/v1/plan", nil)
	doJSON(t, srv, http.MethodGet, "/api/v1/plan", nil)
	rec, _ := doJSON(t, srv, http.MethodGet, "/api/v1/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d: %s", rec.Code, rec.Body.String())
	}
	var m MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.PlanCache.PlanHits == 0 {
		t.Errorf("metrics should report plan-cache hits after repeated plan requests: %+v", m)
	}
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/metrics", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("POST metrics status = %d", rec.Code)
	}
}

func TestPlanUnknownQueryParamRejected(t *testing.T) {
	srv, _ := newTestServer(t, script.AdaptivityFull)
	// A typo'd override must not silently return a default-options plan.
	for _, q := range []string{"foo=1", "steps=8&foo=1", "Condition=n+%3E+0.5+%2B%2F-+0.1"} {
		rec, _ := doJSON(t, srv, http.MethodGet, "/api/v1/plan?"+q, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("query %q status = %d, want 400", q, rec.Code)
		}
	}
}

func TestPlanConfigEqualParamsUseEngineOptions(t *testing.T) {
	srv, _ := newTestServer(t, script.AdaptivityFull)
	// Explicit parameters equal to the server's own config (and empty
	// overrides) must resolve to the config itself and be served exactly
	// like the parameterless request — same plan, same cache entry.
	base, _ := doJSON(t, srv, http.MethodGet, "/api/v1/plan", nil)
	if base.Code != http.StatusOK {
		t.Fatalf("base plan status = %d: %s", base.Code, base.Body.String())
	}
	mid := planner.Default.Stats()
	for _, q := range []string{"steps=3", "condition=", "reliability=0.99&adaptivity=full", "condition=n+%3E+0.6+%2B%2F-+0.1"} {
		rec, _ := doJSON(t, srv, http.MethodGet, "/api/v1/plan?"+q, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("query %q status = %d: %s", q, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), base.Body.Bytes()) {
			t.Errorf("query %q plan differs from the engine's own:\n%s\n%s", q, rec.Body.String(), base.Body.String())
		}
	}
	after := planner.Default.Stats()
	if after.PlanMisses != mid.PlanMisses {
		t.Errorf("config-equal queries recomputed plans: %+v -> %+v", mid, after)
	}
	if after.PlanHits != mid.PlanHits+4 {
		t.Errorf("config-equal queries should all hit the engine's cache entry: %+v -> %+v", mid, after)
	}
}

func TestPlanBatchEndpoint(t *testing.T) {
	srv, _ := newTestServer(t, script.AdaptivityFull)
	rel := 0.999
	steps := 8
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/plan/batch", BatchPlanRequest{
		Queries: []PlanQuery{
			{}, // server's own plan
			{Reliability: &rel, Steps: &steps, Adaptivity: "none"},
			{Condition: "!!"}, // per-item error
		},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("batch status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp BatchPlanResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 3 {
		t.Fatalf("got %d results, want 3", len(resp.Results))
	}
	if r := resp.Results[0]; r.Error != "" || r.Plan == nil || r.Plan.Steps != 3 || r.Plan.Condition != "n > 0.6 +/- 0.1" {
		t.Errorf("result 0 = %+v", r)
	}
	if r := resp.Results[1]; r.Error != "" || r.Plan == nil || r.Plan.Steps != 8 || r.Plan.Reliability != 0.999 {
		t.Errorf("result 1 = %+v", r)
	}
	if r := resp.Results[2]; r.Error == "" || r.Plan != nil {
		t.Errorf("result 2 should carry a per-item error, got %+v", r)
	}
	// The batch's parameterless slot must agree with GET /api/v1/plan.
	single, _ := doJSON(t, srv, http.MethodGet, "/api/v1/plan", nil)
	var sp PlanResponse
	if err := json.Unmarshal(single.Body.Bytes(), &sp); err != nil {
		t.Fatal(err)
	}
	if *resp.Results[0].Plan != sp {
		t.Errorf("batch plan %+v != single plan %+v", *resp.Results[0].Plan, sp)
	}
}

func TestPlanBatchValidation(t *testing.T) {
	srv, _ := newTestServer(t, script.AdaptivityFull)
	rec, _ := doJSON(t, srv, http.MethodGet, "/api/v1/plan/batch", nil)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET batch status = %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/plan/batch", BatchPlanRequest{})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch status = %d", rec.Code)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/v1/plan/batch", bytes.NewBufferString("{nope"))
	rec2 := httptest.NewRecorder()
	serveTenant(srv, rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("malformed batch status = %d", rec2.Code)
	}
	// A typo'd field must not silently plan with the default value.
	req = httptest.NewRequest(http.MethodPost, "/api/v1/plan/batch",
		bytes.NewBufferString(`{"queries":[{"relibility":0.9999}]}`))
	rec2 = httptest.NewRecorder()
	serveTenant(srv, rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("typo'd field batch status = %d, want 400", rec2.Code)
	}
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/plan/batch", BatchPlanRequest{
		Queries: make([]PlanQuery, MaxBatchQueries+1),
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch status = %d", rec.Code)
	}
}

// TestConcurrentPlanBatchCommit hammers the read-only plan paths (single
// and batch) while commits and rotations mutate the engine; run under
// -race this validates that plan serving never touches engine state
// without the lock and that the sharded caches hold up under fire.
func TestConcurrentPlanBatchCommit(t *testing.T) {
	srv, labels := newTestServer(t, script.AdaptivityFull)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				path := "/api/v1/plan"
				if i%2 == 0 {
					path = fmt.Sprintf("/api/v1/plan?steps=%d", 2+(g+i)%4)
				}
				req := httptest.NewRequest(http.MethodGet, path, nil)
				rec := httptest.NewRecorder()
				serveTenant(srv, rec, req)
				if rec.Code != http.StatusOK {
					panic(fmt.Sprintf("plan status %d: %s", rec.Code, rec.Body.String()))
				}
			}
		}()
	}
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				steps := 2 + (g+i)%3
				var buf bytes.Buffer
				if err := json.NewEncoder(&buf).Encode(BatchPlanRequest{
					Queries: []PlanQuery{{}, {Steps: &steps}, {Adaptivity: "none"}},
				}); err != nil {
					panic(err)
				}
				req := httptest.NewRequest(http.MethodPost, "/api/v1/plan/batch", &buf)
				rec := httptest.NewRecorder()
				serveTenant(srv, rec, req)
				if rec.Code != http.StatusOK {
					panic(fmt.Sprintf("batch status %d: %s", rec.Code, rec.Body.String()))
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 9; i++ {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(CommitRequest{
				Model:       fmt.Sprintf("m%d", i),
				Predictions: goodPredictions(t, labels, 0.9, int64(100+i)),
			}); err != nil {
				panic(err)
			}
			req := httptest.NewRequest(http.MethodPost, "/api/v1/commit", &buf)
			rec := httptest.NewRecorder()
			serveTenant(srv, rec, req)
			switch rec.Code {
			case http.StatusOK:
			case http.StatusConflict:
				// Budget exhausted: rotate a fresh testset and keep going.
				var rbuf bytes.Buffer
				if err := json.NewEncoder(&rbuf).Encode(RotateRequest{
					Labels:            labels,
					ActivePredictions: goodPredictions(t, labels, 0.9, int64(200+i)),
				}); err != nil {
					panic(err)
				}
				rreq := httptest.NewRequest(http.MethodPost, "/api/v1/testset", &rbuf)
				rrec := httptest.NewRecorder()
				serveTenant(srv, rrec, rreq)
				if rrec.Code != http.StatusOK {
					panic(fmt.Sprintf("rotate status %d: %s", rrec.Code, rrec.Body.String()))
				}
			default:
				panic(fmt.Sprintf("commit status %d: %s", rec.Code, rec.Body.String()))
			}
		}
	}()
	wg.Wait()
	// The metrics endpoint must reflect the traffic without racing it.
	rec, _ := doJSON(t, srv, http.MethodGet, "/api/v1/metrics", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status = %d", rec.Code)
	}
	var m MetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m.PlanCache.PlanHits == 0 {
		t.Errorf("concurrent identical plan queries should have hit the cache: %+v", m)
	}
}

// TestConcurrentAsyncCommitHammer widens the PR-2 hammer to the async
// pipeline: async submitters (some with webhooks), job pollers, job
// cancelers, synchronous committers, and testset rotation all race. Run
// under -race; the postcondition is the queue's core guarantee — every
// accepted job reaches a terminal state exactly once.
func TestConcurrentAsyncCommitHammer(t *testing.T) {
	outbox := notify.NewOutbox()
	srv, labels := newServerWith(t, script.AdaptivityFull, 8, 900, Options{Webhooks: outbox})

	var mu sync.Mutex
	var accepted []string
	webhookJobs := map[string]bool{}
	record := func(id string, hooked bool) {
		mu.Lock()
		accepted = append(accepted, id)
		if hooked {
			webhookJobs[id] = true
		}
		mu.Unlock()
	}
	randomAccepted := func(k int) (string, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(accepted) == 0 {
			return "", false
		}
		return accepted[k%len(accepted)], true
	}

	var wg sync.WaitGroup
	// Async submitters: every third job subscribes a webhook.
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				hook := ""
				if i%3 == 0 {
					hook = "http://hooks.local/" + fmt.Sprint(g)
				}
				var buf bytes.Buffer
				if err := json.NewEncoder(&buf).Encode(AsyncCommitRequest{
					CommitRequest: CommitRequest{
						Model:       fmt.Sprintf("a%d-%d", g, i),
						Predictions: goodPredictions(t, labels, 0.9, int64(300+10*g+i)),
					},
					Webhook: hook,
				}); err != nil {
					panic(err)
				}
				req := httptest.NewRequest(http.MethodPost, "/api/v1/commit/async", &buf)
				rec := httptest.NewRecorder()
				serveTenant(srv, rec, req)
				if rec.Code != http.StatusAccepted {
					panic(fmt.Sprintf("async submit status %d: %s", rec.Code, rec.Body.String()))
				}
				var acc JobAcceptedResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
					panic(err)
				}
				record(acc.JobID, hook != "")
			}
		}()
	}
	// Pollers: hammer the job-status endpoint with whatever IDs exist.
	for g := 0; g < 2; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				id, ok := randomAccepted(g*7 + i)
				if !ok {
					continue
				}
				req := httptest.NewRequest(http.MethodGet, jobsPath+id, nil)
				rec := httptest.NewRecorder()
				serveTenant(srv, rec, req)
				if rec.Code != http.StatusOK && rec.Code != http.StatusNotFound {
					panic(fmt.Sprintf("poll status %d: %s", rec.Code, rec.Body.String()))
				}
			}
		}()
	}
	// Canceler: cancels race execution; any of 200/404/409 is legal.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 15; i++ {
			id, ok := randomAccepted(3 * i)
			if !ok {
				continue
			}
			req := httptest.NewRequest(http.MethodDelete, jobsPath+id, nil)
			rec := httptest.NewRecorder()
			serveTenant(srv, rec, req)
			switch rec.Code {
			case http.StatusOK, http.StatusNotFound, http.StatusConflict:
			default:
				panic(fmt.Sprintf("cancel status %d: %s", rec.Code, rec.Body.String()))
			}
		}
	}()
	// Synchronous committer + rotator: the sync path rides the same
	// queue; budget exhaustion rotates a fresh testset in.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(CommitRequest{
				Model:       fmt.Sprintf("s%d", i),
				Predictions: goodPredictions(t, labels, 0.9, int64(400+i)),
			}); err != nil {
				panic(err)
			}
			req := httptest.NewRequest(http.MethodPost, "/api/v1/commit", &buf)
			rec := httptest.NewRecorder()
			serveTenant(srv, rec, req)
			switch rec.Code {
			case http.StatusOK:
			case http.StatusConflict:
				var rbuf bytes.Buffer
				if err := json.NewEncoder(&rbuf).Encode(RotateRequest{
					Labels:            labels,
					ActivePredictions: goodPredictions(t, labels, 0.9, int64(500+i)),
				}); err != nil {
					panic(err)
				}
				rreq := httptest.NewRequest(http.MethodPost, "/api/v1/testset", &rbuf)
				rrec := httptest.NewRecorder()
				serveTenant(srv, rrec, rreq)
				if rrec.Code != http.StatusOK {
					panic(fmt.Sprintf("rotate status %d: %s", rrec.Code, rrec.Body.String()))
				}
			default:
				panic(fmt.Sprintf("sync commit status %d: %s", rec.Code, rec.Body.String()))
			}
		}
	}()
	wg.Wait()

	// Drain: wait for the queue to go quiet, then check the exactly-once
	// terminal guarantee through the public metrics.
	deadline := time.Now().Add(10 * time.Second)
	var m MetricsResponse
	for {
		rec, _ := doJSON(t, srv, http.MethodGet, "/api/v1/metrics", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("metrics status = %d", rec.Code)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		if m.CommitQueue.Pending == 0 && m.CommitQueue.Running == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("queue never drained: %+v", m.CommitQueue)
		}
		time.Sleep(time.Millisecond)
	}
	q := m.CommitQueue
	if q.Completed+q.Failed+q.Canceled != q.Submitted {
		t.Errorf("terminal jobs %d != submitted %d: %+v", q.Completed+q.Failed+q.Canceled, q.Submitted, q)
	}
	// Every async-accepted job is individually terminal.
	mu.Lock()
	ids := append([]string(nil), accepted...)
	hooked := len(webhookJobs)
	mu.Unlock()
	for _, id := range ids {
		rec, _ := doJSON(t, srv, http.MethodGet, jobsPath+id, nil)
		if rec.Code != http.StatusOK {
			t.Errorf("job %s poll status = %d", id, rec.Code)
			continue
		}
		st := decodeJobStatus(t, rec)
		if st.State != "done" && st.State != "failed" {
			t.Errorf("job %s not terminal: %+v", id, st)
		}
	}
	// Webhook deliveries: exactly one callback per subscribed job
	// (deliveries are async; wait for the expected count first).
	perJob := map[string]int{}
	for _, h := range waitForWebhooks(t, outbox, hooked) {
		var st JobStatusResponse
		if err := json.Unmarshal([]byte(h.Body), &st); err != nil {
			t.Fatalf("webhook body: %v", err)
		}
		perJob[st.JobID]++
	}
	if len(perJob) != hooked {
		t.Errorf("webhook deliveries reached %d jobs, want %d", len(perJob), hooked)
	}
	for id, n := range perJob {
		if n != 1 {
			t.Errorf("job %s delivered %d times", id, n)
		}
	}
}

// TestCommitEvalMetrics: successful commits bump the evaluation counters
// (count and cumulative nanoseconds), failed submissions don't, and the
// admin cache reset clears both while reporting the pre-reset values.
func TestCommitEvalMetrics(t *testing.T) {
	mp := newTestMulti(t, MultiOptions{})
	defer mp.Close()
	srv := mp.Default()
	_, labels := durableGenesis(t, 3, testSize)
	metrics := func() MetricsResponse {
		rec, _ := doJSON(t, srv, http.MethodGet, "/api/v1/metrics", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("metrics status = %d", rec.Code)
		}
		var m MetricsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	if m := metrics(); m.CommitsEvaluated != 0 || m.CommitEvalNsTotal != 0 {
		t.Fatalf("fresh server counters: %+v", m)
	}
	for i := 0; i < 2; i++ {
		rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
			Model: fmt.Sprintf("m%d", i), Author: "dev", Message: "x",
			Predictions: goodPredictions(t, labels, 0.9, int64(2+i)),
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("commit %d status = %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	// A rejected submission (wrong length) must not count as evaluated.
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "bad", Author: "dev", Message: "x", Predictions: []int{1, 2, 3},
	})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad commit status = %d", rec.Code)
	}
	m := metrics()
	if m.CommitsEvaluated != 2 {
		t.Errorf("commits_evaluated = %d, want 2", m.CommitsEvaluated)
	}
	if m.CommitEvalNsTotal == 0 {
		t.Error("commit_eval_ns_total must be nonzero after evaluations")
	}
	// The project's admin reset reports the pre-reset counters and
	// clears them.
	rec = doH(t, mp, http.MethodPost, "/api/v1/projects/default/admin/reset-caches", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("reset status = %d", rec.Code)
	}
	var pre TenantMetrics
	if err := json.Unmarshal(rec.Body.Bytes(), &pre); err != nil {
		t.Fatal(err)
	}
	if pre.CommitsEvaluated != 2 || pre.CommitEvalNsTotal == 0 {
		t.Errorf("pre-reset snapshot: %+v", pre)
	}
	if m := metrics(); m.CommitsEvaluated != 0 || m.CommitEvalNsTotal != 0 {
		t.Errorf("counters survived reset: %+v", m)
	}
}
