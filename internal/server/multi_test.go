package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/planner"
	"github.com/easeml/ci/internal/script"
)

// doH is doJSON for any handler (Multi or Server).
func doH(t *testing.T, h http.Handler, method, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// pollH polls one job on any handler until terminal, returning the final
// response bytes.
func pollH(t *testing.T, h http.Handler, pollPath string) []byte {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		rec := doH(t, h, http.MethodGet, pollPath, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll %s status = %d: %s", pollPath, rec.Code, rec.Body.String())
		}
		var st JobStatusResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State == "done" || st.State == "failed" {
			return append([]byte(nil), rec.Body.Bytes()...)
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("job at %s never reached a terminal state", pollPath)
	return nil
}

// testSpec shapes the standard test genesis into a registerable project
// spec, with per-project variation via the model-prediction seed.
func testSpec(t *testing.T, steps, size int, seed int64) ProjectSpec {
	t.Helper()
	labels := make([]int, size)
	for i := range labels {
		labels[i] = i % testClasses
	}
	return ProjectSpec{
		Condition:        "n > 0.6 +/- 0.1",
		Reliability:      0.99,
		Steps:            steps,
		Labels:           labels,
		Classes:          testClasses,
		ModelName:        "h0",
		ModelPredictions: goodPredictions(t, labels, 0.5, seed),
	}
}

func newTestMulti(t *testing.T, opts MultiOptions) *Multi {
	t.Helper()
	g, _ := durableGenesis(t, 3, testSize)
	if opts.Tenant.Webhooks == nil {
		opts.Tenant.Webhooks = notify.NewOutbox()
	}
	opts.Tenant.WALNoSync = true
	m, err := NewMulti(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMultiAliasByteEquivalence is the refactor's acceptance bar: every
// pre-projects API path served by the control plane is byte-for-byte what
// a standalone single-tenant server answers for the same traffic, and the
// scoped /api/v1/projects/default/... spelling matches the alias exactly.
func TestMultiAliasByteEquivalence(t *testing.T) {
	oracle, labels := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{Webhooks: notify.NewOutbox()}, false)
	defer closeTestTenant(oracle)
	m := newTestMulti(t, MultiOptions{})
	defer m.Close()

	step := func(desc, method, path string, body any) {
		t.Helper()
		want := doH(t, tenantHandler(oracle), method, path, body)
		got := doH(t, m, method, path, body)
		if want.Code != got.Code || !bytes.Equal(want.Body.Bytes(), got.Body.Bytes()) {
			t.Fatalf("%s: alias diverged from single-tenant server\n  oracle: %d %s\n  multi:  %d %s",
				desc, want.Code, want.Body.String(), got.Code, got.Body.String())
		}
		// The scoped spelling runs the same tenant handler for GETs
		// (POSTs are state mutations and cannot be replayed).
		if method == http.MethodGet {
			scoped := doH(t, m, method, "/api/v1/projects/default"+strings.TrimPrefix(path, "/api/v1"), body)
			if scoped.Code != got.Code || !bytes.Equal(scoped.Body.Bytes(), got.Body.Bytes()) {
				t.Fatalf("%s: scoped path diverged from alias:\n  alias:  %s\n  scoped: %s",
					desc, got.Body.String(), scoped.Body.String())
			}
		}
	}

	step("plan", http.MethodGet, "/api/v1/plan", nil)
	step("plan override", http.MethodGet, "/api/v1/plan?steps=5", nil)
	step("plan bad param", http.MethodGet, "/api/v1/plan?bogus=1", nil)
	step("status", http.MethodGet, "/api/v1/status", nil)
	five := 5
	step("plan batch", http.MethodPost, "/api/v1/plan/batch", BatchPlanRequest{
		Queries: []PlanQuery{{}, {Steps: &five}},
	})
	step("commit m0", http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "m0", Author: "dev", Message: "x",
		Predictions: goodPredictions(t, labels, 0.9, 10),
	})
	step("commit no model", http.MethodPost, "/api/v1/commit", CommitRequest{
		Predictions: goodPredictions(t, labels, 0.9, 10),
	})

	// Async: accepted bodies must match (same sequential job IDs), then
	// the terminal poll bodies must match.
	async := AsyncCommitRequest{CommitRequest: CommitRequest{
		Model: "a0", Author: "dev", Message: "y",
		Predictions: goodPredictions(t, labels, 0.9, 30),
	}}
	wantAcc := doH(t, tenantHandler(oracle), http.MethodPost, "/api/v1/commit/async", async)
	gotAcc := doH(t, m, http.MethodPost, "/api/v1/commit/async", async)
	if wantAcc.Code != http.StatusAccepted || gotAcc.Code != http.StatusAccepted ||
		!bytes.Equal(wantAcc.Body.Bytes(), gotAcc.Body.Bytes()) {
		t.Fatalf("async accept diverged:\n  oracle: %d %s\n  multi:  %d %s",
			wantAcc.Code, wantAcc.Body.String(), gotAcc.Code, gotAcc.Body.String())
	}
	var acc JobAcceptedResponse
	if err := json.Unmarshal(gotAcc.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	wantPoll := pollH(t, tenantHandler(oracle), acc.Poll)
	gotPoll := pollH(t, m, acc.Poll)
	if !bytes.Equal(wantPoll, gotPoll) {
		t.Fatalf("job poll diverged:\n  oracle: %s\n  multi:  %s", wantPoll, gotPoll)
	}

	step("history", http.MethodGet, "/api/v1/history", nil)
	step("rotate", http.MethodPost, "/api/v1/testset", RotateRequest{
		Labels:            labels,
		ActivePredictions: goodPredictions(t, labels, 0.9, 20),
	})
	step("status after rotate", http.MethodGet, "/api/v1/status", nil)
	step("commit m1", http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "m1", Author: "dev", Message: "z",
		Predictions: goodPredictions(t, labels, 0.9, 11),
	})
	step("history final", http.MethodGet, "/api/v1/history", nil)
	step("poll sync job", http.MethodGet, jobsPath+"job-1", nil)
	step("poll unknown job", http.MethodGet, jobsPath+"nope", nil)
}

func TestMultiProjectLifecycle(t *testing.T) {
	m := newTestMulti(t, MultiOptions{})
	defer m.Close()

	spec := testSpec(t, 3, testSize, 2)
	create := func(id string, sp ProjectSpec) *httptest.ResponseRecorder {
		return doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: id, ProjectSpec: sp})
	}
	if rec := create("team-a", spec); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := create("team-a", spec); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate create = %d", rec.Code)
	}
	if rec := create("Bad ID", spec); rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid ID = %d", rec.Code)
	}
	if rec := create("default", spec); rec.Code != http.StatusConflict {
		t.Fatalf("reserved ID = %d", rec.Code)
	}
	bad := spec
	bad.Condition = "this is not a condition"
	if rec := create("team-b", bad); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad spec = %d: %s", rec.Code, rec.Body.String())
	}

	var list ProjectListResponse
	if err := json.Unmarshal(doH(t, m, http.MethodGet, "/api/v1/projects", nil).Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Projects) != 2 || list.Projects[0].ID != "default" || !list.Projects[0].Default || list.Projects[1].ID != "team-a" {
		t.Fatalf("list = %+v", list.Projects)
	}

	// The new tenant serves the full API under its scope.
	if rec := doH(t, m, http.MethodGet, "/api/v1/projects/team-a/status", nil); rec.Code != http.StatusOK {
		t.Fatalf("scoped status = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := doH(t, m, http.MethodGet, "/api/v1/projects/team-a/metrics", nil); rec.Code != http.StatusOK {
		t.Fatalf("scoped metrics = %d", rec.Code)
	}
	if rec := doH(t, m, http.MethodGet, "/api/v1/projects/ghost/status", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown project status = %d", rec.Code)
	}

	// Suspension blocks new work, keeps reads.
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects/team-a/suspend", nil); rec.Code != http.StatusOK {
		t.Fatalf("suspend = %d: %s", rec.Code, rec.Body.String())
	}
	labels := testLabels()
	commit := CommitRequest{Model: "v1", Predictions: goodPredictions(t, labels, 0.9, 3)}
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects/team-a/commit", commit); rec.Code != http.StatusConflict {
		t.Fatalf("commit while suspended = %d: %s", rec.Code, rec.Body.String())
	}
	// Every route the table marks mutating refuses while suspended.
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects/team-a/commit/async", AsyncCommitRequest{CommitRequest: commit}); rec.Code != http.StatusConflict {
		t.Fatalf("async commit while suspended = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects/team-a/testset", RotateRequest{
		Labels: labels, ActivePredictions: goodPredictions(t, labels, 0.9, 4),
	}); rec.Code != http.StatusConflict {
		t.Fatalf("rotate while suspended = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := doH(t, m, http.MethodGet, "/api/v1/projects/team-a/history", nil); rec.Code != http.StatusOK {
		t.Fatalf("history while suspended = %d", rec.Code)
	}
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects/team-a/resume", nil); rec.Code != http.StatusOK {
		t.Fatalf("resume = %d", rec.Code)
	}
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects/team-a/commit", commit); rec.Code != http.StatusOK {
		t.Fatalf("commit after resume = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects/default/suspend", nil); rec.Code != http.StatusConflict {
		t.Fatalf("suspend default = %d", rec.Code)
	}

	if rec := doH(t, m, http.MethodDelete, "/api/v1/projects/team-a", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := doH(t, m, http.MethodGet, "/api/v1/projects/team-a/status", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("status after delete = %d", rec.Code)
	}
	if rec := doH(t, m, http.MethodDelete, "/api/v1/projects/team-a", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("double delete = %d", rec.Code)
	}
	if rec := doH(t, m, http.MethodDelete, "/api/v1/projects/default", nil); rec.Code != http.StatusConflict {
		t.Fatalf("delete default = %d", rec.Code)
	}
}

// TestMultiLabelQuota: a tenant whose label budget is spent gets 429 on
// further commits, while other tenants are untouched.
func TestMultiLabelQuota(t *testing.T) {
	m := newTestMulti(t, MultiOptions{})
	defer m.Close()
	spec := testSpec(t, 3, testSize, 2)
	spec.LabelQuota = 1 // any evaluated commit spends more than this
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "capped", ProjectSpec: spec}); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
	}
	labels := testLabels()
	commit := CommitRequest{Model: "v1", Predictions: goodPredictions(t, labels, 0.9, 3)}
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects/capped/commit", commit); rec.Code != http.StatusOK {
		t.Fatalf("first commit = %d: %s", rec.Code, rec.Body.String())
	}
	rec := doH(t, m, http.MethodPost, "/api/v1/projects/capped/commit", commit)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-quota commit = %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "label quota exhausted") {
		t.Fatalf("quota error body = %s", rec.Body.String())
	}
	// The default project has no quota and keeps evaluating.
	if rec := doH(t, m, http.MethodPost, "/api/v1/commit", commit); rec.Code != http.StatusOK {
		t.Fatalf("default commit = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestMultiQueueDepthQuota: a tenant's queue-capacity quota bounds its
// backlog (503 past it) without touching other tenants' intake.
func TestMultiQueueDepthQuota(t *testing.T) {
	m := newTestMulti(t, MultiOptions{ManualPool: true})
	defer m.Close()
	spec := testSpec(t, 3, testSize, 2)
	spec.QueueCapacity = 1
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "narrow", ProjectSpec: spec}); rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
	}
	labels := testLabels()
	async := AsyncCommitRequest{CommitRequest: CommitRequest{Model: "v1", Predictions: goodPredictions(t, labels, 0.9, 3)}}
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects/narrow/commit/async", async); rec.Code != http.StatusAccepted {
		t.Fatalf("first async = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects/narrow/commit/async", async); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-capacity async = %d: %s", rec.Code, rec.Body.String())
	}
	// The flooded tenant's full backlog does not close anyone else's intake.
	if rec := doH(t, m, http.MethodPost, "/api/v1/commit/async", async); rec.Code != http.StatusAccepted {
		t.Fatalf("default async = %d: %s", rec.Code, rec.Body.String())
	}
	for m.RunOne() {
	}
}

// TestMultiProjectInfoQuotas: project info reports the quotas of the
// spec a project was created with, from the create response to a listing
// after a restart, and forgets them with the project.
func TestMultiProjectInfoQuotas(t *testing.T) {
	dir := t.TempDir()
	m := newTestMulti(t, MultiOptions{DataDir: dir})
	spec := testSpec(t, 3, testSize, 2)
	spec.QueueCapacity, spec.LabelQuota = 7, 900
	want := ProjectInfo{ID: "quoted", State: "active", Weight: 1, QueueCapacity: 7, LabelQuota: 900}
	check := func(m *Multi, rec *httptest.ResponseRecorder) {
		t.Helper()
		var got ProjectInfo
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got != want {
			t.Fatalf("project info %s (err %v), want %+v", rec.Body.String(), err, want)
		}
		var list ProjectListResponse
		if err := json.Unmarshal(doH(t, m, http.MethodGet, "/api/v1/projects", nil).Body.Bytes(), &list); err != nil ||
			len(list.Projects) != 2 || list.Projects[1] != want {
			t.Fatalf("project list %+v (err %v), want %+v second", list, err, want)
		}
	}
	rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "quoted", ProjectSpec: spec})
	if rec.Code != http.StatusCreated {
		t.Fatalf("create = %d: %s", rec.Code, rec.Body.String())
	}
	check(m, rec)
	// A second create of the same ID is refused and leaves the first
	// one's quotas.
	dupSpec := spec
	dupSpec.QueueCapacity, dupSpec.LabelQuota = 1, 1
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "quoted", ProjectSpec: dupSpec}); rec.Code != http.StatusConflict {
		t.Fatalf("duplicate create = %d: %s", rec.Code, rec.Body.String())
	}
	check(m, doH(t, m, http.MethodGet, "/api/v1/projects/quoted", nil))
	m.Close()

	m = newTestMulti(t, MultiOptions{DataDir: dir})
	defer m.Close()
	check(m, doH(t, m, http.MethodGet, "/api/v1/projects/quoted", nil))
	if rec := doH(t, m, http.MethodDelete, "/api/v1/projects/quoted", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete = %d: %s", rec.Code, rec.Body.String())
	}
	if _, ok := m.quotas["quoted"]; ok {
		t.Fatal("deleted project's quotas kept")
	}
}

// TestMultiSharedPlanCache: tenants with identical scripts share the
// process-wide plan cache — the second project's engine construction hits
// the entry the first one planted.
func TestMultiSharedPlanCache(t *testing.T) {
	m := newTestMulti(t, MultiOptions{})
	defer m.Close()
	spec := testSpec(t, 3, testSize, 2)
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "warm-a", ProjectSpec: spec}); rec.Code != http.StatusCreated {
		t.Fatal(rec.Body.String())
	}
	before := planner.Default.Stats().PlanHits
	spec2 := testSpec(t, 3, testSize, 7) // same script, different model
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "warm-b", ProjectSpec: spec2}); rec.Code != http.StatusCreated {
		t.Fatal(rec.Body.String())
	}
	if after := planner.Default.Stats().PlanHits; after <= before {
		t.Fatalf("second tenant's construction did not hit the shared plan cache (hits %d -> %d)", before, after)
	}
	// And a scoped plan query on either tenant is a cache hit too.
	before = planner.Default.Stats().PlanHits
	if rec := doH(t, m, http.MethodGet, "/api/v1/projects/warm-b/plan", nil); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	if after := planner.Default.Stats().PlanHits; after <= before {
		t.Fatal("scoped plan query missed the shared cache")
	}
}

// TestMultiAdminProjectAware covers the project-aware admin surface:
// unknown IDs 404, scoped resets touch only that tenant, the unscoped
// reset reports shared caches exactly once, and compaction scopes.
func TestMultiAdminProjectAware(t *testing.T) {
	dir := t.TempDir()
	m := newTestMulti(t, MultiOptions{DataDir: dir})
	defer m.Close()
	spec := testSpec(t, 3, testSize, 2)
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "team-a", ProjectSpec: spec}); rec.Code != http.StatusCreated {
		t.Fatal(rec.Body.String())
	}
	labels := testLabels()
	commit := CommitRequest{Model: "v1", Predictions: goodPredictions(t, labels, 0.9, 3)}
	for _, path := range []string{"/api/v1/commit", "/api/v1/projects/team-a/commit"} {
		if rec := doH(t, m, http.MethodPost, path, commit); rec.Code != http.StatusOK {
			t.Fatalf("POST %s = %d: %s", path, rec.Code, rec.Body.String())
		}
	}

	if rec := doH(t, m, http.MethodPost, "/api/v1/admin/reset-caches?project=ghost", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("reset unknown project = %d", rec.Code)
	}
	if rec := doH(t, m, http.MethodPost, "/api/v1/admin/compact?project=ghost", nil); rec.Code != http.StatusNotFound {
		t.Fatalf("compact unknown project = %d", rec.Code)
	}

	// Scoped reset clears team-a's counters and leaves default's alone.
	rec := doH(t, m, http.MethodPost, "/api/v1/admin/reset-caches?project=team-a", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("scoped reset = %d: %s", rec.Code, rec.Body.String())
	}
	var pre TenantMetrics
	if err := json.Unmarshal(rec.Body.Bytes(), &pre); err != nil {
		t.Fatal(err)
	}
	if pre.ID != "team-a" || pre.CommitsEvaluated != 1 {
		t.Fatalf("scoped reset pre-state = %+v", pre)
	}
	var mm MultiMetricsResponse
	if err := json.Unmarshal(doH(t, m, http.MethodGet, "/api/v1/metrics", nil).Body.Bytes(), &mm); err != nil {
		t.Fatal(err)
	}
	if len(mm.Projects) != 2 || mm.Projects[0].CommitsEvaluated != 1 || mm.Projects[1].CommitsEvaluated != 0 {
		t.Fatalf("post-scoped-reset metrics = %+v", mm.Projects)
	}
	if mm.Scheduler.Workers == 0 || len(mm.Scheduler.Sources) != 2 {
		t.Fatalf("scheduler stats = %+v", mm.Scheduler)
	}
	if mm.ControlWAL == nil {
		t.Fatal("durable control plane should report its control WAL")
	}

	// Unscoped reset returns the control-plane snapshot and clears all.
	rec = doH(t, m, http.MethodPost, "/api/v1/admin/reset-caches", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("global reset = %d", rec.Code)
	}
	var globalPre MultiMetricsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &globalPre); err != nil {
		t.Fatal(err)
	}
	if len(globalPre.Projects) != 2 {
		t.Fatalf("global reset projects = %+v", globalPre.Projects)
	}
	if planner.Default.Stats().PlanHits != 0 {
		t.Fatal("global reset should clear the shared plan cache")
	}

	// Scoped compact touches one WAL; unscoped compacts everything.
	rec = doH(t, m, http.MethodPost, "/api/v1/admin/compact?project=team-a", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("scoped compact = %d: %s", rec.Code, rec.Body.String())
	}
	rec = doH(t, m, http.MethodPost, "/api/v1/admin/compact", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("global compact = %d: %s", rec.Code, rec.Body.String())
	}
	var comp CompactResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &comp); err != nil {
		t.Fatal(err)
	}
	if comp.Control == nil || len(comp.Projects) != 2 {
		t.Fatalf("global compact response = %+v", comp)
	}

	// A memory-only control plane has nothing to compact.
	m2 := newTestMulti(t, MultiOptions{})
	defer m2.Close()
	if rec := doH(t, m2, http.MethodPost, "/api/v1/admin/compact", nil); rec.Code != http.StatusConflict {
		t.Fatalf("in-memory compact = %d", rec.Code)
	}
}

// TestMultiDurableCrashRestart is the multi-project half of the durability
// contract: a control plane with three live projects that vanishes without
// Close recovers every project and serves byte-identical histories, job
// polls, and statuses after restart.
func TestMultiDurableCrashRestart(t *testing.T) {
	dir := t.TempDir()
	m := newTestMulti(t, MultiOptions{DataDir: dir})
	for i, id := range []string{"team-a", "team-b"} {
		spec := testSpec(t, 3, testSize, int64(2+i))
		if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: id, ProjectSpec: spec}); rec.Code != http.StatusCreated {
			t.Fatalf("create %s = %d: %s", id, rec.Code, rec.Body.String())
		}
	}
	// Distinct deterministic traffic per project, through scoped paths.
	labels := testLabels()
	prefixes := []string{"", "/projects/team-a", "/projects/team-b"}
	for pi, prefix := range prefixes {
		// Varied history lengths per project, within the 3-step budget
		// (sync commits plus the async one below).
		for i := 0; i < 2-pi%2; i++ {
			rec := doH(t, m, http.MethodPost, "/api/v1"+prefix+"/commit", CommitRequest{
				Model: fmt.Sprintf("m%d", i), Author: "dev",
				Predictions: goodPredictions(t, labels, 0.9, int64(100*pi+i)),
			})
			if rec.Code != http.StatusOK {
				t.Fatalf("%s commit %d = %d: %s", prefix, i, rec.Code, rec.Body.String())
			}
		}
		rec := doH(t, m, http.MethodPost, "/api/v1"+prefix+"/commit/async", AsyncCommitRequest{
			CommitRequest: CommitRequest{Model: "async", Predictions: goodPredictions(t, labels, 0.9, int64(100*pi+50))},
		})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("%s async = %d: %s", prefix, rec.Code, rec.Body.String())
		}
		var acc JobAcceptedResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
			t.Fatal(err)
		}
		pollH(t, m, acc.Poll)
	}
	// One suspended project must come back suspended.
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects/team-b/suspend", nil); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	for _, id := range []string{DefaultProject, "team-a", "team-b"} {
		waitQuiescent(t, m.tenant(id), 0)
	}
	snapshot := func(h http.Handler) map[string][]byte {
		out := map[string][]byte{}
		for _, prefix := range prefixes {
			for _, leaf := range []string{"/history", "/status", "/commit/jobs/job-1"} {
				path := "/api/v1" + prefix + leaf
				rec := doH(t, h, http.MethodGet, path, nil)
				if rec.Code != http.StatusOK {
					t.Fatalf("GET %s = %d: %s", path, rec.Code, rec.Body.String())
				}
				out[path] = append([]byte(nil), rec.Body.Bytes()...)
			}
		}
		rec := doH(t, h, http.MethodGet, "/api/v1/projects", nil)
		out["/api/v1/projects"] = append([]byte(nil), rec.Body.Bytes()...)
		return out
	}
	before := snapshot(m)
	// Crash: the process vanishes without Close — nothing is flushed,
	// compacted, or drained beyond what the WALs already hold.
	m = nil //nolint:ineffassign // the old control plane is abandoned, not closed

	m2 := newTestMulti(t, MultiOptions{DataDir: dir})
	defer m2.Close()
	after := snapshot(m2)
	for path, want := range before {
		if got := after[path]; !bytes.Equal(want, got) {
			t.Errorf("%s diverged across crash-restart:\n  before: %s\n  after:  %s", path, want, got)
		}
	}
	// The suspended project recovered suspended and still refuses work.
	if rec := doH(t, m2, http.MethodPost, "/api/v1/projects/team-b/commit", CommitRequest{
		Model: "nope", Predictions: goodPredictions(t, labels, 0.9, 999),
	}); rec.Code != http.StatusConflict {
		t.Fatalf("suspended project after restart = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestMultiDeleteSweepsOrphan: a project directory stranded by a crash
// between the registry's delete record and the directory removal is swept
// at the next start.
func TestMultiDeleteSweepsOrphan(t *testing.T) {
	dir := t.TempDir()
	m := newTestMulti(t, MultiOptions{DataDir: dir})
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "doomed", ProjectSpec: testSpec(t, 3, testSize, 2)}); rec.Code != http.StatusCreated {
		t.Fatal(rec.Body.String())
	}
	m.Close()
	// Simulate the crash window: delete the registry record but leave the
	// project directory behind.
	if err := os.Rename(filepath.Join(dir, "doomed"), filepath.Join(dir, "orphan")); err != nil {
		t.Fatal(err)
	}
	// A directory without a wal.log must never be swept.
	keep := filepath.Join(dir, "keep-me")
	if err := os.MkdirAll(keep, 0o755); err != nil {
		t.Fatal(err)
	}
	m2 := newTestMulti(t, MultiOptions{DataDir: dir})
	defer m2.Close()
	if _, err := os.Stat(filepath.Join(dir, "orphan")); !os.IsNotExist(err) {
		t.Errorf("orphan project directory survived the sweep (err=%v)", err)
	}
	if _, err := os.Stat(keep); err != nil {
		t.Errorf("non-project directory was swept: %v", err)
	}
	// "doomed" itself reopens from its registry record as usual.
	if rec := doH(t, m2, http.MethodGet, "/api/v1/projects/doomed/status", nil); rec.Code != http.StatusOK {
		t.Fatalf("doomed status = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestMultiCloseJournalsRacingCommits is the shutdown-ordering satellite:
// commits racing Close are either fully journaled (and recover as done)
// or never acknowledged — no accepted job is lost, no unaccepted job
// appears after restart.
func TestMultiCloseJournalsRacingCommits(t *testing.T) {
	dir := t.TempDir()
	m := newTestMulti(t, MultiOptions{DataDir: dir})
	labels := testLabels()
	var mu sync.Mutex
	accepted := map[string][]string{} // prefix -> accepted job IDs
	prefixes := []string{"", "/projects/team-a"}
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "team-a", ProjectSpec: testSpec(t, 3, testSize, 2)}); rec.Code != http.StatusCreated {
		t.Fatal(rec.Body.String())
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, prefix := range prefixes {
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(prefix string, g int) {
				defer wg.Done()
				<-start
				for i := 0; i < 5; i++ {
					rec := doH(t, m, http.MethodPost, "/api/v1"+prefix+"/commit/async", AsyncCommitRequest{
						CommitRequest: CommitRequest{
							Model:       fmt.Sprintf("g%d-%d", g, i),
							Predictions: goodPredictions(t, labels, 0.9, int64(g*10+i)),
						},
					})
					switch rec.Code {
					case http.StatusAccepted:
						var acc JobAcceptedResponse
						if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						accepted[prefix] = append(accepted[prefix], acc.JobID)
						mu.Unlock()
					case http.StatusServiceUnavailable:
						// Intake closed under us: never acknowledged.
						return
					default:
						t.Errorf("async = %d: %s", rec.Code, rec.Body.String())
						return
					}
				}
			}(prefix, g)
		}
	}
	close(start)
	m.Close() // races the submitters
	wg.Wait()

	m2 := newTestMulti(t, MultiOptions{DataDir: dir})
	defer m2.Close()
	for prefix, ids := range accepted {
		for _, id := range ids {
			rec := doH(t, m2, http.MethodGet, "/api/v1"+prefix+"/commit/jobs/"+id, nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("accepted job %s%s lost across restart: %d %s", prefix, id, rec.Code, rec.Body.String())
			}
			var st JobStatusResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
				t.Fatal(err)
			}
			// Close drains every accepted job before the WALs close, so a
			// recovered job is terminal, not resurrected as queued.
			if st.State != "done" && st.State != "failed" {
				t.Errorf("job %s%s recovered as %q, want terminal", prefix, id, st.State)
			}
		}
	}
}

// TestMultiConcurrentHammer widens the race hammer to the control plane:
// plan, commit, rotate, create, and delete traffic across projects, all
// concurrent, under -race.
func TestMultiConcurrentHammer(t *testing.T) {
	m := newTestMulti(t, MultiOptions{})
	defer m.Close()
	labels := testLabels()
	for _, id := range []string{"ham-a", "ham-b"} {
		if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: id, ProjectSpec: testSpec(t, 6, testSize, 2)}); rec.Code != http.StatusCreated {
			t.Fatal(rec.Body.String())
		}
	}
	prefixes := []string{"", "/projects/ham-a", "/projects/ham-b"}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prefix := prefixes[g%len(prefixes)]
			for i := 0; i < 15; i++ {
				switch g % 4 {
				case 0: // plans and metrics
					doH(t, m, http.MethodGet, "/api/v1"+prefix+"/plan", nil)
					doH(t, m, http.MethodGet, "/api/v1/metrics", nil)
				case 1: // commits (sync waits on the shared pool)
					doH(t, m, http.MethodPost, "/api/v1"+prefix+"/commit", CommitRequest{
						Model: fmt.Sprintf("h%d-%d", g, i), Predictions: goodPredictions(t, labels, 0.9, int64(g*100+i)),
					})
				case 2: // rotations
					doH(t, m, http.MethodPost, "/api/v1"+prefix+"/testset", RotateRequest{
						Labels: labels, ActivePredictions: goodPredictions(t, labels, 0.9, int64(g*100+i)),
					})
				case 3: // project churn
					id := fmt.Sprintf("churn-%d-%d", g, i)
					doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: id, ProjectSpec: testSpec(t, 3, testSize, 5)})
					doH(t, m, http.MethodDelete, "/api/v1/projects/"+id, nil)
				}
			}
		}(g)
	}
	wg.Wait()
	// The scheduler must end clean: nothing pending, nothing in flight.
	st := m.pool.Stats()
	for _, s := range st.Sources {
		if s.Inflight != 0 {
			t.Errorf("source %s still in flight after hammer", s.ID)
		}
	}
}

// TestMultiFairnessScoped: under the manual pool, a flooded default
// project cannot monopolize scheduling — a weighted tenant gets its
// share of picks, observable through the scheduler metrics.
func TestMultiFairnessScoped(t *testing.T) {
	m := newTestMulti(t, MultiOptions{ManualPool: true})
	defer m.Close()
	// Jobs past the 3-step budget fail fast when run; scheduling order —
	// what this test measures — is unaffected.
	spec := testSpec(t, 3, testSize, 2)
	spec.Weight = 4
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "vip", ProjectSpec: spec}); rec.Code != http.StatusCreated {
		t.Fatal(rec.Body.String())
	}
	labels := testLabels()
	async := func(prefix string, n int) {
		for i := 0; i < n; i++ {
			rec := doH(t, m, http.MethodPost, "/api/v1"+prefix+"/commit/async", AsyncCommitRequest{
				CommitRequest: CommitRequest{Model: fmt.Sprintf("f%d", i), Predictions: goodPredictions(t, labels, 0.9, int64(i))},
			})
			if rec.Code != http.StatusAccepted {
				t.Fatalf("%s async %d = %d: %s", prefix, i, rec.Code, rec.Body.String())
			}
		}
	}
	async("", 20)             // the noisy neighbor floods first
	async("/projects/vip", 8) // the weighted tenant arrives late
	for i := 0; i < 10; i++ {
		if !m.RunOne() {
			t.Fatalf("pool ran dry at pick %d", i)
		}
	}
	var mm MultiMetricsResponse
	if err := json.Unmarshal(doH(t, m, http.MethodGet, "/api/v1/metrics", nil).Body.Bytes(), &mm); err != nil {
		t.Fatal(err)
	}
	picks := map[string]uint64{}
	for _, s := range mm.Scheduler.Sources {
		picks[s.ID] = s.Picks
	}
	// Weights 1:4 over 10 picks = 2 rounds: default 2, vip 8.
	if picks[DefaultProject] != 2 || picks["vip"] != 8 {
		t.Fatalf("picks = %v, want default=2 vip=8", picks)
	}
	for m.RunOne() {
	}
}

// TestProjectSpecGenesis covers the spec-to-genesis shaping: mode and
// adaptivity spellings, the default model name, and the rejections.
func TestProjectSpecGenesis(t *testing.T) {
	base := testSpec(t, 3, testSize, 2)
	base.ModelName = ""
	g, err := base.genesis()
	if err != nil {
		t.Fatal(err)
	}
	if g.ModelName != "deployed-h0" {
		t.Errorf("default model name = %q", g.ModelName)
	}
	ok := base
	ok.Mode, ok.Adaptivity = "fn-free", "firstChange"
	if _, err := ok.genesis(); err != nil {
		t.Errorf("fn-free/firstChange spec rejected: %v", err)
	}
	ok = base
	ok.Adaptivity, ok.Email = "none", "qa@example.com"
	if _, err := ok.genesis(); err != nil {
		t.Errorf("none+email spec rejected: %v", err)
	}
	for name, mutate := range map[string]func(*ProjectSpec){
		"bad mode":           func(sp *ProjectSpec) { sp.Mode = "loose" },
		"bad adaptivity":     func(sp *ProjectSpec) { sp.Adaptivity = "later" },
		"none without email": func(sp *ProjectSpec) { sp.Adaptivity = "none" },
		"preds mismatch":     func(sp *ProjectSpec) { sp.ModelPredictions = sp.ModelPredictions[:10] },
		"bad labels":         func(sp *ProjectSpec) { sp.Labels = []int{0, 99}; sp.ModelPredictions = []int{0, 1} },
	} {
		sp := base
		mutate(&sp)
		if _, err := sp.genesis(); err == nil {
			t.Errorf("%s: spec accepted", name)
		}
	}
}

// TestMultiRequestValidation covers the control plane's wire-level edges:
// project info endpoints, method checks, and malformed bodies.
func TestMultiRequestValidation(t *testing.T) {
	m := newTestMulti(t, MultiOptions{})
	defer m.Close()
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "team-a", ProjectSpec: testSpec(t, 3, testSize, 2)}); rec.Code != http.StatusCreated {
		t.Fatal(rec.Body.String())
	}

	var info ProjectInfo
	rec := doH(t, m, http.MethodGet, "/api/v1/projects/default", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || !info.Default {
		t.Fatalf("default info = %d %s (%v)", rec.Code, rec.Body.String(), err)
	}
	info = ProjectInfo{}
	rec = doH(t, m, http.MethodGet, "/api/v1/projects/team-a", nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil || info.ID != "team-a" || info.State != "active" || info.Default {
		t.Fatalf("team-a info = %d %s (%v)", rec.Code, rec.Body.String(), err)
	}
	if rec := doH(t, m, http.MethodGet, "/api/v1/projects/ghost", nil); rec.Code != http.StatusNotFound {
		t.Errorf("ghost info = %d", rec.Code)
	}
	if rec := doH(t, m, http.MethodGet, "/api/v1/projects/", nil); rec.Code != http.StatusOK {
		t.Errorf("trailing-slash list = %d", rec.Code)
	}
	// A non-clean path redirects to its cleaned form, even one that drops
	// an empty project ID.
	if rec := doH(t, m, http.MethodGet, "/api/v1/projects//status", nil); rec.Code != http.StatusMovedPermanently || rec.Header().Get("Location") != "/api/v1/projects/status" {
		t.Errorf("empty project id = %d %q", rec.Code, rec.Header().Get("Location"))
	}

	for _, tc := range []struct{ method, path string }{
		{http.MethodPut, "/api/v1/projects"},
		{http.MethodPatch, "/api/v1/projects/team-a"},
		{http.MethodGet, "/api/v1/projects/team-a/suspend"},
		{http.MethodPost, "/api/v1/metrics"},
		{http.MethodGet, "/api/v1/admin/reset-caches"},
		{http.MethodGet, "/api/v1/admin/compact"},
	} {
		if rec := doH(t, m, tc.method, tc.path, nil); rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, rec.Code)
		}
	}

	req := httptest.NewRequest(http.MethodPost, "/api/v1/projects", strings.NewReader("{nope"))
	rec = httptest.NewRecorder()
	m.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed create body = %d", rec.Code)
	}

	// Scoped metrics and job-poll paths stay readable on a suspended
	// project (only new work is refused).
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects/team-a/suspend", nil); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	if rec := doH(t, m, http.MethodGet, "/api/v1/projects/team-a/metrics", nil); rec.Code != http.StatusOK {
		t.Errorf("suspended metrics = %d", rec.Code)
	}
	// A second Close is a no-op; requests after Close are refused at create.
	m.Close()
	m.Close()
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "late", ProjectSpec: testSpec(t, 3, testSize, 2)}); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("create after close = %d", rec.Code)
	}
}

// TestNewFromGenesisValidation: an in-memory tenant refuses a bad
// config, mismatched predictions, and an invalid dataset directly.
func TestNewFromGenesisValidation(t *testing.T) {
	g, _ := durableGenesis(t, 3, testSize)
	bad := g
	bad.Condition = "not a condition"
	if _, err := openTestTenant(bad, "", Options{}, false); err == nil {
		t.Error("bad condition accepted")
	}
	bad = g
	bad.ModelPredictions = bad.ModelPredictions[:7]
	if _, err := openTestTenant(bad, "", Options{}, false); err == nil {
		t.Error("prediction/label length mismatch accepted")
	}
	bad = g
	bad.Labels = []int{0, 1, 2, 99}
	bad.ModelPredictions = []int{0, 1, 2, 3}
	if _, err := openTestTenant(bad, "", Options{}, false); err == nil {
		t.Error("out-of-range label accepted")
	}
}

// TestNewMultiStartupFailures: the control plane refuses to start on an
// unusable control dir, a bad default genesis, or a corrupt stored spec.
func TestNewMultiStartupFailures(t *testing.T) {
	g, _ := durableGenesis(t, 3, testSize)

	// Data dir path occupied by a regular file: the control-plane
	// registry cannot open.
	blocked := filepath.Join(t.TempDir(), "data")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewMulti(g, MultiOptions{DataDir: blocked, Tenant: Options{WALNoSync: true}}); err == nil {
		t.Error("NewMulti over a regular file succeeded")
	}

	// Default tenant genesis invalid: fails after the registry opened.
	bad := g
	bad.Condition = "not a condition"
	if _, err := NewMulti(bad, MultiOptions{}); err == nil {
		t.Error("NewMulti with a bad default genesis succeeded")
	}

	// A registered project whose log can no longer open is corruption:
	// restart refuses to serve a subset.
	dir := t.TempDir()
	m := newTestMulti(t, MultiOptions{DataDir: dir})
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "team-a", ProjectSpec: testSpec(t, 3, testSize, 2)}); rec.Code != http.StatusCreated {
		t.Fatal(rec.Body.String())
	}
	m.Close()
	if err := os.RemoveAll(filepath.Join(dir, "team-a")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "team-a"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := MultiOptions{DataDir: dir, Tenant: Options{WALNoSync: true, Webhooks: notify.NewOutbox()}}
	if _, err := NewMulti(g, opts); err == nil {
		t.Error("restart with a registered project's data wiped succeeded")
	}
}

// TestMultiDeleteProjectFailsPendingBacklog: deleting a project whose
// queue still holds accepted-but-unscheduled jobs fails those jobs
// instead of stranding them — a synchronous commit blocked in the
// backlog gets its terminal 409, not a handler goroutine that hangs
// forever on a queue nothing will ever drain.
func TestMultiDeleteProjectFailsPendingBacklog(t *testing.T) {
	m := newTestMulti(t, MultiOptions{ManualPool: true})
	defer m.Close()
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "doomed", ProjectSpec: testSpec(t, 3, testSize, 2)}); rec.Code != http.StatusCreated {
		t.Fatal(rec.Body.String())
	}
	labels := testLabels()
	// One async job parks in the backlog (the manual pool never runs it).
	rec := doH(t, m, http.MethodPost, "/api/v1/projects/doomed/commit/async", AsyncCommitRequest{
		CommitRequest: CommitRequest{Model: "parked", Predictions: goodPredictions(t, labels, 0.9, 1)},
	})
	if rec.Code != http.StatusAccepted {
		t.Fatal(rec.Body.String())
	}
	var acc JobAcceptedResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}
	asyncJob, ok := m.tenant("doomed").jobs.Job(acc.JobID)
	if !ok {
		t.Fatalf("accepted job %s not in the tenant queue", acc.JobID)
	}
	// A sync commit behind it blocks its handler on the job's Done.
	srv := m.tenant("doomed")
	syncDone := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		syncDone <- doH(t, m, http.MethodPost, "/api/v1/projects/doomed/commit", CommitRequest{
			Model: "waiter", Predictions: goodPredictions(t, labels, 0.9, 2),
		})
	}()
	deadline := time.Now().Add(10 * time.Second)
	for srv.jobs.Pending() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("sync commit never reached the backlog")
		}
		time.Sleep(time.Millisecond)
	}
	if rec := doH(t, m, http.MethodDelete, "/api/v1/projects/doomed", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete = %d: %s", rec.Code, rec.Body.String())
	}
	select {
	case rec := <-syncDone:
		if rec.Code != http.StatusConflict {
			t.Fatalf("sync commit across delete = %d: %s", rec.Code, rec.Body.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sync commit handler still blocked after its project was deleted")
	}
	// The parked async job reached a terminal state too.
	select {
	case <-asyncJob.Done():
	default:
		t.Error("parked async job never reached a terminal state")
	}
}

// TestMultiCloseNeverStrandsSyncWaiter: a synchronous commit racing
// Multi.Close is either rejected at intake (503) or fully evaluated —
// never accepted and then forgotten by the draining pool. The enqueue
// kick fires under the queue lock, atomically with acceptance, so the
// pool cannot observe zero pending while a just-accepted job exists.
func TestMultiCloseNeverStrandsSyncWaiter(t *testing.T) {
	labels := testLabels()
	for round := 0; round < 8; round++ {
		m := newTestMulti(t, MultiOptions{})
		codes := make(chan int, 4)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				rec := doH(t, m, http.MethodPost, "/api/v1/commit", CommitRequest{
					Model: fmt.Sprintf("r%d", g), Predictions: goodPredictions(t, labels, 0.9, int64(g)),
				})
				codes <- rec.Code
			}(g)
		}
		close(start)
		m.Close() // races the submitters
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatal("a sync commit handler hung across Close")
		}
		close(codes)
		for code := range codes {
			switch code {
			case http.StatusOK, http.StatusConflict, http.StatusServiceUnavailable:
			default:
				t.Fatalf("round %d: sync commit racing Close = %d", round, code)
			}
		}
	}
}

// TestMultiMigratesLegacyLayout: a pre-projects durable server kept its
// WAL at the data-dir root; the control plane moves that state under
// default/ on startup, so an in-place upgrade serves its old history
// instead of silently booting a fresh default project.
func TestMultiMigratesLegacyLayout(t *testing.T) {
	dir := t.TempDir()
	g, labels := durableGenesis(t, 3, testSize)
	legacy, err := openTestTenant(g, dir, Options{WALNoSync: true, Webhooks: notify.NewOutbox()}, false)
	if err != nil {
		t.Fatal(err)
	}
	if rec := doH(t, tenantHandler(legacy), http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "pre-upgrade", Predictions: goodPredictions(t, labels, 0.9, 1),
	}); rec.Code != http.StatusOK {
		t.Fatal(rec.Body.String())
	}
	wantHist := doH(t, tenantHandler(legacy), http.MethodGet, "/api/v1/history", nil).Body.Bytes()
	closeTestTenant(legacy)
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil {
		t.Fatalf("test setup: no legacy root-level wal.log: %v", err)
	}

	m := newTestMulti(t, MultiOptions{DataDir: dir})
	defer m.Close()
	for _, name := range []string{"wal.log", "snapshot.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("legacy %s still at the data-dir root (err=%v)", name, err)
		}
	}
	rec := doH(t, m, http.MethodGet, "/api/v1/history", nil)
	if rec.Code != http.StatusOK || !bytes.Equal(wantHist, rec.Body.Bytes()) {
		t.Fatalf("history lost in layout migration:\n  legacy: %s\n  multi:  %d %s", wantHist, rec.Code, rec.Body.String())
	}
}

// TestMultiLegacyLayoutAmbiguityRefused: a root-level wal.log next to an
// existing default/ log is ambiguous, and the control plane refuses to
// start rather than guess which history is real.
func TestMultiLegacyLayoutAmbiguityRefused(t *testing.T) {
	dir := t.TempDir()
	m := newTestMulti(t, MultiOptions{DataDir: dir})
	m.Close()
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	g, _ := durableGenesis(t, 3, testSize)
	if _, err := NewMulti(g, MultiOptions{DataDir: dir, Tenant: Options{WALNoSync: true, Webhooks: notify.NewOutbox()}}); err == nil {
		t.Fatal("control plane started over an ambiguous (legacy + migrated) layout")
	} else if !strings.Contains(err.Error(), "exist") {
		t.Fatalf("ambiguity error = %v", err)
	}
}
