package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	ci "github.com/easeml/ci"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/server"
)

func TestLoadConfigInline(t *testing.T) {
	cfg, err := loadConfig("", "n - o > 0.02 +/- 0.02", 0.998, 8, "none", "fn-free")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Adaptivity.Kind != ci.AdaptivityNone || cfg.Adaptivity.Email == "" {
		t.Errorf("adaptivity = %+v", cfg.Adaptivity)
	}
	if cfg.Mode != ci.FNFree {
		t.Errorf("mode = %v", cfg.Mode)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	if _, err := loadConfig("", "n > 0.5 +/- 0.1", 0.99, 4, "whenever", "fp-free"); err == nil {
		t.Error("bad adaptivity should fail")
	}
	if _, err := loadConfig("", "n > 0.5 +/- 0.1", 0.99, 4, "full", "sloppy"); err == nil {
		t.Error("bad mode should fail")
	}
	if _, err := loadConfig("/missing.yml", "", 0.99, 4, "full", "fp-free"); err == nil {
		t.Error("missing file should fail")
	}
}

func TestRunScenarioEndToEnd(t *testing.T) {
	// A small full scenario: trains real models and drives the engine.
	err := run("", "n - o > 0.02 +/- 0.05", 0.99, 8, "full", "fp-free", 3, 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunScenarioFirstChange(t *testing.T) {
	err := run("", "n - o > 0.02 +/- 0.05", 0.99, 8, "firstChange", "fp-free", 3, 1500, 2)
	if err != nil {
		t.Fatal(err)
	}
}

// testControlPlane serves an in-memory control plane whose default
// project has a 700-example, 4-class testset.
func testControlPlane(t *testing.T) (*httptest.Server, []int, []int) {
	t.Helper()
	const size, classes = 700, 4
	labels := make([]int, size)
	for i := range labels {
		labels[i] = i % classes
	}
	h0, err := model.SimulatedPredictions(labels, classes, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	m, err := server.NewMulti(server.Genesis{
		Condition:   "n > 0.6 +/- 0.1",
		Reliability: 0.99,
		Mode:        ci.FPFree,
		Adaptivity:  script.Adaptivity{Kind: script.AdaptivityFull},
		Steps:       4,
		Labels:      labels, Classes: classes,
		ModelName: "h0", ModelPredictions: h0,
	}, server.MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m)
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	return ts, labels, h0
}

// TestRunRemoteAgainstLiveServer exercises the -server mode end to end:
// the CLI submits commits to a real HTTP server's async endpoint and
// polls each job to completion.
func TestRunRemoteAgainstLiveServer(t *testing.T) {
	ts, _, _ := testControlPlane(t)
	if err := runRemote(ts.URL, "", 3, 4, 7); err != nil {
		t.Fatal(err)
	}
	var status server.StatusResponse
	if err := getJSON(ts.URL+"/api/v1/status", &status); err != nil {
		t.Fatal(err)
	}
	if status.Commits != 3 {
		t.Errorf("server saw %d commits, want 3", status.Commits)
	}
	if err := runRemote(ts.URL, "", 0, 4, 7); err == nil {
		t.Error("zero commits should be rejected")
	}
	if err := runRemote("http://127.0.0.1:1/nope", "", 1, 4, 7); err == nil {
		t.Error("unreachable server should fail")
	}
}

// TestPollJobRidesOutTransientFailures: a 503 (the shape of a durable
// server mid-restart) is retried within the deadline; a permanent error
// (404) aborts immediately.
func TestPollJobRidesOutTransientFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1, 2:
			http.Error(w, `{"error":"restarting"}`, http.StatusServiceUnavailable)
		default:
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"job_id":"job-1","seq":1,"state":"done","result":{"commit_id":"abc","step":1,"signal":true}}`)
		}
	}))
	defer ts.Close()
	st, err := pollJob(ts.URL, 10*time.Second)
	if err != nil {
		t.Fatalf("pollJob did not ride out transient 503s: %v", err)
	}
	if st.State != "done" || calls.Load() != 3 {
		t.Errorf("state=%q after %d calls", st.State, calls.Load())
	}

	notFound := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no such job"}`, http.StatusNotFound)
	}))
	defer notFound.Close()
	if _, err := pollJob(notFound.URL, 10*time.Second); err == nil || isTransient(err) {
		t.Errorf("404 must abort immediately with a permanent error, got %v", err)
	}

	// A dead server (connection refused) is transient too: the deadline,
	// not the first dial failure, decides.
	dead := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := dead.URL
	dead.Close()
	start := time.Now()
	if _, err := pollJob(deadURL, 300*time.Millisecond); err == nil {
		t.Error("poll against a dead server must eventually fail")
	} else if time.Since(start) < 250*time.Millisecond {
		t.Errorf("poll gave up after %s without exhausting the deadline", time.Since(start))
	}
}

// TestRunRemoteScopedProject drives the -project flag: the CLI registers
// nothing itself, but against a multi-project server its traffic lands on
// the named tenant — and only there.
func TestRunRemoteScopedProject(t *testing.T) {
	const classes = 4
	ts, labels, h0 := testControlPlane(t)

	body := fmt.Sprintf(`{"id":"team-a","condition":"n > 0.6 +/- 0.1","reliability":0.99,"steps":4,"labels":%s,"classes":%d,"model_predictions":%s}`,
		intsJSON(labels), classes, intsJSON(h0))
	resp, err := http.Post(ts.URL+"/api/v1/projects", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create project = %d", resp.StatusCode)
	}

	if err := runRemote(ts.URL, "team-a", 2, classes, 7); err != nil {
		t.Fatal(err)
	}
	var scoped, def []server.CommitResponse
	for path, out := range map[string]*[]server.CommitResponse{
		"/api/v1/projects/team-a/history": &scoped,
		"/api/v1/history":                 &def,
	} {
		if err := getJSON(ts.URL+path, out); err != nil {
			t.Fatal(err)
		}
	}
	if len(scoped) != 2 {
		t.Errorf("scoped project saw %d commits, want 2", len(scoped))
	}
	if len(def) != 0 {
		t.Errorf("default project saw %d commits, want 0", len(def))
	}
	if err := runRemote(ts.URL, "ghost", 1, classes, 7); err == nil {
		t.Error("unknown project should fail")
	}
}

func intsJSON(v []int) string {
	b, _ := json.Marshal(v)
	return string(b)
}
