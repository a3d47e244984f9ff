package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	ci "github.com/easeml/ci"
	"github.com/easeml/ci/internal/server"
)

func TestLoadConfigInlineFlags(t *testing.T) {
	cfg, err := loadConfig("", "n - o > 0.02 +/- 0.01", 0.9999, 32, "none", "fp-free", "a@b.c")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Adaptivity.Kind != ci.AdaptivityNone || cfg.Adaptivity.Email != "a@b.c" {
		t.Errorf("adaptivity = %+v", cfg.Adaptivity)
	}
	if cfg.Steps != 32 || cfg.Reliability != 0.9999 {
		t.Errorf("config = %+v", cfg)
	}
}

func TestLoadConfigModes(t *testing.T) {
	cfg, err := loadConfig("", "n > 0.5 +/- 0.1", 0.99, 4, "firstChange", "fn-free", "")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != ci.FNFree || cfg.Adaptivity.Kind != ci.AdaptivityFirstChange {
		t.Errorf("config = %+v", cfg)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	if _, err := loadConfig("", "", 0.99, 4, "full", "fp-free", ""); err == nil {
		t.Error("missing condition should fail")
	}
	if _, err := loadConfig("", "n > 0.5 +/- 0.1", 0.99, 4, "later", "fp-free", ""); err == nil {
		t.Error("bad adaptivity should fail")
	}
	if _, err := loadConfig("", "n > 0.5 +/- 0.1", 0.99, 4, "full", "loose", ""); err == nil {
		t.Error("bad mode should fail")
	}
	if _, err := loadConfig("/nonexistent.yml", "", 0.99, 4, "full", "fp-free", ""); err == nil {
		t.Error("missing script file should fail")
	}
}

func TestLoadConfigFromScriptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ci.yml")
	doc := "ml:\n  - condition  : d < 0.1 +/- 0.01\n  - reliability: 0.999\n  - adaptivity : full\n  - steps      : 16\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig(path, "", 0, 0, "", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Steps != 16 || cfg.ConditionSrc != "d < 0.1 +/- 0.01" {
		t.Errorf("config = %+v", cfg)
	}
}

func TestReportDoesNotPanic(t *testing.T) {
	cfg, err := loadConfig("", "d < 0.1 +/- 0.01 /\\ n - o > 0.02 +/- 0.01", 0.9999, 32, "none", "fp-free", "a@b.c")
	if err != nil {
		t.Fatal(err)
	}
	opts := ci.DefaultPlannerOptions()
	plan, err := ci.PlanForConfig(cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	report(cfg, plan, 2) // exercises every branch with a pattern-1 plan
}

func writeQueriesFile(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "queries.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunBatchLocal(t *testing.T) {
	path := writeQueriesFile(t, `[
		{"condition": "n > 0.6 +/- 0.1"},
		{"condition": "n > 0.6 +/- 0.1", "reliability": 0.999, "steps": 8, "adaptivity": "none"},
		{"condition": "!!"},
		{}
	]`)
	var out bytes.Buffer
	if err := runBatch(path, "", "", "d < 0.1 +/- 0.05", 0.99, 4, "full", "fp-free", "a@b.c", 0.1, &out); err != nil {
		t.Fatal(err)
	}
	var resp server.BatchPlanResponse
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON output: %v: %s", err, out.String())
	}
	if len(resp.Results) != 4 {
		t.Fatalf("got %d results, want 4", len(resp.Results))
	}
	if r := resp.Results[0]; r.Error != "" || r.Plan == nil || r.Plan.Steps != 4 || r.Plan.Reliability != 0.99 {
		t.Errorf("result 0 = %+v (flag defaults should apply)", r)
	}
	if r := resp.Results[1]; r.Error != "" || r.Plan == nil || r.Plan.Steps != 8 || r.Plan.Reliability != 0.999 {
		t.Errorf("result 1 = %+v", r)
	}
	if r := resp.Results[2]; r.Error == "" || r.Plan != nil {
		t.Errorf("result 2 should fail to parse, got %+v", r)
	}
	if r := resp.Results[3]; r.Error != "" || r.Plan == nil || r.Plan.Condition != "d < 0.1 +/- 0.05" {
		t.Errorf("result 3 = %+v (the -condition flag is the fallback)", r)
	}
}

// testControlPlane serves an in-memory control plane whose default
// project runs "n > 0.6 +/- 0.1" over 3 steps on a 700-example,
// 4-class testset.
func testControlPlane(t *testing.T) (*httptest.Server, []int) {
	t.Helper()
	labels := make([]int, 700)
	for i := range labels {
		labels[i] = i % 4
	}
	m, err := server.NewMulti(server.Genesis{
		Condition:   "n > 0.6 +/- 0.1",
		Reliability: 0.99,
		Mode:        ci.FPFree,
		Adaptivity:  ci.Adaptivity{Kind: ci.AdaptivityFull},
		Steps:       3,
		Labels:      labels, Classes: 4,
		ModelName: "h0", ModelPredictions: labels,
	}, server.MultiOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(m)
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	return ts, labels
}

func TestRunBatchRemote(t *testing.T) {
	ts, _ := testControlPlane(t)

	path := writeQueriesFile(t, `[{}, {"steps": 5}]`)
	var out bytes.Buffer
	if err := runBatch(path, ts.URL, "", "", 0.9999, 32, "full", "fp-free", "", 0.1, &out); err != nil {
		t.Fatal(err)
	}
	var resp server.BatchPlanResponse
	if err := json.Unmarshal(out.Bytes(), &resp); err != nil {
		t.Fatalf("bad JSON output: %v: %s", err, out.String())
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
	// The parameterless query resolves against the *server's* config, not
	// the local flags.
	if r := resp.Results[0]; r.Error != "" || r.Plan == nil || r.Plan.Steps != 3 || r.Plan.Condition != "n > 0.6 +/- 0.1" {
		t.Errorf("result 0 = %+v", r)
	}
	if r := resp.Results[1]; r.Error != "" || r.Plan == nil || r.Plan.Steps != 5 {
		t.Errorf("result 1 = %+v", r)
	}
}

func TestRunBatchErrors(t *testing.T) {
	if err := runBatch(filepath.Join(t.TempDir(), "missing.json"), "", "", "", 0.99, 4, "full", "fp-free", "", 0.1, io.Discard); err == nil {
		t.Error("missing file should fail")
	}
	if err := runBatch(writeQueriesFile(t, "[]"), "", "", "", 0.99, 4, "full", "fp-free", "", 0.1, io.Discard); err == nil {
		t.Error("empty query list should fail")
	}
	if err := runBatch(writeQueriesFile(t, "{nope"), "", "", "", 0.99, 4, "full", "fp-free", "", 0.1, io.Discard); err == nil {
		t.Error("malformed JSON should fail")
	}
	if err := runBatch(writeQueriesFile(t, `[{"relibility": 0.9999}]`), "", "", "n > 0.5 +/- 0.1", 0.99, 4, "full", "fp-free", "", 0.1, io.Discard); err == nil {
		t.Error("typo'd field should fail instead of planning with the default")
	}
	if err := runBatch(writeQueriesFile(t, "[{}]"), "http://127.0.0.1:1", "", "", 0.99, 4, "full", "fp-free", "", 0.1, io.Discard); err == nil {
		t.Error("unreachable server should fail")
	}
}

func TestApplyScriptDefaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ci.yml")
	doc := "ml:\n  - condition  : d < 0.1 +/- 0.01\n  - reliability: 0.999\n  - adaptivity : none -> qa@x.y\n  - steps      : 16\n  - mode       : fn-free\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	cond, rel, steps := "", 0.9999, 32
	adapt, mode, email := "full", "fp-free", "a@b.c"
	if err := applyScriptDefaults(path, &cond, &rel, &steps, &adapt, &mode, &email); err != nil {
		t.Fatal(err)
	}
	if cond != "d < 0.1 +/- 0.01" || rel != 0.999 || steps != 16 {
		t.Errorf("defaults = %q, %v, %d", cond, rel, steps)
	}
	if mode != "fn-free" {
		t.Errorf("mode = %q, want fn-free", mode)
	}
	// No script path leaves the flags untouched.
	cond2 := "n > 0.5 +/- 0.1"
	if err := applyScriptDefaults("", &cond2, &rel, &steps, &adapt, &mode, &email); err != nil {
		t.Fatal(err)
	}
	if cond2 != "n > 0.5 +/- 0.1" {
		t.Errorf("empty path changed condition to %q", cond2)
	}
	if err := applyScriptDefaults("/nonexistent.yml", &cond, &rel, &steps, &adapt, &mode, &email); err == nil {
		t.Error("missing script should fail")
	}
}

// TestRunBatchRemoteScopedProject: -project routes the batch to that
// tenant's plan endpoint, whose config (not the default project's)
// resolves parameterless queries.
func TestRunBatchRemoteScopedProject(t *testing.T) {
	ts, labels := testControlPlane(t)
	body, _ := json.Marshal(server.CreateProjectRequest{
		ID: "team-a",
		ProjectSpec: server.ProjectSpec{
			Condition: "n > 0.7 +/- 0.12", Reliability: 0.99, Steps: 5,
			Labels: labels, Classes: 4, ModelPredictions: labels,
		},
	})
	resp, err := http.Post(ts.URL+"/api/v1/projects", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create project = %d", resp.StatusCode)
	}

	path := writeQueriesFile(t, `[{}]`)
	var out bytes.Buffer
	if err := runBatch(path, ts.URL, "team-a", "", 0.9999, 32, "full", "fp-free", "", 0.1, &out); err != nil {
		t.Fatal(err)
	}
	var br server.BatchPlanResponse
	if err := json.Unmarshal(out.Bytes(), &br); err != nil {
		t.Fatalf("bad JSON output: %v: %s", err, out.String())
	}
	if len(br.Results) != 1 || br.Results[0].Plan == nil {
		t.Fatalf("results = %+v", br.Results)
	}
	if p := br.Results[0].Plan; p.Steps != 5 || p.Condition != "n > 0.7 +/- 0.12" {
		t.Errorf("plan resolved against the wrong project's config: %+v", p)
	}
	if err := runBatch(path, ts.URL, "ghost", "", 0.9999, 32, "full", "fp-free", "", 0.1, io.Discard); err == nil {
		t.Error("unknown project should fail")
	}
}
