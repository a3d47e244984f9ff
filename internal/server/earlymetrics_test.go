package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricsEarlyExitCounters covers the label-savings observability:
// commit responses carry the sequential evaluation's cost fields, the
// process-wide counters in /api/v1/metrics aggregate them (total saved,
// early exits, exits-by-look histogram), and the admin reset clears them.
func TestMetricsEarlyExitCounters(t *testing.T) {
	m := newTestMulti(t, MultiOptions{})
	defer m.Close()
	srv := m.Default()
	_, labels := durableGenesis(t, 3, testSize)

	// A clearly broken candidate (far below the threshold) is the
	// non-borderline case the sequential evaluation wins on.
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "broken", Author: "dev", Message: "x",
		Predictions: goodPredictions(t, labels, 0.2, 11),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("commit status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp CommitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.EarlyExit || resp.Looks == 0 || resp.LabelsSaved == 0 {
		t.Fatalf("clear fail should exit early: %+v", resp)
	}
	if resp.FreshLabels+resp.LabelsSaved != testSize {
		t.Fatalf("fresh %d + saved %d != testset %d", resp.FreshLabels, resp.LabelsSaved, testSize)
	}

	var mr MetricsResponse
	if err := json.Unmarshal(getBody(t, srv, "/api/v1/metrics"), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.LabelsSavedTotal != uint64(resp.LabelsSaved) {
		t.Errorf("labels_saved_total = %d, want %d", mr.LabelsSavedTotal, resp.LabelsSaved)
	}
	if mr.EarlyExitsTotal != 1 {
		t.Errorf("early_exits_total = %d, want 1", mr.EarlyExitsTotal)
	}
	if len(mr.EarlyExitLooks) <= resp.Looks || mr.EarlyExitLooks[resp.Looks] != 1 {
		t.Errorf("early_exit_looks = %v, want a count at look %d", mr.EarlyExitLooks, resp.Looks)
	}

	// An even worse candidate exits early for free: the first commit's
	// labels already pin the verdict at the first look.
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "worse", Author: "dev", Message: "y",
		Predictions: goodPredictions(t, labels, 0.05, 12),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("commit status = %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(getBody(t, srv, "/api/v1/metrics"), &mr); err != nil {
		t.Fatal(err)
	}
	if mr.EarlyExitsTotal != 2 {
		t.Errorf("early_exits_total = %d, want 2", mr.EarlyExitsTotal)
	}

	// The admin reset returns the counters to zero with the rest of the
	// commit statistics.
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects/default/admin/reset-caches", nil); rec.Code != http.StatusOK {
		t.Fatalf("reset status = %d", rec.Code)
	}
	var post MetricsResponse
	if err := json.Unmarshal(getBody(t, srv, "/api/v1/metrics"), &post); err != nil {
		t.Fatal(err)
	}
	if post.LabelsSavedTotal != 0 || post.EarlyExitsTotal != 0 || post.EarlyExitLooks != nil {
		t.Errorf("post-reset savings counters not zero: %+v", post)
	}
}

// TestDurableJournalsLooks: with early decision on (the default), every
// commit's look decision lands in the write-ahead log, and a crash-restart
// replays the sequential evaluation to a byte-identical history — the
// label charges the survivors saw are exactly reproduced.
func TestDurableJournalsLooks(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	dir := t.TempDir()
	srv, err := openTestTenant(g, dir, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "m0", Author: "dev", Message: "x",
		Predictions: goodPredictions(t, labels, 0.2, 10),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("commit status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp CommitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.EarlyExit {
		t.Fatalf("clear fail should exit early: %+v", resp)
	}
	history := getBody(t, srv, "/api/v1/history")

	raw, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"t":"looks"`)) {
		t.Fatal("write-ahead log has no looks record")
	}

	// Crash (no Close): restart replays the log, cross-checking the
	// recorded look decisions against the re-run evaluation.
	restarted, err := openTestTenant(g, dir, Options{}, false)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer closeTestTenant(restarted)
	if got := getBody(t, restarted, "/api/v1/history"); !bytes.Equal(got, history) {
		t.Fatalf("history changed across restart:\n%s\n%s", got, history)
	}
}

// TestMultiMetricsAggregateSavings: the control plane's top-level metrics
// carry the fleet-wide early-decision totals — the sum of every tenant's
// labels_saved_total / early_exits_total.
func TestMultiMetricsAggregateSavings(t *testing.T) {
	m := newTestMulti(t, MultiOptions{})
	defer m.Close()
	_, labels := durableGenesis(t, 3, testSize)

	rec := doH(t, m, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "broken", Author: "dev", Message: "x",
		Predictions: goodPredictions(t, labels, 0.2, 11),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("commit status = %d: %s", rec.Code, rec.Body.String())
	}
	var resp CommitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.EarlyExit || resp.LabelsSaved == 0 {
		t.Fatalf("clear fail should exit early: %+v", resp)
	}

	var mm MultiMetricsResponse
	if err := json.Unmarshal(doH(t, m, http.MethodGet, "/api/v1/metrics", nil).Body.Bytes(), &mm); err != nil {
		t.Fatal(err)
	}
	if mm.LabelsSavedTotal != uint64(resp.LabelsSaved) || mm.EarlyExitsTotal != 1 {
		t.Fatalf("top-level savings = %d/%d, want %d/1",
			mm.LabelsSavedTotal, mm.EarlyExitsTotal, resp.LabelsSaved)
	}
	var sumSaved, sumExits uint64
	for _, p := range mm.Projects {
		sumSaved += p.LabelsSavedTotal
		sumExits += p.EarlyExitsTotal
	}
	if mm.LabelsSavedTotal != sumSaved || mm.EarlyExitsTotal != sumExits {
		t.Fatalf("top-level %d/%d != project sum %d/%d",
			mm.LabelsSavedTotal, mm.EarlyExitsTotal, sumSaved, sumExits)
	}
}
