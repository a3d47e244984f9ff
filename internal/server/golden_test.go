package server

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/easeml/ci/internal/engine"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/script"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// TestGoldenResponsesAndWAL pins the served behaviour of a durable server
// byte for byte: every response body of a fixed seeded script (twelve
// commits around one rotation), the write-ahead log it leaves behind and
// the snapshot its clean shutdown writes. The script runs under the
// default early-decision evaluation and with early decision disabled, for
// a fully-labeled condition and two active-labeling ones. Verdicts, label
// charges, reveal sets, response bodies and WAL records all feed these
// bytes, so a change to the evaluation path that is meant to preserve
// behaviour must leave them untouched. Run with -update to regenerate
// after a deliberate change.
func TestGoldenResponsesAndWAL(t *testing.T) {
	conds := []struct{ name, cond string }{
		{"baseline", "n > 0.6 +/- 0.1"},
		{"active", "d < 0.2 +/- 0.15 /\\ n - o > -0.5 +/- 0.45"},
		// Tight enough on n - o that the early loop reveals labels.
		{"active-tight", "d < 0.3 +/- 0.2 /\\ n - o > 0 +/- 0.1"},
	}
	early := []struct {
		name string
		ed   engine.EarlyDecision
	}{
		{"early", engine.EarlyDecision{}},
		{"static", engine.EarlyDecision{Disable: true}},
	}
	for _, c := range conds {
		for _, e := range early {
			name := c.name + "-" + e.name
			t.Run(name, func(t *testing.T) {
				responses, walBytes, snapBytes := runGoldenScript(t, c.cond, e.ed)
				dir := filepath.Join("testdata", "golden", name)
				checkGolden(t, filepath.Join(dir, "responses.txt"), responses)
				checkGolden(t, filepath.Join(dir, "wal.log"), walBytes)
				checkGolden(t, filepath.Join(dir, "snapshot.json"), snapBytes)
			})
		}
	}
}

// runGoldenScript drives the fixed script through a fresh durable server
// and returns the transcript of response bodies, the final log bytes, and
// the snapshot a clean shutdown then writes.
func runGoldenScript(t *testing.T, cond string, ed engine.EarlyDecision) (responses, walBytes, snapBytes []byte) {
	t.Helper()
	const size, steps = 700, 6
	rng := rand.New(rand.NewSource(1701))
	labels := make([]int, size)
	for i := range labels {
		labels[i] = rng.Intn(testClasses)
	}
	h0 := goodPredictions(t, labels, 0.6, 2)
	g := Genesis{
		Condition:        cond,
		Reliability:      0.99,
		Mode:             interval.FPFree,
		Adaptivity:       script.Adaptivity{Kind: script.AdaptivityFull},
		Steps:            steps,
		Labels:           labels,
		Classes:          testClasses,
		ModelName:        "h0",
		ModelPredictions: h0,
	}
	dir := t.TempDir()
	srv, err := openTestTenant(g, dir, Options{
		WALNoSync:     true,
		CompactAt:     -1,
		EarlyDecision: ed,
	})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			closeTestTenant(srv)
		}
	}()

	var out bytes.Buffer
	record := func(method, path string, body any) {
		rec, _ := doJSON(t, srv, method, path, body)
		fmt.Fprintf(&out, "%s %s %d\n%s", method, path, rec.Code, rec.Body.Bytes())
		if !bytes.HasSuffix(rec.Body.Bytes(), []byte("\n")) {
			out.WriteByte('\n')
		}
	}
	// Candidates are perturbations of h0: a share of examples fixed to
	// the true label and a share broken to a wrong one. That mixes clear
	// passes, clear fails and near-threshold commits; the "far" candidates
	// rewrite most of the vector, so their disagreement with the baseline
	// sinks the active condition's d-clause before any label is paid.
	type perturb struct{ fix, brk float64 }
	script := []perturb{{0.5, 0}, {0, 0.4}, {0.1, 0.05}, {0.9, 0.9}, {0.2, 0}, {0.02, 0.1}}
	commit := 0
	for gen := 0; gen < 2; gen++ {
		for i := 0; i < steps; i++ {
			p := script[(i+gen)%len(script)]
			prng := rand.New(rand.NewSource(int64(100 + commit)))
			preds := append([]int(nil), h0...)
			for j := range preds {
				switch u := prng.Float64(); {
				case u < p.fix:
					preds[j] = labels[j]
				case u < p.fix+p.brk:
					preds[j] = (labels[j] + 1) % testClasses
				}
			}
			record(http.MethodPost, "/api/v1/commit", CommitRequest{
				Model: fmt.Sprintf("m%d", commit), Author: "dev", Message: fmt.Sprintf("c%d", commit),
				Predictions: preds,
			})
			commit++
		}
		if gen == 0 {
			next := make([]int, size)
			for i := range next {
				next[i] = rng.Intn(testClasses)
			}
			record(http.MethodPost, "/api/v1/testset", RotateRequest{
				Labels:            next,
				ActivePredictions: h0,
			})
			labels = next
		}
	}
	record(http.MethodGet, "/api/v1/history", nil)
	record(http.MethodGet, "/api/v1/status", nil)

	walBytes, err = os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	// A clean shutdown compacts the log into a snapshot, which carries
	// the engine's revealed-label set and label ledger.
	closeTestTenant(srv)
	closed = true
	snapBytes, err = os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), walBytes, snapBytes
}

// checkGolden compares got with the golden file at path, or rewrites the
// file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: first difference at line %d:\ngot:  %.300s\nwant: %.300s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
