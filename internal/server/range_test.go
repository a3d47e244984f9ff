package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
)

// rangeCases are commits whose prediction vector leaves the 4-class
// alphabet at example 3. Each must fail with the model package's range
// error naming the first offending example, whatever column width the
// wire decoder picked for the vector: 7 and 255 fit a byte, -1 and 256 do
// not.
var rangeCases = []struct {
	name string
	bad  map[int]int // example -> prediction
	want string
}{
	{"7-then-255", map[int]int{3: 7, 5: 255}, "model: m-7-then-255 predicted 7 for example 3, outside [0,4)"},
	{"255", map[int]int{3: 255}, "model: m-255 predicted 255 for example 3, outside [0,4)"},
	{"minus-1", map[int]int{3: -1, 4: 9}, "model: m-minus-1 predicted -1 for example 3, outside [0,4)"},
	{"256", map[int]int{3: 256}, "model: m-256 predicted 256 for example 3, outside [0,4)"},
}

// rangeWALSum and rangeSnapSum are the SHA-256 of the log the
// range-error script leaves behind (submit records carrying out-of-range
// vectors, failure commit records, one good commit's audit trail) and of
// the snapshot whose job table carries the same requests.
const (
	rangeWALSum  = "00b0387b4240e8746c5954e6f9f5f1f5917aa003d922b0ff737a5d734b2c9919"
	rangeSnapSum = "18b9fd9ebdaadc3d0006bb2e5e3676ce1c489c09f470be1b4879089beb1e0708"
)

// TestCommitRangeErrors pins the out-of-range path end to end: sync
// commits answer 422 with the range error, async jobs fail with the same
// text, the log those commits leave is byte-identical to the pinned one,
// and a durable restart (from the log, then from the snapshot a clean
// shutdown writes) replays it to the same history without appending.
func TestCommitRangeErrors(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	dir := t.TempDir()
	var tick atomic.Int64
	opts := Options{Clock: func() int64 { return tick.Add(1) }, WALNoSync: true, CompactAt: -1}
	srv, err := openTestTenant(g, dir, opts, false)
	if err != nil {
		t.Fatal(err)
	}
	good := goodPredictions(t, labels, 0.9, 5)
	for i, tc := range rangeCases {
		preds := append([]int(nil), good...)
		for k, v := range tc.bad {
			preds[k] = v
		}
		req := CommitRequest{Model: "m-" + tc.name, Author: "dev", Message: "range", Predictions: preds}
		rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", req)
		wantBody, _ := json.Marshal(errorResponse{Error: tc.want})
		if rec.Code != http.StatusUnprocessableEntity || rec.Body.String() != string(wantBody)+"\n" {
			t.Fatalf("%s: sync commit: status %d body %s, want 422 %s", tc.name, rec.Code, rec.Body.String(), wantBody)
		}
		rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{CommitRequest: req})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("%s: async commit: status %d: %s", tc.name, rec.Code, rec.Body.String())
		}
		var acc JobAcceptedResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
			t.Fatal(err)
		}
		if st := pollUntilTerminal(t, srv, acc.JobID); st.State != "failed" || st.Error != tc.want {
			t.Fatalf("%s: async job ended %+v, want failed with %q", tc.name, st, tc.want)
		}
		if i == 1 {
			rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{Model: "ok", Predictions: good})
			if rec.Code != http.StatusOK {
				t.Fatalf("good commit: status %d: %s", rec.Code, rec.Body.String())
			}
		}
	}
	history := getBody(t, srv, "/api/v1/history")
	walPath := filepath.Join(dir, "wal.log")
	walBytes, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(walBytes); hex.EncodeToString(sum[:]) != rangeWALSum {
		t.Errorf("log bytes changed: sha256 %x, want %s", sum, rangeWALSum)
	}

	// Crash: abandon srv and replay the log.
	restarted, err := openTestTenant(g, dir, opts, false)
	if err != nil {
		t.Fatalf("restart from the log: %v", err)
	}
	if got := getBody(t, restarted, "/api/v1/history"); !bytes.Equal(got, history) {
		t.Errorf("history changed across restart:\n%s\n%s", got, history)
	}
	if got, err := os.ReadFile(walPath); err != nil || !bytes.Equal(got, walBytes) {
		t.Errorf("replay changed the log (err %v)", err)
	}
	for i := 1; i <= 2*len(rangeCases)+1; i++ {
		getBody(t, restarted, fmt.Sprintf("%sjob-%d", jobsPath, i))
	}
	closeTestTenant(restarted)
	snapBytes, err := os.ReadFile(filepath.Join(dir, "snapshot.json"))
	if err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(snapBytes); hex.EncodeToString(sum[:]) != rangeSnapSum {
		t.Errorf("snapshot bytes changed: sha256 %x, want %s", sum, rangeSnapSum)
	}

	fromSnap, err := openTestTenant(g, dir, opts, false)
	if err != nil {
		t.Fatalf("restart from the snapshot: %v", err)
	}
	defer closeTestTenant(fromSnap)
	if got := getBody(t, fromSnap, "/api/v1/history"); !bytes.Equal(got, history) {
		t.Errorf("history changed across the snapshot restart:\n%s\n%s", got, history)
	}
}
