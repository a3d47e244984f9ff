package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"strings"
	"testing"

	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/queue"
	"github.com/easeml/ci/internal/wal"
)

// seedDurableLog runs a small live workload (one sync commit, one
// rotation) against a fresh data dir and abandons the server, leaving a
// raw write-ahead log — the base material for tamper tests.
func seedDurableLog(t *testing.T, g Genesis, labels []int) []wal.Record {
	t.Helper()
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
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/testset", RotateRequest{
		Labels:            labels,
		ActivePredictions: goodPredictions(t, labels, 0.9, 20),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("rotate status = %d: %s", rec.Code, rec.Body.String())
	}
	waitQuiescent(t, srv, 0)
	// Abandon without Close: no compaction, the raw record stream stays.
	log, snap, records, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	if snap != nil {
		t.Fatal("abandoned server must not have compacted")
	}
	return records
}

// writeLog materializes a record stream into a fresh data dir with valid
// framing (sequence numbers and CRCs are reassigned), so tamper tests
// exercise recovery's semantic checks rather than the CRC layer.
func writeLog(t *testing.T, records []wal.Record) string {
	t.Helper()
	dir := t.TempDir()
	log, _, _, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	for _, r := range records {
		if _, err := log.Append(r.Type, r.Data); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestDurableRecoveryRejectsTamperedLog: recovery re-executes the log
// through the real engine and cross-checks every logged outcome; any
// divergence — a response that doesn't reproduce, audit records out of
// step, records referencing unknown jobs — must fail loudly instead of
// serving a history the log doesn't vouch for.
func TestDurableRecoveryRejectsTamperedLog(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	base := seedDurableLog(t, g, labels)

	find := func(typ string) int {
		for i, r := range base {
			if r.Type == typ {
				return i
			}
		}
		t.Fatalf("base log has no %s record", typ)
		return -1
	}
	clone := func() []wal.Record { return append([]wal.Record(nil), base...) }

	cases := []struct {
		name    string
		mutate  func() []wal.Record
		wantErr string
	}{
		{"tampered response", func() []wal.Record {
			recs := clone()
			i := find(recTypeCommit)
			var r recCommit
			if err := json.Unmarshal(recs[i].Data, &r); err != nil {
				t.Fatal(err)
			}
			r.Res = json.RawMessage(`{"forged":true}`)
			raw, _ := json.Marshal(r)
			recs[i].Data = raw
			return recs
		}, "diverges from log"},
		{"forged failure", func() []wal.Record {
			recs := clone()
			i := find(recTypeCommit)
			var r recCommit
			if err := json.Unmarshal(recs[i].Data, &r); err != nil {
				t.Fatal(err)
			}
			r.Res, r.Err = nil, "boom"
			raw, _ := json.Marshal(r)
			recs[i].Data = raw
			return recs
		}, "logged failure"},
		{"tampered audit", func() []wal.Record {
			recs := clone()
			i := find(recTypeReveal)
			recs[i].Data = json.RawMessage(`{"count":999999}`)
			return recs
		}, "replay produced"},
		{"extra audit record", func() []wal.Record {
			recs := clone()
			i := find(recTypeReveal)
			extra := recs[i]
			return append(recs[:i:i], append([]wal.Record{extra}, recs[i:]...)...)
		}, ""},
		{"commit without submit", func() []wal.Record {
			recs := clone()
			i := find(recTypeSubmit)
			return append(recs[:i:i], recs[i+1:]...)
		}, "unknown job"},
		{"duplicate submit", func() []wal.Record {
			recs := clone()
			i := find(recTypeSubmit)
			return append(recs, recs[i])
		}, "duplicate submit"},
		{"cancel for unknown job", func() []wal.Record {
			raw, _ := json.Marshal(recCancel{Job: "ghost"})
			return append(clone(), wal.Record{Type: recTypeCancel, Data: raw})
		}, "cancel for unknown job"},
		{"unknown record type", func() []wal.Record {
			return append(clone(), wal.Record{Type: "gibberish", Data: json.RawMessage(`{}`)})
		}, "unknown type"},
		{"tampered rotation generation", func() []wal.Record {
			recs := clone()
			i := find(recTypeRotate)
			var r recRotate
			if err := json.Unmarshal(recs[i].Data, &r); err != nil {
				t.Fatal(err)
			}
			r.Generation = 99
			raw, _ := json.Marshal(r)
			recs[i].Data = raw
			return recs
		}, "log says 99"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := writeLog(t, tc.mutate())
			srv, err := openTestTenant(g, dir, Options{}, false)
			if err == nil {
				closeTestTenant(srv)
				t.Fatal("recovery accepted a tampered log")
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}

	t.Run("garbage snapshot payload", func(t *testing.T) {
		dir := t.TempDir()
		log, _, _, err := wal.Open(dir, wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Compact(42); err != nil {
			t.Fatal(err)
		}
		log.Close()
		if srv, err := openTestTenant(g, dir, Options{}, false); err == nil {
			closeTestTenant(srv)
			t.Fatal("recovery accepted a non-object snapshot")
		} else if !strings.Contains(err.Error(), "snapshot") {
			t.Errorf("error = %v, want a snapshot error", err)
		}
	})

	t.Run("unrestorable engine snapshot", func(t *testing.T) {
		dir := t.TempDir()
		log, _, _, err := wal.Open(dir, wal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := log.Compact(walSnapshot{}); err != nil {
			t.Fatal(err)
		}
		log.Close()
		if srv, err := openTestTenant(g, dir, Options{}, false); err == nil {
			closeTestTenant(srv)
			t.Fatal("recovery accepted an empty engine snapshot")
		}
	})
}

// TestDurableCompactFailurePoisons: a compaction that cannot write its
// snapshot (the data directory vanished) poisons the server — the admin
// endpoint answers 503 and further mutations are refused rather than
// acknowledged into a log that cannot hold them.
func TestDurableCompactFailurePoisons(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	dir := t.TempDir()
	srv, err := openTestTenant(g, dir, Options{}, false)
	if err != nil {
		t.Fatal(err)
	}
	defer closeTestTenant(srv)
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "m0", Author: "dev", Message: "x",
		Predictions: goodPredictions(t, labels, 0.9, 10),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("commit status = %d: %s", rec.Code, rec.Body.String())
	}
	// The open log fd survives the unlink; only the snapshot rename has
	// nowhere to land.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := srv.Compact(); !errors.Is(err, errWALPoisoned) {
		t.Fatalf("compact error = %v, want the poisoned log", err)
	}
	rec, _ = doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "m1", Author: "dev", Message: "x",
		Predictions: goodPredictions(t, labels, 0.9, 11),
	})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-poison commit status = %d: %s", rec.Code, rec.Body.String())
	}
}

// TestDurableCancelAndPruneAcrossRestart: a canceled job is journaled
// before its state flips (so it can never resurrect as queued), and
// compaction prunes terminal delivery-resolved jobs beyond the retain
// bound — both surviving a restart from the resulting snapshot.
func TestDurableCancelAndPruneAcrossRestart(t *testing.T) {
	g, labels := durableGenesis(t, 8, testSize)
	dir := t.TempDir()
	srv, err := openTestTenant(g, dir, Options{QueueRetain: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
			CommitRequest: CommitRequest{
				Model: "m", Author: "dev", Message: "x",
				Predictions: goodPredictions(t, labels, 0.9, int64(30+i)),
			},
		})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("async %d status = %d: %s", i, rec.Code, rec.Body.String())
		}
		var acc JobAcceptedResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, acc.JobID)
	}
	// Cancel the last job while it is still queued, then run the rest.
	rec, _ := doJSON(t, srv, http.MethodDelete, "/api/v1/commit/jobs/"+ids[4], nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel status = %d: %s", rec.Code, rec.Body.String())
	}
	for i := 0; i < 4; i++ {
		if !srv.pool.RunOne() {
			t.Fatalf("job %d did not run", i)
		}
	}
	if st := srv.WALStats(); st == nil || st.Appends == 0 {
		t.Fatalf("durable server WAL stats = %+v", st)
	}

	if err := srv.Compact(); err != nil {
		t.Fatalf("compact: %v", err)
	}

	// All five jobs are terminal and webhook-free, so all are prunable;
	// retain=2 kept only the two newest (the done ids[3] and the canceled
	// ids[4]) in the snapshot. Restart from it: only those two jobs are
	// answerable, in the exact states they were journaled with.
	revived, err := openTestTenant(g, dir, Options{QueueRetain: 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer closeTestTenant(revived)
	for _, id := range ids[:3] {
		rec, _ := doJSON(t, revived, http.MethodGet, "/api/v1/commit/jobs/"+id, nil)
		if rec.Code != http.StatusNotFound {
			t.Errorf("pruned job %s status = %d", id, rec.Code)
		}
	}
	if st := decodeJobStatusRec(t, getBody(t, revived, "/api/v1/commit/jobs/"+ids[3])); st.State != "done" {
		t.Errorf("job %s = %+v, want done", ids[3], st)
	}
	st := decodeJobStatusRec(t, getBody(t, revived, "/api/v1/commit/jobs/"+ids[4]))
	if st.State != "failed" || st.Error != queue.ErrCanceled.Error() {
		t.Errorf("canceled job %s = %+v", ids[4], st)
	}
	if revived.pool.RunOne() {
		t.Error("no job should be runnable after restart")
	}
}

// TestDurableCancelReplaysFromRawLog: the cancel record replays from the
// log itself (not just the snapshot) — a crash right after a cancel must
// not resurrect the job as queued.
func TestDurableCancelReplaysFromRawLog(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	dir := t.TempDir()
	srv, err := openTestTenant(g, dir, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
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
	rec, _ = doJSON(t, srv, http.MethodDelete, "/api/v1/commit/jobs/"+acc.JobID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("cancel status = %d: %s", rec.Code, rec.Body.String())
	}
	// Abandon without Close: recovery replays submit + cancel records.
	revived, err := openTestTenant(g, dir, Options{}, true)
	if err != nil {
		t.Fatal(err)
	}
	defer closeTestTenant(revived)
	st := decodeJobStatusRec(t, getBody(t, revived, "/api/v1/commit/jobs/"+acc.JobID))
	if st.State != "failed" || st.Error != queue.ErrCanceled.Error() {
		t.Errorf("canceled job after crash = %+v", st)
	}
	if revived.pool.RunOne() {
		t.Error("canceled job must not re-enqueue")
	}
}
