package server

import (
	"encoding/json"
	"errors"
	"fmt"
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
	srv, err := openTestTenant(g, dir, Options{Webhooks: notify.NewOutbox()})
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
			srv, err := openTestTenant(g, dir, Options{})
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
		if srv, err := openTestTenant(g, dir, Options{}); err == nil {
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
		if srv, err := openTestTenant(g, dir, Options{}); err == nil {
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
	srv, err := openTestTenant(g, dir, Options{})
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
	srv, err := openTestTenant(g, dir, Options{Clock: testClock, QueueRetain: 2})
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
	revived, err := openTestTenant(g, dir, Options{Clock: testClock, QueueRetain: 2})
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
	srv, err := openTestTenant(g, dir, Options{Clock: testClock})
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
	revived, err := openTestTenant(g, dir, Options{Clock: testClock})
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

// TestJobTableLiveTransitionsFindTheirJob pins the invariant that lets
// the live append sites apply job records through the same strict
// jobTable methods replay uses without a new client-visible error: a job
// whose commit or cancel is being appended is queued, and pruning never
// drops a queued job, even at a retain bound of 0.
func TestJobTableLiveTransitionsFindTheirJob(t *testing.T) {
	tb := newJobTable(nil, 0)
	for i := 1; i <= 3; i++ {
		if err := tb.submit(recSubmit{Job: fmt.Sprintf("job-%d", i), Seq: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tb.commit(recCommit{Job: "job-1", Err: "boom"}); err != nil {
		t.Fatal(err)
	}
	tb.prune(0)
	if got := tableIDs(tb); got != "job-2 job-3" {
		t.Fatalf("table after prune(0) = %s, want the two queued jobs", got)
	}
	if err := tb.cancel(recCancel{Job: "job-2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.commit(recCommit{Job: "job-3", Res: json.RawMessage(`{}`)}); err != nil {
		t.Fatal(err)
	}
	// Replay's strictness: what the live sites never produce is refused.
	if err := tb.submit(recSubmit{Job: "job-2", Seq: 2}); err == nil || !strings.Contains(err.Error(), "duplicate submit") {
		t.Errorf("duplicate submit = %v", err)
	}
	if _, err := tb.commit(recCommit{Job: "job-1"}); err == nil || !strings.Contains(err.Error(), "commit for unknown job") {
		t.Errorf("commit of a pruned job = %v", err)
	}
	if err := tb.cancel(recCancel{Job: "ghost"}); err == nil || !strings.Contains(err.Error(), "cancel for unknown job") {
		t.Errorf("cancel of an unknown job = %v", err)
	}

	// Served: compaction at retain 1 prunes finished jobs around queued
	// ones, whose cancel and commit then land in the table, and the log
	// replays strictly.
	g, labels := durableGenesis(t, 8, testSize)
	dir := t.TempDir()
	opts := Options{Clock: testClock, QueueRetain: 1, CompactAt: -1}
	srv, err := openTestTenant(g, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 4; i++ {
		ids = append(ids, submitAsync(t, tenantHandler(srv), "/api/v1/commit/async", labels, fmt.Sprintf("m%d", i), int64(40+i)).JobID)
	}
	srv.pool.RunOne()
	srv.pool.RunOne()
	if err := srv.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := tableIDs(srv.table); got != strings.Join(ids[1:], " ") {
		t.Fatalf("table after compaction = %s, want %v", got, ids[1:])
	}
	if rec, _ := doJSON(t, srv, http.MethodDelete, "/api/v1/commit/jobs/"+ids[2], nil); rec.Code != http.StatusOK {
		t.Fatalf("cancel status = %d: %s", rec.Code, rec.Body.String())
	}
	srv.pool.RunOne()
	for id, want := range map[string]string{ids[2]: jobFailed, ids[3]: jobDone} {
		if e := srv.table.byID[id]; e == nil || e.State != want {
			t.Errorf("table entry %s = %+v, want %s", id, e, want)
		}
	}
	// Abandon without Close: the cancel and commit records replay on top
	// of the pruned snapshot. (A wider retain keeps both pollable.)
	opts.QueueRetain = 3
	revived, err := openTestTenant(g, dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer closeTestTenant(revived)
	if st := jobState(t, revived, ids[2]); st.State != "failed" || st.Error != queue.ErrCanceled.Error() {
		t.Errorf("canceled job after restart = %+v", st)
	}
	if st := jobState(t, revived, ids[3]); st.State != "done" {
		t.Errorf("committed job after restart = %+v", st)
	}
}

// tableIDs lists a job table's IDs in submission order.
func tableIDs(tb jobTable) string {
	ids := make([]string, len(tb.rows))
	for i, e := range tb.rows {
		ids[i] = e.ID
	}
	return strings.Join(ids, " ")
}
