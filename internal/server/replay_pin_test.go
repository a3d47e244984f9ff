package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/wal"
)

// TestReplayPins pins what replay makes of each record type the golden
// script never writes: job.cancel, webhook, job.park and rollback. Each
// scenario leaves a raw log (the tenant is abandoned, so nothing is
// compacted) whose last record is the one under test, and is reopened
// twice: from the clean log, and from the log with its last line torn
// in half. Each reopen records every job's status, the history and
// status bodies, any webhook the restart redelivers, and the log as
// reopen left it (its records' sequence numbers and types, and the
// SHA-256 of its bytes) in testdata/replay/<scenario>.txt. Run with
// -update to regenerate after a deliberate change.
func TestReplayPins(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	opts := func() Options {
		return Options{Clock: testClock, WALNoSync: true, CompactAt: -1, Webhooks: notify.NewOutbox()}
	}
	submit := func(t *testing.T, srv *Server, model, webhook string, seed int64) string {
		t.Helper()
		rec := doH(t, tenantHandler(srv), http.MethodPost, "/api/v1/commit/async", AsyncCommitRequest{
			CommitRequest: CommitRequest{
				Model: model, Author: "dev", Message: "pin",
				Predictions: goodPredictions(t, labels, 0.9, seed),
			},
			Webhook: webhook,
		})
		if rec.Code != http.StatusAccepted {
			t.Fatalf("async submit = %d: %s", rec.Code, rec.Body.String())
		}
		var acc JobAcceptedResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &acc); err != nil {
			t.Fatal(err)
		}
		return acc.JobID
	}
	run := func(t *testing.T, srv *Server) {
		t.Helper()
		if !srv.pool.RunOne() {
			t.Fatal("no job ran")
		}
	}
	open := func(t *testing.T, dir string, o Options) *Server {
		t.Helper()
		srv, err := openTestTenant(g, dir, o)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	scenarios := []struct {
		name string
		// write leaves a raw log in dir and returns the job IDs to poll.
		write func(t *testing.T, dir string) []string
	}{
		{"cancel", func(t *testing.T, dir string) []string {
			srv := open(t, dir, opts())
			a := submit(t, srv, "m0", "", 10)
			b := submit(t, srv, "m1", "", 11)
			run(t, srv)
			if rec := doH(t, tenantHandler(srv), http.MethodDelete, jobsPath+b, nil); rec.Code != http.StatusOK {
				t.Fatalf("cancel = %d: %s", rec.Code, rec.Body.String())
			}
			return []string{a, b}
		}},
		{"webhook", func(t *testing.T, dir string) []string {
			srv := open(t, dir, opts())
			a := submit(t, srv, "m0", "http://hooks.invalid/a", 10)
			run(t, srv)
			if n := srv.RunDueWebhooks(); n != 1 {
				t.Fatalf("webhook attempts = %d, want 1", n)
			}
			return []string{a}
		}},
		{"park", func(t *testing.T, dir string) []string {
			o := opts()
			o.OracleFactory = flakyFactory(1000)
			srv := open(t, dir, o)
			a := submit(t, srv, "m0", "", 10)
			run(t, srv)
			if st := jobState(t, srv, a); st.State != "awaiting_labels" {
				t.Fatalf("job = %+v, want awaiting_labels", st)
			}
			return []string{a}
		}},
		{"rollback", func(t *testing.T, dir string) []string {
			// A commit whose audit records reached the log but whose commit
			// record did not: the reopen below discards those records and
			// appends a rollback, and the re-run job commits after it.
			srv := open(t, dir, opts())
			a := submit(t, srv, "m0", "", 10)
			run(t, srv)
			path := filepath.Join(dir, "wal.log")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			cut := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
			if !bytes.Contains(raw[cut:], []byte(`"t":"`+recTypeCommit+`"`)) {
				t.Fatalf("last record is not the commit: %.120s", raw[cut:])
			}
			if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			srv = open(t, dir, opts())
			run(t, srv)
			return []string{a}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			ids := sc.write(t, dir)
			raw, err := os.ReadFile(filepath.Join(dir, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			last := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
			var out bytes.Buffer
			for _, v := range []struct {
				name string
				log  []byte
			}{
				{"clean", raw},
				{"torn", raw[:last+(len(raw)-last)/2]},
			} {
				fmt.Fprintf(&out, "== %s\n", v.name)
				vdir := t.TempDir()
				if err := os.WriteFile(filepath.Join(vdir, "wal.log"), v.log, 0o644); err != nil {
					t.Fatal(err)
				}
				outbox := notify.NewOutbox()
				o := opts()
				o.Webhooks = outbox
				srv := open(t, vdir, o)
				reopened, err := os.ReadFile(filepath.Join(vdir, "wal.log"))
				if err != nil {
					t.Fatal(err)
				}
				for _, id := range ids {
					rec := doH(t, tenantHandler(srv), http.MethodGet, jobsPath+id, nil)
					fmt.Fprintf(&out, "job %s %d %s", id, rec.Code, rec.Body.Bytes())
				}
				fmt.Fprintf(&out, "history %s", getBody(t, srv, "/api/v1/history"))
				fmt.Fprintf(&out, "status %s", getBody(t, srv, "/api/v1/status"))
				srv.RunDueWebhooks()
				for _, n := range outbox.Messages() {
					fmt.Fprintf(&out, "redelivered %s %s\n", n.To, n.Subject)
				}
				_, records, err := wal.Read(vdir)
				if err != nil {
					t.Fatal(err)
				}
				closeTestTenant(srv)
				for _, r := range records {
					fmt.Fprintf(&out, "record %d %s\n", r.Seq, r.Type)
				}
				fmt.Fprintf(&out, "log %d bytes sha256 %x\n", len(reopened), sha256.Sum256(reopened))
			}
			checkGolden(t, filepath.Join("testdata", "replay", sc.name+".txt"), out.Bytes())
		})
	}
}
