package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func spec(s string) json.RawMessage { return json.RawMessage(s) }

func TestValidID(t *testing.T) {
	for _, ok := range []string{"default", "team-a", "p1", "0x", "a" + strings.Repeat("b", 63)} {
		if err := ValidID(ok); err != nil {
			t.Errorf("ValidID(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "_control", "-lead", "UPPER", "a/b", "a.b", "a b", "a" + strings.Repeat("b", 64)} {
		if err := ValidID(bad); err == nil {
			t.Errorf("ValidID(%q) = nil, want error", bad)
		}
	}
}

func TestLifecycleInMemory(t *testing.T) {
	r, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if err := r.Create("alpha", spec(`{"w":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("beta", spec(`{"w":2}`)); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("alpha", spec(`{}`)); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate create = %v, want ErrExists", err)
	}
	if err := r.Create("Bad ID", spec(`{}`)); err == nil {
		t.Fatal("invalid ID should fail")
	}
	if err := r.Suspend("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := r.Suspend("alpha"); err != nil { // idempotent
		t.Fatal(err)
	}
	if p, ok := r.Get("alpha"); !ok || p.State != Suspended {
		t.Fatalf("alpha = %+v, %v", p, ok)
	}
	if err := r.Resume("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := r.Suspend("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("suspend unknown = %v", err)
	}
	list := r.List()
	if len(list) != 2 || list[0].ID != "alpha" || list[1].ID != "beta" {
		t.Fatalf("list = %+v", list)
	}
	if err := r.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("alpha"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v", err)
	}
	if r.Len() != 1 {
		t.Fatalf("len = %d", r.Len())
	}
	if st := r.Stats(); st != nil {
		t.Fatalf("in-memory stats = %+v, want nil", st)
	}
}

// TestDurableRecovery: every lifecycle mutation survives reopen, in
// creation order, including a create reusing a deleted ID.
func TestDurableRecovery(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := r.Create(fmt.Sprintf("p%d", i), spec(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Suspend("p1"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("p2"); err != nil {
		t.Fatal(err)
	}
	if err := r.Create("p2", spec(`{"n":42}`)); err != nil {
		t.Fatal(err)
	}
	want := r.List()
	// Abandon without Close: the raw log replays.
	r2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	got := r2.List()
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("recovered table diverged:\n  live:      %s\n  recovered: %s", wb, gb)
	}
	if p, _ := r2.Get("p2"); string(p.Spec) != `{"n":42}` {
		t.Fatalf("recreated p2 spec = %s", p.Spec)
	}
	// Clean close compacts: reopening replays the snapshot, not records.
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	r3, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	gb3, _ := json.Marshal(r3.List())
	if string(wb) != string(gb3) {
		t.Fatalf("post-compaction table diverged:\n  live:      %s\n  recovered: %s", wb, gb3)
	}
	if st := r3.Stats(); st == nil || st.SnapshotSeq == 0 {
		t.Fatalf("stats after compaction = %+v, want snapshot in effect", st)
	}
}

// TestRecoveryRefusesDivergence: a log whose records do not apply
// cleanly (delete of an unknown project) fails Open loudly.
func TestRecoveryRefusesDivergence(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Create("solo", spec(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the snapshot into an empty table, keeping the raw log's
	// shape valid: replaying any later suspend must now fail.
	r, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Suspend("solo"); err != nil {
		t.Fatal(err)
	}
	_ = r.log.Close() // abandon uncompacted: suspend record stays in the log
	snapPath := filepath.Join(dir, "snapshot.json")
	b, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	// The snapshot payload is CRC-protected; rewrite it through the wal
	// package's own format by truncating the log dir instead: delete the
	// snapshot so the create record is gone but the suspend remains.
	if err := os.Remove(snapPath); err != nil {
		t.Fatal(err)
	}
	_ = b
	if _, err := Open(dir, Options{NoSync: true}); err == nil {
		t.Fatal("recovery with a dangling suspend record should fail")
	}
}

// TestCompactSnapshotsAndReplays: an explicit Compact folds the journal
// into a snapshot; reopen restores the exact table, order, and states.
func TestCompactSnapshotsAndReplays(t *testing.T) {
	// Memory-only: Compact is a no-op and Stats reports nil.
	mem, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mem.Compact(); err != nil {
		t.Fatalf("in-memory Compact = %v", err)
	}
	if mem.Stats() != nil {
		t.Fatal("in-memory Stats should be nil")
	}

	dir := t.TempDir()
	r, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"alpha", "beta", "gamma"} {
		if err := r.Create(id, spec(fmt.Sprintf(`{"name":%q}`, id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Suspend("beta"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("gamma"); err != nil {
		t.Fatal(err)
	}
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st == nil || st.Compactions == 0 {
		t.Fatalf("Stats after Compact = %+v, want a recorded compaction", st)
	}
	before := r.List()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	after := r.List()
	if len(after) != len(before) || len(after) != 2 {
		t.Fatalf("List after reopen = %+v, want %+v", after, before)
	}
	for i := range after {
		if after[i].ID != before[i].ID || after[i].State != before[i].State ||
			string(after[i].Spec) != string(before[i].Spec) {
			t.Fatalf("project %d diverged after compact+reopen: %+v vs %+v", i, after[i], before[i])
		}
	}
	if p, ok := r.Get("beta"); !ok || p.State != Suspended {
		t.Fatalf("beta after reopen = %+v, %v", p, ok)
	}
}

// TestReplayRawLifecycleRecords: reopening from the raw journal (no
// compaction) replays create, suspend, resume, and delete records.
func TestReplayRawLifecycleRecords(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"a", "b", "c"} {
		if err := r.Create(id, spec(`{}`)); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Suspend("b"); err != nil {
		t.Fatal(err)
	}
	if err := r.Resume("b"); err != nil {
		t.Fatal(err)
	}
	if err := r.Suspend("c"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("a"); ok {
		t.Fatal("deleted project still visible")
	}
	// Abandon without Close so no snapshot is folded: the reopen below
	// must reconstruct the table purely from the lifecycle records.
	_ = r.log.Close()

	r, err = Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 2 {
		t.Fatalf("Len after raw replay = %d, want 2", r.Len())
	}
	if p, ok := r.Get("b"); !ok || p.State != Active {
		t.Fatalf("b after replay = %+v, %v", p, ok)
	}
	if p, ok := r.Get("c"); !ok || p.State != Suspended {
		t.Fatalf("c after replay = %+v, %v", p, ok)
	}
	order := r.List()
	if len(order) != 2 || order[0].ID != "b" || order[1].ID != "c" {
		t.Fatalf("order after replay = %+v", order)
	}
}

// TestBackupRoundTrip: Backup's (snapshot, log) pair, written into a
// fresh directory, reopens to the same project table; a memory-only
// registry has nothing to back up.
func TestBackupRoundTrip(t *testing.T) {
	mem, err := Open("", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap, log, err := mem.Backup(); snap != nil || log != nil || err != nil {
		t.Fatalf("in-memory Backup = %q, %q, %v; want nothing", snap, log, err)
	}

	r, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, id := range []string{"alpha", "beta", "gamma"} {
		if err := r.Create(id, spec(fmt.Sprintf(`{"name":%q}`, id))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Suspend("beta"); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("gamma"); err != nil {
		t.Fatal(err)
	}
	snap, log, err := r.Backup()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) == 0 || len(log) == 0 {
		t.Fatalf("durable Backup returned a %d-byte snapshot and a %d-byte log", len(snap), len(log))
	}
	// Work after the backup is not in it.
	if err := r.Create("delta", spec(`{}`)); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "snapshot.json"), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
		t.Fatal(err)
	}
	restored, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer restored.Close()
	got := restored.List()
	if len(got) != 2 || got[0].ID != "alpha" || got[0].State != Active || got[1].ID != "beta" || got[1].State != Suspended {
		t.Fatalf("restored projects = %+v, want alpha (active) and beta (suspended)", got)
	}
	if string(got[0].Spec) != `{"name":"alpha"}` {
		t.Fatalf("restored alpha spec = %s", got[0].Spec)
	}
}
