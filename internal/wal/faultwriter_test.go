package wal_test

import (
	"errors"
	"testing"

	"github.com/easeml/ci/internal/wal"
	"github.com/easeml/ci/internal/wal/faultfs"
)

// TestFailingWriterFailsAppend: a write fault scripted after a clean
// append fails the next append without writing or consuming a sequence
// number, counts it in the log's stats, and the append after it succeeds.
func TestFailingWriterFailsAppend(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New()
	l, _, _, err := wal.Open(dir, wal.Options{NoSync: true, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append("commit", map[string]int{"n": 1}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	fs.Add(faultfs.Fault{Op: faultfs.OpWrite, Err: boom})
	if _, err := l.Append("commit", map[string]int{"n": 2}); !errors.Is(err, boom) {
		t.Fatalf("append with failing writer: %v", err)
	}
	if st := l.Stats(); st.AppendErrors != 1 || st.Appends != 1 || st.LastSeq != 1 {
		t.Fatalf("stats = %+v", st)
	}
	seq, err := l.Append("commit", map[string]int{"n": 3})
	if err != nil || seq != 2 {
		t.Fatalf("append after failure: seq=%d err=%v", seq, err)
	}
	l.Close()
	_, _, recs, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("replayed %d records, want 2", len(recs))
	}
}
