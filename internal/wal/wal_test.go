package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type testPayload struct {
	Name string `json:"name"`
	N    int    `json:"n"`
}

func openT(t *testing.T, dir string) (*Log, *Snapshot, []Record) {
	t.Helper()
	l, snap, recs, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, snap, recs
}

func appendN(t *testing.T, l *Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append("commit", testPayload{Name: fmt.Sprintf("rec-%d", i), N: i}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, snap, recs := openT(t, dir)
	if snap != nil || len(recs) != 0 {
		t.Fatalf("fresh log: snap=%v records=%d", snap, len(recs))
	}
	appendN(t, l, 5)
	if got := l.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
	l.Close()

	l2, snap2, recs2 := openT(t, dir)
	defer l2.Close()
	if snap2 != nil {
		t.Fatalf("unexpected snapshot")
	}
	if len(recs2) != 5 {
		t.Fatalf("replayed %d records, want 5", len(recs2))
	}
	for i, r := range recs2 {
		if r.Seq != uint64(i+1) || r.Type != "commit" {
			t.Fatalf("record %d = {%d %q}", i, r.Seq, r.Type)
		}
		var p testPayload
		if err := json.Unmarshal(r.Data, &p); err != nil {
			t.Fatalf("payload %d: %v", i, err)
		}
		if p.N != i || p.Name != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("payload %d = %+v", i, p)
		}
	}
	if st := l2.Stats(); st.Replayed != 5 || st.TornTruncated != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Appends continue the sequence.
	seq, err := l2.Append("commit", testPayload{N: 99})
	if err != nil || seq != 6 {
		t.Fatalf("Append after reopen: seq=%d err=%v", seq, err)
	}
}

// TestTornTailTruncatedAtEveryOffset cuts the log after every byte and
// asserts recovery always yields a whole-record prefix: pre- or
// post-record state, never a torn record.
func TestTornTailTruncatedAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir)
	appendN(t, l, 4)
	l.Close()
	raw, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	// Record boundaries = offsets just after each newline.
	boundaries := map[int]int{0: 0} // cut offset -> records expected
	n := 0
	for i, b := range raw {
		if b == '\n' {
			n++
			boundaries[i+1] = n
		}
	}
	for cut := 0; cut <= len(raw); cut++ {
		sub := t.TempDir()
		if err := os.WriteFile(filepath.Join(sub, logName), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, _, recs := openT(t, sub)
		wantRecs, atBoundary := boundaries[cut]
		if atBoundary {
			if len(recs) != wantRecs {
				t.Fatalf("cut %d (boundary): %d records, want %d", cut, len(recs), wantRecs)
			}
			if st := l2.Stats(); st.TornTruncated != 0 {
				t.Fatalf("cut %d: truncated %d bytes at a clean boundary", cut, st.TornTruncated)
			}
		} else {
			// Mid-record cut: everything before the last boundary survives.
			prev := 0
			for off, cnt := range boundaries {
				if off <= cut && cnt > prev {
					prev = cnt
				}
			}
			if len(recs) != prev {
				t.Fatalf("cut %d: %d records, want %d", cut, len(recs), prev)
			}
			if st := l2.Stats(); st.TornTruncated == 0 {
				t.Fatalf("cut %d: expected torn-tail truncation", cut)
			}
		}
		// The truncated log must be cleanly appendable and re-openable.
		if _, err := l2.Append("commit", testPayload{N: 7}); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		l2.Close()
		l3, _, recs3 := openT(t, sub)
		if len(recs3) != wantRecsAfter(boundaries, cut)+1 {
			t.Fatalf("cut %d: reopen saw %d records", cut, len(recs3))
		}
		l3.Close()
	}
}

func wantRecsAfter(boundaries map[int]int, cut int) int {
	prev := 0
	for off, cnt := range boundaries {
		if off <= cut && cnt > prev {
			prev = cnt
		}
	}
	return prev
}

func TestCRCFlipDetected(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir)
	appendN(t, l, 2)
	l.Close()
	path := filepath.Join(dir, logName)
	raw, _ := os.ReadFile(path)
	// Flip one payload byte of the LAST record: CRC fails, treated as torn
	// tail (crash during that write), so only record 1 survives.
	lines := strings.SplitAfter(string(raw), "\n")
	tampered := strings.Replace(lines[1], "rec-1", "rec-X", 1)
	os.WriteFile(path, []byte(lines[0]+tampered), 0o644)
	l2, _, recs := openT(t, dir)
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("after tail flip: %d records", len(recs))
	}
	l2.Close()
}

func TestMidLogCorruptionIsError(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir)
	appendN(t, l, 3)
	l.Close()
	path := filepath.Join(dir, logName)
	raw, _ := os.ReadFile(path)
	lines := strings.SplitAfter(string(raw), "\n")
	// Corrupt record 2 while records 1 and 3 stay valid.
	tampered := strings.Replace(lines[1], "rec-1", "rec-X", 1)
	os.WriteFile(path, []byte(lines[0]+tampered+lines[2]), 0o644)
	_, _, _, err := Open(dir, Options{NoSync: true})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption: err = %v, want ErrCorrupt", err)
	}
}

// TestReadIsReadOnly: Read hands back what Open would — the snapshot and
// the records beyond it, a torn tail left out — without cutting the tail
// off the file, and refuses mid-log damage and a bad snapshot CRC with
// ErrCorrupt.
func TestReadIsReadOnly(t *testing.T) {
	if snap, recs, err := Read(t.TempDir()); snap != nil || recs != nil || err != nil {
		t.Fatalf("empty dir: Read = %v, %v, %v", snap, recs, err)
	}
	dir := t.TempDir()
	l, _, _ := openT(t, dir)
	appendN(t, l, 2)
	if err := l.Compact(testPayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 3)
	l.Close()
	path := filepath.Join(dir, logName)
	raw, _ := os.ReadFile(path)
	torn := append(raw, `{"s":6,"t":"commit"`...)
	os.WriteFile(path, torn, 0o644)
	snap, recs, err := Read(dir)
	if err != nil || snap == nil || snap.LastSeq != 2 || len(recs) != 3 || recs[0].Seq != 3 {
		t.Fatalf("Read = %+v, %d records, %v; want the snapshot at 2 and records 3-5", snap, len(recs), err)
	}
	if got, _ := os.ReadFile(path); string(got) != string(torn) {
		t.Fatal("Read changed the log file")
	}

	lines := strings.SplitAfter(string(raw), "\n")
	os.WriteFile(path, []byte(lines[0]+strings.Replace(lines[1], "rec-1", "rec-X", 1)+lines[2]), 0o644)
	if _, _, err := Read(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-log corruption: err = %v, want ErrCorrupt", err)
	}
	os.WriteFile(path, raw, 0o644)
	snapPath := filepath.Join(dir, snapshotName)
	rawSnap, _ := os.ReadFile(snapPath)
	os.WriteFile(snapPath, []byte(strings.Replace(string(rawSnap), `"n":2`, `"n":3`, 1)), 0o644)
	if _, _, err := Read(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestSnapshotCompactReplay(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir)
	appendN(t, l, 10)
	if err := l.Compact(testPayload{Name: "state", N: 10}); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if l.Size() != 0 {
		t.Fatalf("log size after compaction = %d", l.Size())
	}
	// Post-snapshot records continue the global sequence.
	seq, err := l.Append("commit", testPayload{N: 11})
	if err != nil || seq != 11 {
		t.Fatalf("post-compaction append: seq=%d err=%v", seq, err)
	}
	l.Sync()
	l.Close()

	l2, snap, recs := openT(t, dir)
	defer l2.Close()
	if snap == nil || snap.LastSeq != 10 {
		t.Fatalf("snapshot = %+v", snap)
	}
	var p testPayload
	if err := json.Unmarshal(snap.Data, &p); err != nil || p.N != 10 || p.Name != "state" {
		t.Fatalf("snapshot payload = %+v err=%v", p, err)
	}
	if len(recs) != 1 || recs[0].Seq != 11 {
		t.Fatalf("post-snapshot records = %+v", recs)
	}
}

// TestSnapshotCoversStaleLogRecords models a crash between the snapshot
// rename and the log truncation: the log still holds records the snapshot
// already covers, and replay must skip them by sequence number.
func TestSnapshotCoversStaleLogRecords(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir)
	appendN(t, l, 6)
	logBytes, _ := os.ReadFile(filepath.Join(dir, logName))
	if err := l.Compact(testPayload{Name: "state", N: 6}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Put the pre-compaction log back (the crash left it behind).
	os.WriteFile(filepath.Join(dir, logName), logBytes, 0o644)
	l2, snap, recs := openT(t, dir)
	defer l2.Close()
	if snap == nil || snap.LastSeq != 6 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if len(recs) != 0 {
		t.Fatalf("replayed %d stale records, want 0", len(recs))
	}
	if got := l2.LastSeq(); got != 6 {
		t.Fatalf("LastSeq = %d, want 6", got)
	}
}

func TestCorruptSnapshotIsError(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir)
	appendN(t, l, 2)
	if err := l.Compact(testPayload{N: 2}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	path := filepath.Join(dir, snapshotName)
	raw, _ := os.ReadFile(path)
	os.WriteFile(path, []byte(strings.Replace(string(raw), "\"n\":2", "\"n\":3", 1)), 0o644)
	_, _, _, err := Open(dir, Options{NoSync: true})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt snapshot: err = %v, want ErrCorrupt", err)
	}
}

func TestEmptyAndWhitespacePayloads(t *testing.T) {
	dir := t.TempDir()
	l, _, _ := openT(t, dir)
	if _, err := l.Append("genesis", map[string]any{"labels": []int{0, 1, 2}, "note": "a|b\nc"}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, _, recs := openT(t, dir)
	if len(recs) != 1 {
		t.Fatalf("replayed %d", len(recs))
	}
	var m map[string]any
	if err := json.Unmarshal(recs[0].Data, &m); err != nil || m["note"] != "a|b\nc" {
		t.Fatalf("payload = %v err=%v", m, err)
	}
}

// rawPayload encodes itself through Encoder.
type rawPayload string

func (p rawPayload) AppendJSON(dst []byte) ([]byte, error) { return append(dst, p...), nil }

// TestLineBytesMatchFormat pins the on-disk line and snapshot formats to
// the fmt-built lines and the fmt-fed CRC they were defined by, for
// reflected and self-encoding payloads and for types %q must escape.
func TestLineBytesMatchFormat(t *testing.T) {
	oldCRC := func(seq uint64, typ string, data []byte) uint32 {
		h := crc32.New(castagnoli)
		fmt.Fprintf(h, "%d|%s|", seq, typ)
		h.Write(data)
		return h.Sum32()
	}
	dir := t.TempDir()
	log, _, _, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	payloads := []any{
		map[string]int{"a": 1},
		rawPayload(`{"job":"job-1","req":{"predictions":[0,1,2,3]}}`),
		rawPayload("[" + strings.Repeat("[1,2,3,4],", 300) + "0]"),
		struct{ S string }{"< >"},
	}
	for i, typ := range []string{"job.submit", `q"uote`, "\xff\x01", "é", strings.Repeat("long.", 40)} {
		p := payloads[i%len(payloads)]
		data, err := encodePayload(nil, p)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := log.Append(typ, p)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&want, "{\"s\":%d,\"t\":%q,\"c\":%d,\"d\":%s}\n", seq, typ, oldCRC(seq, typ, data), data)
	}
	got, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want.String() {
		t.Fatalf("log lines:\n got  %q\n want %q", got, want.String())
	}
	p := rawPayload(`{"state":[1,2]}`)
	snap, err := log.SnapshotBytes(p)
	if err != nil {
		t.Fatal(err)
	}
	seq := log.LastSeq()
	if w := fmt.Sprintf("{\"s\":%d,\"c\":%d,\"d\":%s}\n", seq, oldCRC(seq, "snapshot", []byte(p)), p); string(snap) != w {
		t.Fatalf("snapshot bytes:\n got  %q\n want %q", snap, w)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}
