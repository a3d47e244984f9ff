// Package wal is the durability substrate of the CI server: an
// append-only, JSON-lines write-ahead log plus an atomically replaced
// snapshot file. The log owns framing and integrity — sequence numbers,
// a CRC-32C per record, torn-tail truncation on open — and stays agnostic
// of what the records mean: callers append typed payloads and replay the
// decoded records themselves. Recovery is therefore logical replay: the
// server re-executes the logged inputs through the same deterministic
// engine code that produced them, which is what makes a recovered process
// byte-identical to an uninterrupted one.
//
// On-disk layout inside the data directory:
//
//	wal.log        one record per line: {"s":seq,"t":type,"c":crc,"d":payload}
//	snapshot.json  {"s":lastSeq,"c":crc,"d":payload}, replaced atomically
//
// A record whose line is incomplete or fails its CRC at the tail of the
// log is a torn write from a crash: it (and anything after it) is
// truncated away, which is the rollback semantics of a write-ahead log —
// a mutation whose record did not reach the disk never happened. The same
// damage in the middle of the log, with valid records after it, is not a
// crash signature and is reported as corruption instead of being silently
// dropped.
package wal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
)

// ErrCorrupt reports damage the torn-tail rule cannot explain: a bad
// record followed by valid ones, a CRC mismatch in the snapshot, or a
// sequence number that goes backwards.
var ErrCorrupt = errors.New("wal: log corrupt")

const (
	logName      = "wal.log"
	snapshotName = "snapshot.json"
)

// castagnoli is the CRC-32C table (the polynomial with hardware support
// on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Record is one decoded log entry, handed back to the caller at Open for
// replay. Data preserves the exact payload bytes that were appended.
type Record struct {
	Seq  uint64
	Type string
	Data json.RawMessage
}

// Snapshot is the decoded snapshot file: the caller's materialized state
// covering every record with Seq <= LastSeq.
type Snapshot struct {
	LastSeq uint64
	Data    json.RawMessage
}

// Encoder is a payload that appends its own JSON encoding to dst: the
// bytes json.Marshal would write for it, so replay decodes them with
// encoding/json as before. Append, Compact and SnapshotBytes use it in
// place of encoding/json's reflection, which lets a large record be
// encoded in one pass straight into its line.
type Encoder interface {
	AppendJSON(dst []byte) ([]byte, error)
}

// encodePayload appends payload's JSON to dst, through its own encoder
// when it has one.
func encodePayload(dst []byte, payload any) ([]byte, error) {
	if e, ok := payload.(Encoder); ok {
		return e.AppendJSON(dst)
	}
	b, err := json.Marshal(payload)
	return append(dst, b...), err
}

// Options tunes a Log.
type Options struct {
	// NoSync makes Sync a no-op. Tests and benchmarks that measure encode
	// cost (or create hundreds of logs) set it; production leaves it off.
	NoSync bool
	// FS is the filesystem the log reads and writes through; nil means
	// the real one (OSFS). Disk-fault tests inject a faultfs.FS here.
	FS FS
}

// Stats counts a log's lifetime traffic; exposed through the server's
// metrics endpoint.
type Stats struct {
	// Appends / AppendErrors count record appends since open.
	Appends      uint64 `json:"appends"`
	AppendErrors uint64 `json:"append_errors"`
	// Syncs counts fsync calls (0 under NoSync).
	Syncs uint64 `json:"syncs"`
	// Replayed is how many records Open decoded and handed back.
	Replayed int `json:"replayed"`
	// TornTruncated is how many trailing bytes Open cut off as a torn
	// write (0 after a clean shutdown).
	TornTruncated int `json:"torn_truncated_bytes"`
	// SnapshotSeq is the LastSeq of the snapshot in effect (0 = none).
	SnapshotSeq uint64 `json:"snapshot_seq"`
	// Compactions counts Compact calls since open.
	Compactions uint64 `json:"compactions"`
	// LastSeq is the newest durable record's sequence number.
	LastSeq uint64 `json:"last_seq"`
	// SizeBytes is the current log file size.
	SizeBytes int64 `json:"size_bytes"`
}

// Log is an open write-ahead log. Append/Sync/Compact are safe for
// concurrent use; the internal mutex is a leaf lock (Log never calls
// back into the caller).
type Log struct {
	dir  string
	opts Options
	fsys FS

	mu      sync.Mutex
	f       File
	nextSeq uint64
	size    int64
	stats   Stats
}

// Open opens (or creates) the log in dir and returns the snapshot in
// effect (nil if none) plus every decoded record with Seq beyond the
// snapshot, in order, after truncating a torn tail. The caller replays
// snapshot + records to rebuild its state, then appends new records.
func Open(dir string, opts Options) (*Log, *Snapshot, []Record, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, fmt.Errorf("wal: %w", err)
	}
	snap, records, torn, lastSeq, err := read(fsys, dir)
	if err != nil {
		return nil, nil, nil, err
	}
	var snapSeq uint64
	if snap != nil {
		snapSeq = snap.LastSeq
	}
	f, err := fsys.OpenFile(filepath.Join(dir, logName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("wal: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("wal: %w", err)
	}
	if torn > 0 {
		if err := f.Truncate(info.Size() - int64(torn)); err != nil {
			f.Close()
			return nil, nil, nil, fmt.Errorf("wal: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("wal: %w", err)
	}
	next := lastSeq
	if snapSeq > next {
		next = snapSeq
	}
	l := &Log{dir: dir, opts: opts, fsys: fsys, f: f, nextSeq: next, size: info.Size() - int64(torn)}
	l.stats.Replayed = len(records)
	l.stats.TornTruncated = torn
	l.stats.SnapshotSeq = snapSeq
	l.stats.LastSeq = next
	l.stats.SizeBytes = l.size
	return l, snap, records, nil
}

// Read decodes the write-ahead state in dir without opening it for
// writing: the snapshot in effect (nil if none) and every record beyond
// it, as Open would hand them back. Nothing is written or truncated. A
// torn tail is left out of the records, as Open would cut it; a snapshot
// CRC mismatch or mid-log damage is ErrCorrupt. A directory holding
// neither file reads as (nil, nil, nil).
func Read(dir string) (*Snapshot, []Record, error) {
	snap, records, _, _, err := read(OSFS{}, dir)
	return snap, records, err
}

// read decodes dir's snapshot and the log records beyond it, plus the
// length of the log's torn tail and the highest sequence number seen.
func read(fsys FS, dir string) (snap *Snapshot, records []Record, torn int, lastSeq uint64, err error) {
	if snap, err = readSnapshot(fsys, filepath.Join(dir, snapshotName)); err != nil {
		return nil, nil, 0, 0, err
	}
	var snapSeq uint64
	if snap != nil {
		snapSeq = snap.LastSeq
	}
	records, torn, lastSeq, err = readLog(fsys, filepath.Join(dir, logName), snapSeq)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return snap, records, torn, lastSeq, nil
}

// crcOf computes the record checksum over seq, type, and the exact
// payload bytes — the same input at write and read time.
func crcOf(seq uint64, typ string, data []byte) uint32 {
	var buf [48]byte
	pre := strconv.AppendUint(buf[:0], seq, 10)
	pre = append(append(append(pre, '|'), typ...), '|')
	return crc32.Update(crc32.Update(0, castagnoli, pre), castagnoli, data)
}

// envelope is the wire shape of one log line (and of the snapshot file,
// where S is the covered LastSeq).
type envelope struct {
	S uint64          `json:"s"`
	T string          `json:"t,omitempty"`
	C uint32          `json:"c"`
	D json.RawMessage `json:"d"`
}

// readLog decodes the log file, returning records with Seq > afterSeq,
// the number of trailing bytes to truncate as a torn write, and the
// highest sequence number seen.
func readLog(fsys FS, path string, afterSeq uint64) (records []Record, torn int, lastSeq uint64, err error) {
	raw, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("wal: %w", err)
	}
	offset := 0
	badAt := -1 // offset of the first undecodable/invalid line
	prevSeq := uint64(0)
	for offset < len(raw) {
		nl := bytes.IndexByte(raw[offset:], '\n')
		if nl < 0 {
			// No terminator: an append died mid-write.
			badAt = offset
			break
		}
		line := raw[offset : offset+nl]
		rec, ok := decodeLine(line)
		if !ok || (prevSeq != 0 && rec.Seq <= prevSeq) {
			badAt = offset
			break
		}
		prevSeq = rec.Seq
		lastSeq = rec.Seq
		if rec.Seq > afterSeq {
			records = append(records, rec)
		}
		offset += nl + 1
	}
	if badAt < 0 {
		return records, 0, lastSeq, nil
	}
	// The bad line is only a torn tail if no complete, valid record
	// follows it — valid records after the damage mean mid-log corruption,
	// which truncation would silently destroy.
	rest := raw[badAt:]
	if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
		for _, line := range bytes.Split(rest[nl+1:], []byte{'\n'}) {
			if _, ok := decodeLine(line); ok {
				return nil, 0, 0, fmt.Errorf("%w: invalid record at byte %d followed by valid records", ErrCorrupt, badAt)
			}
		}
	}
	return records, len(raw) - badAt, lastSeq, nil
}

// decodeLine parses and CRC-verifies one log line.
func decodeLine(line []byte) (Record, bool) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return Record{}, false
	}
	if env.S == 0 || env.T == "" || env.D == nil {
		return Record{}, false
	}
	if crcOf(env.S, env.T, env.D) != env.C {
		return Record{}, false
	}
	return Record{Seq: env.S, Type: env.T, Data: env.D}, true
}

// readSnapshot loads and verifies the snapshot file; a missing file is
// (nil, nil).
func readSnapshot(fsys FS, path string) (*Snapshot, error) {
	raw, err := fsys.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	var env envelope
	if err := json.Unmarshal(bytes.TrimSpace(raw), &env); err != nil {
		return nil, fmt.Errorf("%w: snapshot: %v", ErrCorrupt, err)
	}
	if crcOf(env.S, "snapshot", env.D) != env.C {
		return nil, fmt.Errorf("%w: snapshot CRC mismatch", ErrCorrupt)
	}
	return &Snapshot{LastSeq: env.S, Data: env.D}, nil
}

// Append encodes one typed record, assigns it the next sequence number,
// and writes it to the log. It does not fsync — callers group the records
// of one logical transaction and call Sync once at its commit point.
//
// The line is built in one buffer: the payload is encoded behind room
// reserved for the envelope's head, which is written in front of it once
// the sequence number and CRC are known.
func (l *Log) Append(typ string, payload any) (uint64, error) {
	reserve := lineHeadMax(typ)
	buf, err := encodePayload(make([]byte, reserve, reserve+512), payload)
	if err != nil {
		return 0, fmt.Errorf("wal: encoding %s record: %w", typ, err)
	}
	data := buf[reserve:]
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.nextSeq + 1
	head := appendLineHead(buf[:0], seq, typ, crcOf(seq, typ, data))
	start := reserve - len(head)
	copy(buf[start:reserve], head)
	line := append(buf[start:], '}', '\n')
	n, err := l.f.Write(line)
	if err != nil {
		l.stats.AppendErrors++
		if n > 0 {
			// A short write left a torn line at the tail. The torn-tail
			// truncation at the next open erases it, but the live process
			// must not keep appending after it — record N+1 glued to half of
			// record N would turn a crash signature into mid-log corruption.
			// Try to cut it back now; if even that fails the file offset is
			// untrustworthy and the caller's poisoning takes over.
			if l.f.Truncate(l.size) == nil {
				_, _ = l.f.Seek(0, io.SeekEnd)
			}
		}
		return 0, fmt.Errorf("wal: appending %s record: %w", typ, err)
	}
	l.nextSeq = seq
	l.size += int64(len(line))
	l.stats.Appends++
	l.stats.LastSeq = seq
	l.stats.SizeBytes = l.size
	return seq, nil
}

// lineHeadMax bounds the length of a line's head, everything before the
// payload: two uint64-sized numbers and typ quoted, at most four bytes
// for each of its bytes plus the quotes.
func lineHeadMax(typ string) int {
	return len(`{"s":,"t":,"c":,"d":`) + 2*20 + 4*len(typ) + 2
}

// appendLineHead appends the head of a record line: the bytes that
// fmt's "{\"s\":%d,\"t\":%q,\"c\":%d,\"d\":" writes.
func appendLineHead(b []byte, seq uint64, typ string, crc uint32) []byte {
	b = append(b, `{"s":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendQuote(b, typ)
	b = append(b, `,"c":`...)
	b = strconv.AppendUint(b, uint64(crc), 10)
	return append(b, `,"d":`...)
}

// Sync flushes appended records to stable storage (no-op under NoSync).
// A record is only durable — and the mutation it describes only
// committed — once Sync has returned.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.opts.NoSync {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.stats.Syncs++
	return nil
}

// LastSeq returns the sequence number of the newest appended record.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Size returns the current log file size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// Stats snapshots the counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Compact writes payload as a snapshot covering every record appended so
// far, then truncates the log. The caller must guarantee payload really
// materializes all records up to LastSeq — the server takes its state
// freeze locks around the whole call. Crash-safe ordering: the snapshot
// is written to a temp file, fsynced, and renamed into place before the
// log is truncated, so a crash at any point leaves either the old
// (snapshot, log) pair or the new snapshot with a log whose records are
// all covered by it (and skipped at replay by their sequence numbers).
func (l *Log) Compact(payload any) error {
	data, err := encodePayload(nil, payload)
	if err != nil {
		return fmt.Errorf("wal: encoding snapshot: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.nextSeq
	body := encodeSnapshot(seq, data)
	tmp := filepath.Join(l.dir, snapshotName+".tmp")
	f, err := l.fsys.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	// A failed snapshot write must leave no partial .tmp behind: fsck (and
	// an operator's ls) should see either the old snapshot state or the
	// new, never a half-written candidate.
	if _, err := f.Write(body); err != nil {
		f.Close()
		_ = l.fsys.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if !l.opts.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			_ = l.fsys.Remove(tmp)
			return fmt.Errorf("wal: snapshot: %w", err)
		}
	}
	if err := f.Close(); err != nil {
		_ = l.fsys.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	if err := l.fsys.Rename(tmp, filepath.Join(l.dir, snapshotName)); err != nil {
		_ = l.fsys.Remove(tmp)
		return fmt.Errorf("wal: snapshot: %w", err)
	}
	l.syncDirLocked()
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncating log after snapshot: %w", err)
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.size = 0
	l.stats.SizeBytes = 0
	l.stats.SnapshotSeq = seq
	l.stats.Compactions++
	return nil
}

// syncDirLocked fsyncs the data directory so a just-renamed snapshot
// survives a power cut; best-effort (some filesystems refuse).
func (l *Log) syncDirLocked() {
	if l.opts.NoSync {
		return
	}
	if d, err := l.fsys.Open(l.dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// encodeSnapshot shapes a marshaled payload into the snapshot file's
// exact on-disk bytes. Shared by Compact and the online-backup path, so
// a restored backup is indistinguishable from a compacted data dir.
func encodeSnapshot(seq uint64, data []byte) []byte {
	b := make([]byte, 0, len(data)+48)
	b = append(b, `{"s":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"c":`...)
	b = strconv.AppendUint(b, uint64(crcOf(seq, "snapshot", data)), 10)
	b = append(b, `,"d":`...)
	b = append(b, data...)
	return append(b, '}', '\n')
}

// SnapshotBytes encodes payload as a snapshot covering every record
// appended so far, without writing anything: the online-backup path's
// encoder. The caller must guarantee payload materializes all records up
// to LastSeq — the same freeze contract as Compact.
func (l *Log) SnapshotBytes(payload any) ([]byte, error) {
	data, err := encodePayload(nil, payload)
	if err != nil {
		return nil, fmt.Errorf("wal: encoding snapshot: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return encodeSnapshot(l.nextSeq, data), nil
}

// ReadRaw returns a copy of the log file's current contents. Taken under
// the log mutex, so the bytes end at a record boundary as long as the
// caller holds its own appender freeze (online backup does).
func (l *Log) ReadRaw() ([]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	raw, err := l.fsys.ReadFile(filepath.Join(l.dir, logName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	return raw, nil
}

// Close releases the log file. Appends after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
