// Package registry is the control plane's project table: the set of
// tenants a multi-project CI server hosts, their lifecycle state
// (active or suspended), and an opaque per-project spec the serving
// layer interprets (genesis, scheduling weight, quotas). Every mutation
// is appended to a control-plane write-ahead log before it is applied,
// and applied by the same function replay applies the logged record
// with, so a restart recovers the full project set exactly — the same
// record-then-apply discipline the per-project engine WALs use, one
// level up.
//
// The registry deliberately does not know what a project *is*: specs
// are raw JSON owned by the caller. That keeps the dependency direction
// clean (the server imports the registry, never the reverse) and makes
// the control-plane log a pure lifecycle journal:
//
//	project.create  {id, spec}
//	project.suspend {id}
//	project.resume  {id}
//	project.delete  {id}
//
// Compaction snapshots the live table (id, state, spec, in creation
// order), exactly like the engine WAL snapshots engine state.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"regexp"
	"slices"
	"sync"

	"github.com/easeml/ci/internal/wal"
)

// State is a project's lifecycle state.
type State string

const (
	// Active projects accept commits.
	Active State = "active"
	// Suspended projects keep their state and answer reads, but the
	// serving layer rejects new work for them.
	Suspended State = "suspended"
)

var (
	// ErrExists rejects a create for an ID already registered.
	ErrExists = errors.New("registry: project already exists")
	// ErrNotFound reports an unknown project ID.
	ErrNotFound = errors.New("registry: no such project")
)

// idPattern is the project-ID alphabet: lowercase DNS-label-ish, safe to
// use as a directory name under the data dir. A leading letter or digit
// keeps "_control" (the registry's own directory) and dotfiles
// unreachable by construction.
var idPattern = regexp.MustCompile(`^[a-z0-9][a-z0-9-]{0,63}$`)

// ValidID reports whether id is a legal project ID.
func ValidID(id string) error {
	if !idPattern.MatchString(id) {
		return fmt.Errorf("registry: invalid project ID %q (want %s)", id, idPattern)
	}
	return nil
}

// Project is one registered tenant. Spec is the caller's payload,
// stored verbatim.
type Project struct {
	ID    string          `json:"id"`
	State State           `json:"state"`
	Spec  json.RawMessage `json:"spec"`
}

// Options tunes a Registry.
type Options struct {
	// NoSync skips fsync on the control-plane log (tests and benchmarks).
	NoSync bool
	// FS is the filesystem the control-plane log reads and writes through;
	// nil means the real one. Disk-fault tests inject a faultfs.FS here —
	// the control-plane log gets the same fault seam as tenant WALs.
	FS wal.FS
}

// Control-plane WAL record types.
const (
	recCreate  = "project.create"
	recSuspend = "project.suspend"
	recResume  = "project.resume"
	recDelete  = "project.delete"
)

type recProject struct {
	ID   string          `json:"id"`
	Spec json.RawMessage `json:"spec,omitempty"`
}

// regSnapshot is the compaction payload: the live table in creation
// order.
type regSnapshot struct {
	Projects []Project `json:"projects"`
}

// Registry is the project table. Safe for concurrent use. With a log it
// is durable: each lifecycle change is checked, appended and only then
// applied, through the same check and apply that Open's replay runs on
// every logged record, so the live table and a replayed one cannot
// differ. Without a log it is a plain in-memory table with identical
// semantics.
type Registry struct {
	mu    sync.Mutex
	log   *wal.Log // nil in memory-only mode
	table map[string]*Project
	order []string
}

// Open opens (or creates) the registry's control-plane log in dir and
// replays it into the project table. An empty dir builds a memory-only
// registry (state dies with the process).
func Open(dir string, opts Options) (*Registry, error) {
	r := &Registry{table: make(map[string]*Project)}
	if dir == "" {
		return r, nil
	}
	log, snap, records, err := wal.Open(dir, wal.Options{NoSync: opts.NoSync, FS: opts.FS})
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	if err := r.replay(snap, records); err != nil {
		_ = log.Close()
		return nil, err
	}
	r.log = log
	return r, nil
}

// Read replays the control-plane log in dir as Open would, failing where
// Open would (damage the wal package refuses is wal.ErrCorrupt), but
// writes nothing: a torn tail is left out, not truncated.
func Read(dir string) ([]Project, error) {
	snap, records, err := wal.Read(dir)
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	r := &Registry{table: make(map[string]*Project)}
	if err := r.replay(snap, records); err != nil {
		return nil, err
	}
	return r.listLocked(), nil
}

// replay rebuilds the table from a snapshot and the records after it.
// Replay is strict: a record that does not apply cleanly means the log
// and table have diverged, and recovery fails loudly rather than serving
// a project set the log does not vouch for.
func (r *Registry) replay(snap *wal.Snapshot, records []wal.Record) error {
	if snap != nil {
		var rs regSnapshot
		if err := json.Unmarshal(snap.Data, &rs); err != nil {
			return fmt.Errorf("registry: snapshot: %w", err)
		}
		for i := range rs.Projects {
			p := rs.Projects[i]
			r.table[p.ID] = &p
			r.order = append(r.order, p.ID)
		}
	}
	for _, rec := range records {
		var d recProject
		err := json.Unmarshal(rec.Data, &d)
		if err == nil {
			err = r.check(rec.Type, d.ID)
		}
		if err == nil {
			err = r.apply(rec.Type, d)
		}
		if err != nil {
			return fmt.Errorf("registry: record %d (%s): %w", rec.Seq, rec.Type, err)
		}
	}
	return nil
}

// check refuses a lifecycle record the table cannot take: a create for a
// registered ID, or any other record for an unregistered one.
func (r *Registry) check(typ, id string) error {
	_, ok := r.table[id]
	switch {
	case typ == recCreate && ok:
		return fmt.Errorf("%w: %q", ErrExists, id)
	case typ != recCreate && !ok:
		return fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return nil
}

// apply makes one checked lifecycle record's change to the table: the
// one place each change is written, called by replay and, once the
// record is durable, by mutate.
func (r *Registry) apply(typ string, d recProject) error {
	switch typ {
	case recCreate:
		r.table[d.ID] = &Project{ID: d.ID, State: Active, Spec: d.Spec}
		r.order = append(r.order, d.ID)
	case recSuspend:
		r.table[d.ID].State = Suspended
	case recResume:
		r.table[d.ID].State = Active
	case recDelete:
		delete(r.table, d.ID)
		r.order = slices.DeleteFunc(r.order, func(id string) bool { return id == d.ID })
	default:
		return fmt.Errorf("unknown type %q", typ)
	}
	return nil
}

// mutate is every live lifecycle change: check it, append its record
// durably (record-then-apply: the table changes only after the append
// returns nil), then apply it. Memory-only registries apply directly.
// Callers hold r.mu.
func (r *Registry) mutate(typ string, d recProject) error {
	if err := r.check(typ, d.ID); err != nil {
		return err
	}
	if r.log != nil {
		if _, err := r.log.Append(typ, d); err != nil {
			return fmt.Errorf("registry: %w", err)
		}
		if err := r.log.Sync(); err != nil {
			return fmt.Errorf("registry: %w", err)
		}
	}
	return r.apply(typ, d)
}

// Create registers a new project with the given opaque spec, initially
// Active. The create record is durable before Create returns.
func (r *Registry) Create(id string, spec json.RawMessage) error {
	if err := ValidID(id); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mutate(recCreate, recProject{ID: id, Spec: spec})
}

// Suspend marks a project suspended; idempotent on an already-suspended
// project.
func (r *Registry) Suspend(id string) error { return r.setState(id, Suspended, recSuspend) }

// Resume marks a suspended project active again; idempotent.
func (r *Registry) Resume(id string) error { return r.setState(id, Active, recResume) }

// setState journals typ unless the project is already in state want.
func (r *Registry) setState(id string, want State, typ string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.table[id]; ok && p.State == want {
		return nil
	}
	return r.mutate(typ, recProject{ID: id})
}

// Delete removes a project from the table. The delete record is durable
// before Delete returns; removing the project's own data directory is
// the caller's job (and is safe the moment Delete returns — a crash in
// between leaves an orphan directory the serving layer sweeps at the
// next start).
func (r *Registry) Delete(id string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mutate(recDelete, recProject{ID: id})
}

// Get returns a copy of one project.
func (r *Registry) Get(id string) (Project, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.table[id]
	if !ok {
		return Project{}, false
	}
	return *p, true
}

// List returns the projects in creation order.
func (r *Registry) List() []Project {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.listLocked()
}

// listLocked is List under r.mu, also the snapshot's project rows.
func (r *Registry) listLocked() []Project {
	out := make([]Project, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, *r.table[id])
	}
	return out
}

// Compact snapshots the table and truncates the control-plane log.
// No-op for a memory-only registry.
func (r *Registry) Compact() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.compactLocked()
}

func (r *Registry) compactLocked() error {
	if r.log == nil {
		return nil
	}
	if err := r.log.Compact(regSnapshot{Projects: r.listLocked()}); err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	return nil
}

// Backup returns a consistent (snapshot, log) byte pair of the project
// table for the online-backup path: the snapshot covers every record
// appended so far, and the raw log's surviving records are all covered
// by it (replay skips them by sequence number). Taken under the
// registry mutex, so no lifecycle mutation can interleave. Nil bytes
// for a memory-only registry.
func (r *Registry) Backup() (snapshot, log []byte, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return nil, nil, nil
	}
	snapshot, err = r.log.SnapshotBytes(regSnapshot{Projects: r.listLocked()})
	if err != nil {
		return nil, nil, fmt.Errorf("registry: backup: %w", err)
	}
	log, err = r.log.ReadRaw()
	if err != nil {
		return nil, nil, fmt.Errorf("registry: backup: %w", err)
	}
	return snapshot, log, nil
}

// Stats reports the control-plane log's counters; nil for a memory-only
// registry.
func (r *Registry) Stats() *wal.Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return nil
	}
	st := r.log.Stats()
	return &st
}

// Close compacts (best effort) and closes the control-plane log.
func (r *Registry) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.log == nil {
		return nil
	}
	_ = r.compactLocked()
	err := r.log.Close()
	r.log = nil
	return err
}
