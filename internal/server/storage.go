package server

// Storage fault tolerance: health reporting, online backup, and
// restore. The write-ahead log is the tenant's source of truth, so its
// health is operational state worth a first-class surface — /healthz
// and /readyz for load balancers, a storage section in the metrics, a
// streaming backup endpoint that never pauses intake, and a restore
// path that refuses to adopt state built under a different Genesis.

import (
	"archive/tar"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"github.com/easeml/ci/internal/registry"
	"github.com/easeml/ci/internal/wal"
)

// Storage health states, ordered by severity. "ok" serves everything;
// "degraded" serves reads but 503s mutations (the WAL is poisoned);
// "salvage-required" serves nothing for that tenant until an operator
// (or -auto-salvage) runs salvage — but never takes the control plane
// down with it.
const (
	StorageOK              = "ok"
	StorageDegraded        = "degraded"
	StorageSalvageRequired = "salvage-required"
)

// StorageHealth is one log directory's storage condition plus its
// salvage and backup history. Quarantined bytes are read from the
// quarantine files on disk, so the counter survives restarts; none of
// these fields are cleared by the admin cache reset.
type StorageHealth struct {
	State            string `json:"state"`
	WALPoisoned      bool   `json:"wal_poisoned"`
	SalvageRuns      uint64 `json:"salvage_runs"`
	QuarantinedBytes int64  `json:"quarantined_bytes"`
	BackupsTotal     uint64 `json:"backups_total"`
	BackupBytesTotal uint64 `json:"backup_bytes_total"`
}

// storageHealth snapshots a durable server's storage condition; nil for
// an in-memory server (no storage to be healthy about).
func (s *Server) storageHealth() *StorageHealth {
	if s.wlog == nil {
		return nil
	}
	h := &StorageHealth{
		State:            StorageOK,
		SalvageRuns:      s.salvageRuns.Load(),
		QuarantinedBytes: wal.QuarantinedBytes(s.dataDir),
		BackupsTotal:     s.backups.Load(),
		BackupBytesTotal: s.backupBytes.Load(),
	}
	if s.walFailed.Load() {
		h.State = StorageDegraded
		h.WALPoisoned = true
	}
	return h
}

// --- online backup ------------------------------------------------------

// backupPayload produces a consistent (snapshot, log) byte pair of the
// tenant's durable state without writing anything: the same freeze
// Compact takes (engine lock + table lock, blocking every appender),
// but the snapshot is encoded to memory and the log read as-is, so
// intake resumes the moment the bytes are captured — the copy out to
// the client happens outside the lock. The job table is NOT pruned:
// backup must observe, never mutate.
func (s *Server) backupPayload() (snapshot, log []byte, err error) {
	if s.wlog == nil {
		return nil, nil, fmt.Errorf("server: not a durable server")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.walFailed.Load() {
		// The in-memory state is ahead of the log; a snapshot of it would
		// be a backup of state the log does not vouch for. The on-disk
		// files are still the durable truth — the control plane's unscoped
		// backup copies them raw instead.
		return nil, nil, fmt.Errorf("%w: refusing to back up state the log does not vouch for", errWALPoisoned)
	}
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	snapshot, err = s.wlog.SnapshotBytes(s.snapshotLocked())
	if err != nil {
		return nil, nil, err
	}
	log, err = s.wlog.ReadRaw()
	if err != nil {
		return nil, nil, err
	}
	return snapshot, log, nil
}

// backupCounters count backups taken and their bytes.
type backupCounters struct{ backups, backupBytes atomic.Uint64 }

// recordBackup folds one backup's size into the counters.
func (c *backupCounters) recordBackup(entries []tarEntry) {
	c.backups.Add(1)
	for _, e := range entries {
		c.backupBytes.Add(uint64(len(e.Data)))
	}
}

// logEntries are one log's snapshot and (if not empty) log bytes under
// prefix.
func logEntries(prefix string, snap, log []byte) []tarEntry {
	entries := []tarEntry{{Name: prefix + "snapshot.json", Data: snap}}
	if len(log) > 0 {
		entries = append(entries, tarEntry{Name: prefix + "wal.log", Data: log})
	}
	return entries
}

// tarEntry is one file of a backup tarball.
type tarEntry struct {
	Name string
	Data []byte
}

// streamTarball writes entries as a deterministic .tar.gz response
// (fixed mtimes — two backups of the same state are byte-identical).
func streamTarball(w http.ResponseWriter, filename string, entries []tarEntry) {
	w.Header().Set("Content-Type", "application/gzip")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", filename))
	w.WriteHeader(http.StatusOK)
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	for _, e := range entries {
		hdr := &tar.Header{
			Name:    e.Name,
			Mode:    0o644,
			Size:    int64(len(e.Data)),
			ModTime: time.Unix(0, 0),
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return // mid-stream: nothing more we can tell the client
		}
		if _, err := tw.Write(e.Data); err != nil {
			return
		}
	}
	_ = tw.Close()
	_ = gz.Close()
}

// rawDirEntries copies whatever write-ahead state exists in dir —
// including damaged files and their quarantines — verbatim into tarball
// entries under prefix. The fallback path for tenants whose state
// cannot be snapshotted live (sick, or poisoned): a backup must never
// silently drop a tenant, so it carries their raw bytes for offline
// salvage instead.
func rawDirEntries(dir, prefix string) []tarEntry {
	var entries []tarEntry
	for _, name := range []string{
		"snapshot.json", "wal.log",
		"snapshot.json" + wal.QuarantineSuffix, "wal.log" + wal.QuarantineSuffix,
	} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		entries = append(entries, tarEntry{Name: path.Join(prefix, name), Data: raw})
	}
	return entries
}

// handleAdminBackup streams write-ahead state as a gzipped tarball.
// Scoped to a project (by path or ?project=) it is that tenant's flat
// snapshot.json + wal.log, restorable as a fresh data directory;
// unscoped it is the whole control plane — the registry's log under
// _control/ plus every tenant under <id>/ — consistent per log, without
// pausing intake anywhere (each tenant is frozen only for its in-memory
// byte capture).
func (m *Multi) handleAdminBackup(w http.ResponseWriter, r *http.Request, sc scope) {
	_, srv, ok := m.scopedTenant(w, r, sc)
	if !ok || !m.requireDurable(w) {
		return
	}
	if srv != nil {
		snap, log, err := srv.backupPayload()
		if err != nil {
			writeStorageError(w, http.StatusServiceUnavailable, err)
			return
		}
		entries := logEntries("", snap, log)
		srv.recordBackup(entries)
		streamTarball(w, "easeml-ci-backup.tar.gz", entries)
		return
	}
	// Unscoped: hold the lifecycle lock so no project is created or
	// deleted mid-enumeration. Request intake keeps flowing — tenants are
	// only frozen one at a time, for the microseconds their bytes take to
	// capture.
	m.lifecycleMu.Lock()
	defer m.lifecycleMu.Unlock()
	ctlSnap, ctlLog, err := m.reg.Backup()
	if err != nil {
		writeStorageError(w, http.StatusServiceUnavailable, err)
		return
	}
	entries := logEntries(controlDirName+"/", ctlSnap, ctlLog)
	for _, p := range m.projects() {
		tid := p.ID
		srv := m.tenant(tid)
		if srv == nil || srv.walFailed.Load() {
			// Sick or poisoned: live state is unavailable or untrustworthy,
			// but the on-disk log is still the durable truth (a poisoned
			// tenant's appends all fail, so the files are static). Raw copy,
			// quarantines included — damage travels with the backup, never
			// dropped.
			entries = append(entries, rawDirEntries(filepath.Join(m.dataDir, tid), tid)...)
			continue
		}
		snap, log, err := srv.backupPayload()
		if err != nil {
			writeStorageError(w, http.StatusServiceUnavailable, fmt.Errorf("project %q: %w", tid, err))
			return
		}
		entries = append(entries, logEntries(tid+"/", snap, log)...)
	}
	m.recordBackup(entries)
	streamTarball(w, "easeml-ci-backup-all.tar.gz", entries)
}

// --- restore ------------------------------------------------------------

// RestoreBackup unpacks a backup tarball (either shape: a flat tenant
// backup or a full control-plane backup) into dataDir, verifying the
// default project's genesis fingerprint against g and replaying the
// control log read-only before adopting anything. It refuses a data
// directory that already holds state — restore creates a world, it does
// not merge into one. The unpack is staged: entries land in a temp
// directory first and are renamed into place only after verification,
// so a failed restore leaves dataDir untouched.
func RestoreBackup(tarPath, dataDir string, g Genesis) error {
	if dataDir == "" {
		return fmt.Errorf("server: restore needs a data directory")
	}
	for _, p := range []string{"wal.log", DefaultProject, controlDirName} {
		if _, err := os.Stat(filepath.Join(dataDir, p)); err == nil {
			return fmt.Errorf("server: restore: %s already exists in %s — refusing to overwrite existing state", p, dataDir)
		}
	}
	f, err := os.Open(tarPath)
	if err != nil {
		return fmt.Errorf("server: restore: %w", err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		return fmt.Errorf("server: restore: %s is not a gzipped tarball: %w", tarPath, err)
	}
	staging := filepath.Join(dataDir, ".restore-staging")
	if err := os.RemoveAll(staging); err != nil {
		return fmt.Errorf("server: restore: %w", err)
	}
	if err := os.MkdirAll(staging, 0o755); err != nil {
		return fmt.Errorf("server: restore: %w", err)
	}
	defer os.RemoveAll(staging)

	tr := tar.NewReader(gz)
	var topLevel []string
	seen := make(map[string]bool)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("server: restore: reading %s: %w", tarPath, err)
		}
		if hdr.Typeflag != tar.TypeReg {
			continue
		}
		name, err := sanitizeTarName(hdr.Name)
		if err != nil {
			return fmt.Errorf("server: restore: %w", err)
		}
		// Flat tenant backups restore as the default project.
		if !strings.Contains(name, "/") {
			name = DefaultProject + "/" + name
		}
		raw, err := io.ReadAll(io.LimitReader(tr, 1<<30))
		if err != nil {
			return fmt.Errorf("server: restore: entry %s: %w", hdr.Name, err)
		}
		dst := filepath.Join(staging, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return fmt.Errorf("server: restore: %w", err)
		}
		if err := os.WriteFile(dst, raw, 0o644); err != nil {
			return fmt.Errorf("server: restore: %w", err)
		}
		top := strings.SplitN(name, "/", 2)[0]
		if !seen[top] {
			seen[top] = true
			topLevel = append(topLevel, top)
		}
	}
	if !seen[DefaultProject] {
		return fmt.Errorf("server: restore: %s holds no default project state", tarPath)
	}

	// Verify before adopting: the default project's state must carry the
	// fingerprint of the Genesis this process would serve it under —
	// restoring someone else's backup into a server with different flags
	// must fail here, not at first boot, and certainly not silently.
	fp, err := backupFingerprint(filepath.Join(staging, DefaultProject))
	if err != nil {
		return fmt.Errorf("server: restore: %w", err)
	}
	if want := g.fingerprint(); fp != want {
		return fmt.Errorf("server: restore: backup genesis fingerprint %q does not match this server's configuration %q — the backup was taken under different flags (condition, reliability, adaptivity, steps, or testset)", fp, want)
	}
	// The control log has no sick state to boot into: replay it read-only
	// now, as the next boot's strict replay will, and refuse what that
	// boot would refuse.
	if seen[controlDirName] {
		if _, err := registry.Read(filepath.Join(staging, controlDirName)); err != nil {
			return fmt.Errorf("server: restore: %s: %w", controlDirName, err)
		}
	}

	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return fmt.Errorf("server: restore: %w", err)
	}
	for _, top := range topLevel {
		if err := os.Rename(filepath.Join(staging, top), filepath.Join(dataDir, top)); err != nil {
			return fmt.Errorf("server: restore: adopting %s: %w", top, err)
		}
	}
	return nil
}

// sanitizeTarName rejects tarball entry names that would escape the
// staging directory: absolute paths, parent traversal, or nesting
// deeper than the <project>/<file> layout backups produce.
func sanitizeTarName(name string) (string, error) {
	clean := path.Clean(strings.TrimPrefix(name, "./"))
	if clean == "" || clean == "." || path.IsAbs(clean) || strings.HasPrefix(clean, "..") || strings.Contains(clean, "/../") {
		return "", fmt.Errorf("unsafe tarball entry %q", name)
	}
	if strings.Count(clean, "/") > 1 {
		return "", fmt.Errorf("unexpected tarball entry %q (want <project>/<file>)", name)
	}
	return clean, nil
}

// backupFingerprint extracts the genesis config fingerprint from a
// staged tenant directory, through stampedGenesis: from the snapshot's
// genesis field if one exists, else from the log's genesis record. The
// files are read through the wal package, so a snapshot whose CRC fails
// or a log damaged mid-way is refused with wal.ErrCorrupt before anything
// is adopted.
func backupFingerprint(dir string) (string, error) {
	snap, records, err := wal.Read(dir)
	if err != nil {
		return "", fmt.Errorf("backup: %w", err)
	}
	g, ok, err := stampedGenesis(snap, records)
	switch {
	case snap == nil && len(records) == 0:
		return "", errors.New("backup holds neither a snapshot nor a log to verify the genesis fingerprint from")
	case snap != nil && err != nil:
		return "", fmt.Errorf("backup snapshot payload: %w", err)
	case snap != nil && g.Fingerprint == "":
		return "", errors.New("backup snapshot carries no genesis fingerprint")
	case !ok:
		return "", errors.New("backup log does not begin with a genesis record")
	case err != nil || g.Fingerprint == "":
		return "", errors.New("backup genesis record carries no fingerprint")
	}
	return g.Fingerprint, nil
}

// --- health endpoints ---------------------------------------------------

// ProjectHealth is one tenant's row in the health report.
type ProjectHealth struct {
	ID string `json:"id"`
	// Lifecycle is active | suspended | salvage-required.
	Lifecycle string `json:"lifecycle"`
	// Storage is ok | degraded | salvage-required | memory.
	Storage    string `json:"storage"`
	QueueDepth int    `json:"queue_depth"`
	Parked     int    `json:"parked"`
	// OracleBreaker is the remote label provider's circuit-breaker state
	// (closed | open | half-open); absent when labels are in-process.
	OracleBreaker string `json:"oracle_breaker,omitempty"`
}

// HealthResponse answers GET /healthz (always 200) and GET /readyz
// (503 unless every tenant's storage is ok).
type HealthResponse struct {
	Status      string          `json:"status"` // ok | degraded
	PoolWorkers int             `json:"pool_workers"`
	PoolDepth   int             `json:"pool_depth"`
	Projects    []ProjectHealth `json:"projects"`
}

// healthSnapshot gathers the control plane's health: pool shape, then
// one row per project (sick ones included).
func (m *Multi) healthSnapshot() HealthResponse {
	ps := m.pool.Stats()
	resp := HealthResponse{Status: StorageOK, PoolWorkers: ps.Workers}
	for _, src := range ps.Sources {
		resp.PoolDepth += src.Pending
	}
	for _, p := range m.projects() {
		ph := ProjectHealth{ID: p.ID, Lifecycle: string(p.State), Storage: "memory"}
		srv := m.tenant(p.ID)
		if srv == nil {
			// Sick tenant: registered but unopenable without salvage.
			ph.Lifecycle = StorageSalvageRequired
			ph.Storage = StorageSalvageRequired
			resp.Status = StorageDegraded
			resp.Projects = append(resp.Projects, ph)
			continue
		}
		if h := srv.storageHealth(); h != nil {
			ph.Storage = h.State
			if h.State != StorageOK {
				resp.Status = StorageDegraded
			}
		}
		ph.QueueDepth = srv.jobs.Pending()
		ph.Parked = srv.ParkedCount()
		if ost := srv.oracleStats(); ost != nil {
			ph.OracleBreaker = ost.Breaker.State
		}
		resp.Projects = append(resp.Projects, ph)
	}
	return resp
}

// handleHealth answers GET /healthz, liveness plus detail: always 200,
// with the full per-tenant picture in the body for dashboards and
// operators. With ready it answers GET /readyz, the load balancer's
// gate: 200 only while every tenant's storage is healthy, 503 (with the
// same body) the moment any tenant is degraded or awaiting salvage —
// traffic should prefer a fully healthy replica when one exists.
func (m *Multi) handleHealth(w http.ResponseWriter, r *http.Request, ready bool) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	h := m.healthSnapshot()
	status := http.StatusOK
	if ready && h.Status != StorageOK {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

// storageAggregate rolls every tenant's storage health (plus the
// control log's and the control plane's own backup counters) into the
// global storage section of /api/v1/metrics.
func (m *Multi) storageAggregate(projects []TenantMetrics) *StorageHealth {
	if m.dataDir == "" {
		return nil
	}
	agg := &StorageHealth{
		State:            StorageOK,
		SalvageRuns:      m.controlSalvages.Load(),
		QuarantinedBytes: wal.QuarantinedBytes(filepath.Join(m.dataDir, controlDirName)),
		BackupsTotal:     m.backups.Load(),
		BackupBytesTotal: m.backupBytes.Load(),
	}
	rank := map[string]int{StorageOK: 0, StorageDegraded: 1, StorageSalvageRequired: 2}
	for _, p := range projects {
		h := p.Storage
		if h == nil {
			continue
		}
		if rank[h.State] > rank[agg.State] {
			agg.State = h.State
		}
		agg.WALPoisoned = agg.WALPoisoned || h.WALPoisoned
		agg.SalvageRuns += h.SalvageRuns
		agg.QuarantinedBytes += h.QuarantinedBytes
		agg.BackupsTotal += h.BackupsTotal
		agg.BackupBytesTotal += h.BackupBytesTotal
	}
	return agg
}
