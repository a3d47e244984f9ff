package server

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/wal"
	"github.com/easeml/ci/internal/wal/faultfs"
)

// mustCommit posts one sync commit and asserts 200.
func mustCommit(t *testing.T, h http.Handler, path string, labels []int, model string, seed int64) {
	t.Helper()
	rec := doH(t, h, http.MethodPost, path, CommitRequest{
		Model: model, Author: "dev", Message: "x",
		Predictions: goodPredictions(t, labels, 0.9, seed),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s status = %d: %s", path, rec.Code, rec.Body.String())
	}
}

// bodyOf asserts a 200 GET on any handler and returns the bytes.
func bodyOf(t *testing.T, h http.Handler, path string) []byte {
	t.Helper()
	rec := doH(t, h, http.MethodGet, path, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s status = %d: %s", path, rec.Code, rec.Body.String())
	}
	return append([]byte(nil), rec.Body.Bytes()...)
}

// decodeErrorBody parses the structured error envelope.
func decodeErrorBody(t *testing.T, rec interface{ String() string }) errorResponse {
	t.Helper()
	var resp errorResponse
	if err := json.Unmarshal([]byte(rec.String()), &resp); err != nil {
		t.Fatalf("error body is not JSON: %v: %s", err, rec.String())
	}
	return resp
}

// corruptFile flips one bit in the middle of a file — enough to fail
// the record CRC, never enough to look like a torn tail.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	if err := faultfs.FlipBit(path, int64(fileSize(t, path)/2), 0); err != nil {
		t.Fatal(err)
	}
}

func fileSize(t *testing.T, path string) int {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return int(info.Size())
}

// readTarball unpacks a backup response body into a name → bytes map.
func readTarball(t *testing.T, data []byte) map[string][]byte {
	t.Helper()
	gz, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("backup is not gzip: %v", err)
	}
	out := make(map[string][]byte)
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("backup tar: %v", err)
		}
		raw, err := io.ReadAll(tr)
		if err != nil {
			t.Fatal(err)
		}
		out[hdr.Name] = raw
	}
	return out
}

// TestDegradedModeKeepsReadsServing is the degraded-mode acceptance
// test: after a disk fault poisons the default project's WAL, mutations
// answer 503 with the structured degraded body while reads keep
// serving; compaction refuses without leaving a partial snapshot;
// health endpoints and metrics report the degradation.
func TestDegradedModeKeepsReadsServing(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New()
	m := newTestMulti(t, MultiOptions{DataDir: dir, Tenant: Options{WALFS: fs, Webhooks: notify.NewOutbox()}})
	defer m.Close()
	labels := testLabels()

	if rec := doH(t, m, http.MethodGet, "/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("healthy readyz status = %d: %s", rec.Code, rec.Body.String())
	}
	mustCommit(t, m, "/api/v1/commit", labels, "m0", 10)
	healthyHistory := bodyOf(t, m, "/api/v1/history")

	// The next write to the default project's log hits ENOSPC.
	fs.Add(faultfs.Fault{Op: faultfs.OpWrite, Path: filepath.Join(DefaultProject, "wal.log")})
	rec := doH(t, m, http.MethodPost, "/api/v1/commit", CommitRequest{
		Model: "m1", Author: "dev", Message: "x",
		Predictions: goodPredictions(t, labels, 0.9, 11),
	})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("poisoned commit status = %d, want 503: %s", rec.Code, rec.Body.String())
	}
	if e := decodeErrorBody(t, rec.Body); !e.Degraded || e.Reason != degradedReasonPoisoned {
		t.Fatalf("poisoned commit body = %+v, want degraded/wal_poisoned", e)
	}

	// Reads keep serving the pre-failure state.
	if got := bodyOf(t, m, "/api/v1/history"); !bytes.Equal(got, healthyHistory) {
		t.Fatalf("degraded history diverged:\n%s\n%s", got, healthyHistory)
	}
	bodyOf(t, m, "/api/v1/status")
	bodyOf(t, m, "/api/v1/plan")

	// Every other mutation answers the same structured 503.
	rec = doH(t, m, http.MethodPost, "/api/v1/testset", RotateRequest{
		Labels: labels, ActivePredictions: goodPredictions(t, labels, 0.9, 20),
	})
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("poisoned rotate status = %d: %s", rec.Code, rec.Body.String())
	}
	if e := decodeErrorBody(t, rec.Body); !e.Degraded || e.Reason != degradedReasonPoisoned {
		t.Fatalf("poisoned rotate body = %+v", e)
	}

	// Compaction refuses to snapshot state the log does not vouch for —
	// both scoped and unscoped — and leaves no partial snapshot behind.
	for _, path := range []string{"/api/v1/admin/compact?project=default", "/api/v1/admin/compact"} {
		rec = doH(t, m, http.MethodPost, path, nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("POST %s status = %d, want 503: %s", path, rec.Code, rec.Body.String())
		}
		if e := decodeErrorBody(t, rec.Body); !e.Degraded || e.Reason != degradedReasonPoisoned {
			t.Fatalf("POST %s body = %+v, want degraded/wal_poisoned", path, e)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, DefaultProject, "snapshot.json.tmp")); !os.IsNotExist(err) {
		t.Fatal("refused compaction left a partial snapshot.json.tmp on disk")
	}

	// A poisoned tenant must not poison its backup either: the scoped
	// backup refuses (its in-memory state is ahead of the log) with the
	// degraded body.
	rec = doH(t, m, http.MethodPost, "/api/v1/admin/backup?project=default", nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("poisoned backup status = %d: %s", rec.Code, rec.Body.String())
	}
	if e := decodeErrorBody(t, rec.Body); !e.Degraded || e.Reason != degradedReasonPoisoned {
		t.Fatalf("poisoned backup body = %+v", e)
	}

	// Health: alive (200) but not ready (503), storage degraded in both.
	rec = doH(t, m, http.MethodGet, "/healthz", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status = %d", rec.Code)
	}
	var h HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != StorageDegraded {
		t.Fatalf("healthz status field = %q, want degraded", h.Status)
	}
	if rec := doH(t, m, http.MethodGet, "/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("degraded readyz status = %d, want 503", rec.Code)
	}

	// Metrics carry the storage section, and the admin cache reset does
	// not clear it — operational state, not a cache.
	doH(t, m, http.MethodPost, "/api/v1/admin/reset-caches", nil)
	var mm MultiMetricsResponse
	if err := json.Unmarshal(bodyOf(t, m, "/api/v1/metrics"), &mm); err != nil {
		t.Fatal(err)
	}
	if mm.Storage == nil || mm.Storage.State != StorageDegraded || !mm.Storage.WALPoisoned {
		t.Fatalf("global storage after reset = %+v, want degraded/poisoned", mm.Storage)
	}
	found := false
	for _, p := range mm.Projects {
		if p.ID == DefaultProject {
			found = true
			if p.Storage == nil || p.Storage.State != StorageDegraded || !p.Storage.WALPoisoned {
				t.Fatalf("default project storage = %+v, want degraded/poisoned", p.Storage)
			}
		}
	}
	if !found {
		t.Fatal("metrics lost the default project's row")
	}
}

// TestSickTenantIsolation: a project whose write-ahead state is damaged
// on disk boots as salvage-required — its requests answer 503 with the
// structured degraded body — while the control plane and every healthy
// tenant keep serving. Deleting the sick project is the way out.
func TestSickTenantIsolation(t *testing.T) {
	dir := t.TempDir()
	m := newTestMulti(t, MultiOptions{DataDir: dir})
	labels := testLabels()
	spec := testSpec(t, 3, testSize, 2)
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "team-a", ProjectSpec: spec}); rec.Code != http.StatusCreated {
		t.Fatalf("create team-a status = %d: %s", rec.Code, rec.Body.String())
	}
	mustCommit(t, m, "/api/v1/projects/team-a/commit", labels, "a0", 30)
	mustCommit(t, m, "/api/v1/commit", labels, "m0", 10)
	defaultHistory := bodyOf(t, m, "/api/v1/history")
	m.Close()

	corruptFile(t, filepath.Join(dir, "team-a", "snapshot.json"))

	m2 := newTestMulti(t, MultiOptions{DataDir: dir})
	defer m2.Close()

	// The sick tenant answers 503/salvage-required on every path...
	for _, probe := range []struct{ method, path string }{
		{http.MethodGet, "/api/v1/projects/team-a/status"},
		{http.MethodPost, "/api/v1/admin/compact?project=team-a"},
	} {
		rec := doH(t, m2, probe.method, probe.path, nil)
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s %s status = %d, want 503: %s", probe.method, probe.path, rec.Code, rec.Body.String())
		}
		if e := decodeErrorBody(t, rec.Body); !e.Degraded || e.Reason != degradedReasonSalvage {
			t.Fatalf("%s %s body = %+v, want degraded/salvage_required", probe.method, probe.path, e)
		}
	}

	// ...while the default project serves reads AND writes untouched.
	if got := bodyOf(t, m2, "/api/v1/history"); !bytes.Equal(got, defaultHistory) {
		t.Fatalf("default history diverged across the sick boot:\n%s\n%s", got, defaultHistory)
	}
	mustCommit(t, m2, "/api/v1/commit", labels, "m1", 11)

	// The project list, health endpoints, and metrics all name the sick
	// tenant.
	var list ProjectListResponse
	if err := json.Unmarshal(bodyOf(t, m2, "/api/v1/projects"), &list); err != nil {
		t.Fatal(err)
	}
	var teamState string
	for _, p := range list.Projects {
		if p.ID == "team-a" {
			teamState = p.State
		}
	}
	if teamState != StorageSalvageRequired {
		t.Fatalf("team-a listed state = %q, want salvage-required", teamState)
	}
	if rec := doH(t, m2, http.MethodGet, "/readyz", nil); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz with sick tenant = %d, want 503", rec.Code)
	}
	var mm MultiMetricsResponse
	if err := json.Unmarshal(bodyOf(t, m2, "/api/v1/metrics"), &mm); err != nil {
		t.Fatal(err)
	}
	var row *TenantMetrics
	for i := range mm.Projects {
		if mm.Projects[i].ID == "team-a" {
			row = &mm.Projects[i]
		}
	}
	if row == nil || row.Storage == nil || row.Storage.State != StorageSalvageRequired {
		t.Fatalf("team-a metrics row = %+v, want storage salvage-required", row)
	}
	if mm.Storage == nil || mm.Storage.State != StorageSalvageRequired {
		t.Fatalf("global storage = %+v, want salvage-required", mm.Storage)
	}

	// Unscoped compaction skips the sick tenant instead of failing.
	if rec := doH(t, m2, http.MethodPost, "/api/v1/admin/compact", nil); rec.Code != http.StatusOK {
		t.Fatalf("unscoped compact with sick tenant = %d: %s", rec.Code, rec.Body.String())
	}

	// The unscoped backup still carries the sick tenant's raw damaged
	// bytes — damage travels with the backup, never silently dropped.
	rec := doH(t, m2, http.MethodPost, "/api/v1/admin/backup", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("unscoped backup status = %d: %s", rec.Code, rec.Body.String())
	}
	entries := readTarball(t, rec.Body.Bytes())
	for _, want := range []string{"_control/snapshot.json", "default/snapshot.json", "team-a/snapshot.json"} {
		if _, ok := entries[want]; !ok {
			t.Fatalf("backup is missing %s; has %v", want, keysOf(entries))
		}
	}

	// Deleting the sick project is the operator's other way out.
	if rec := doH(t, m2, http.MethodDelete, "/api/v1/projects/team-a", nil); rec.Code != http.StatusOK {
		t.Fatalf("delete sick project status = %d: %s", rec.Code, rec.Body.String())
	}
	if rec := doH(t, m2, http.MethodGet, "/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("readyz after deleting sick tenant = %d, want 200: %s", rec.Code, rec.Body.String())
	}
}

func keysOf(m map[string][]byte) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestMultiAutoSalvage: with AutoSalvage on, a tenant whose snapshot is
// corrupt is salvaged at boot (damage quarantined, not deleted) and
// comes back serving; the salvage is visible in the metrics.
func TestMultiAutoSalvage(t *testing.T) {
	dir := t.TempDir()
	m := newTestMulti(t, MultiOptions{DataDir: dir})
	labels := testLabels()
	spec := testSpec(t, 3, testSize, 2)
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "team-a", ProjectSpec: spec}); rec.Code != http.StatusCreated {
		t.Fatalf("create team-a status = %d: %s", rec.Code, rec.Body.String())
	}
	mustCommit(t, m, "/api/v1/projects/team-a/commit", labels, "a0", 30)
	m.Close()

	corruptFile(t, filepath.Join(dir, "team-a", "snapshot.json"))

	m2 := newTestMulti(t, MultiOptions{DataDir: dir, AutoSalvage: true})
	defer m2.Close()

	// The tenant serves again (the quarantined snapshot's state is gone —
	// salvage cannot invent lost data — but the project is alive).
	bodyOf(t, m2, "/api/v1/projects/team-a/status")
	if rec := doH(t, m2, http.MethodGet, "/readyz", nil); rec.Code != http.StatusOK {
		t.Fatalf("readyz after auto-salvage = %d: %s", rec.Code, rec.Body.String())
	}
	if _, err := os.Stat(filepath.Join(dir, "team-a", "snapshot.json.quarantine")); err != nil {
		t.Fatalf("auto-salvage left no quarantine file: %v", err)
	}
	var mm MultiMetricsResponse
	if err := json.Unmarshal(bodyOf(t, m2, "/api/v1/metrics"), &mm); err != nil {
		t.Fatal(err)
	}
	for _, p := range mm.Projects {
		if p.ID != "team-a" {
			continue
		}
		if p.Storage == nil || p.Storage.SalvageRuns != 1 || p.Storage.QuarantinedBytes == 0 {
			t.Fatalf("team-a storage after auto-salvage = %+v, want 1 salvage run and quarantined bytes", p.Storage)
		}
	}
}

// TestBackupRestoreRoundTrip is the backup acceptance test: the
// unscoped backup tarball, restored into a fresh data dir, yields a
// byte-identical verdict history and project list; intake keeps flowing
// after the backup; backup counters survive the admin reset; restore
// refuses a genesis mismatch and a non-empty target.
func TestBackupRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g, labels := durableGenesis(t, 3, testSize)
	m := newTestMulti(t, MultiOptions{DataDir: dir, Tenant: Options{CompactAt: -1, Webhooks: notify.NewOutbox()}})
	spec := testSpec(t, 3, testSize, 2)
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "team-a", ProjectSpec: spec}); rec.Code != http.StatusCreated {
		t.Fatalf("create team-a status = %d: %s", rec.Code, rec.Body.String())
	}
	mustCommit(t, m, "/api/v1/commit", labels, "m0", 10)
	mustCommit(t, m, "/api/v1/commit", labels, "m1", 11)
	mustCommit(t, m, "/api/v1/projects/team-a/commit", labels, "a0", 30)

	defaultHistory := bodyOf(t, m, "/api/v1/history")
	teamHistory := bodyOf(t, m, "/api/v1/projects/team-a/history")
	projectList := bodyOf(t, m, "/api/v1/projects")

	rec := doH(t, m, http.MethodPost, "/api/v1/admin/backup", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("backup status = %d: %s", rec.Code, rec.Body.String())
	}
	tarball := append([]byte(nil), rec.Body.Bytes()...)

	// Intake was never paused: the next commit lands normally.
	mustCommit(t, m, "/api/v1/commit", labels, "m2", 12)

	// Backup counters are operational state: the admin reset leaves them.
	doH(t, m, http.MethodPost, "/api/v1/admin/reset-caches", nil)
	var mm MultiMetricsResponse
	if err := json.Unmarshal(bodyOf(t, m, "/api/v1/metrics"), &mm); err != nil {
		t.Fatal(err)
	}
	if mm.Storage == nil || mm.Storage.BackupsTotal != 1 || mm.Storage.BackupBytesTotal == 0 {
		t.Fatalf("global storage after backup+reset = %+v, want backups_total=1", mm.Storage)
	}
	m.Close()

	tarPath := filepath.Join(t.TempDir(), "backup.tar.gz")
	if err := os.WriteFile(tarPath, tarball, 0o644); err != nil {
		t.Fatal(err)
	}

	// Restore under a different genesis must refuse before adopting.
	wrong := g
	wrong.Condition = "n > 0.7 +/- 0.1"
	if err := RestoreBackup(tarPath, t.TempDir(), wrong); err == nil {
		t.Fatal("restore accepted a backup taken under a different genesis")
	}

	restoreDir := t.TempDir()
	if err := RestoreBackup(tarPath, restoreDir, g); err != nil {
		t.Fatal(err)
	}
	// Restoring again into the now-populated dir must refuse.
	if err := RestoreBackup(tarPath, restoreDir, g); err == nil {
		t.Fatal("restore overwrote an existing data directory")
	}

	m2 := newTestMulti(t, MultiOptions{DataDir: restoreDir, Tenant: Options{CompactAt: -1, Webhooks: notify.NewOutbox()}})
	defer m2.Close()
	if got := bodyOf(t, m2, "/api/v1/history"); !bytes.Equal(got, defaultHistory) {
		t.Fatalf("restored default history diverged:\n%s\n%s", got, defaultHistory)
	}
	if got := bodyOf(t, m2, "/api/v1/projects/team-a/history"); !bytes.Equal(got, teamHistory) {
		t.Fatalf("restored team-a history diverged:\n%s\n%s", got, teamHistory)
	}
	if got := bodyOf(t, m2, "/api/v1/projects"); !bytes.Equal(got, projectList) {
		t.Fatalf("restored project list diverged:\n%s\n%s", got, projectList)
	}
	// The restored control plane accepts new work immediately.
	mustCommit(t, m2, "/api/v1/commit", labels, "r0", 40)
}

// TestBackupRestoreRefusesCorruptSnapshot: a backup whose snapshot
// payload has one flipped digit still parses and still carries the right
// genesis fingerprint, but its CRC fails. Restore refuses it with
// wal.ErrCorrupt and adopts nothing, instead of handing the next boot a
// default project that opens salvage-required.
func TestBackupRestoreRefusesCorruptSnapshot(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	m := newTestMulti(t, MultiOptions{DataDir: t.TempDir(), Tenant: Options{CompactAt: -1}})
	mustCommit(t, m, "/api/v1/commit", labels, "m0", 10)
	rec := doH(t, m, http.MethodPost, "/api/v1/projects/default/admin/backup", nil)
	m.Close()
	if rec.Code != http.StatusOK {
		t.Fatalf("backup status = %d: %s", rec.Code, rec.Body.String())
	}
	entries := readTarball(t, rec.Body.Bytes())
	snap := entries["snapshot.json"]
	flipped := bytes.Replace(snap, []byte(`"next_job_seq":1`), []byte(`"next_job_seq":7`), 1)
	if bytes.Equal(flipped, snap) {
		t.Fatalf("snapshot has no next_job_seq of 1 to flip: %.200s", snap)
	}

	entries["snapshot.json"] = flipped
	checkRestoreRefusesCorrupt(t, writeTarball(t, entries), g)
}

// TestBackupRestoreRefusesCorruptControl: a full backup of three
// projects, taken after a compaction, whose control-plane snapshot has
// one changed digit. Restore refuses it with wal.ErrCorrupt and adopts
// nothing, instead of handing the next boot a control log it refuses.
func TestBackupRestoreRefusesCorruptControl(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	m := newTestMulti(t, MultiOptions{DataDir: t.TempDir(), Tenant: Options{CompactAt: -1}})
	for i, id := range []string{"team-a", "team-b"} {
		spec := testSpec(t, 3, testSize, int64(2+i))
		if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: id, ProjectSpec: spec}); rec.Code != http.StatusCreated {
			t.Fatalf("create %s status = %d: %s", id, rec.Code, rec.Body.String())
		}
	}
	mustCommit(t, m, "/api/v1/commit", labels, "m0", 10)
	if rec := doH(t, m, http.MethodPost, "/api/v1/admin/compact", nil); rec.Code != http.StatusOK {
		t.Fatalf("compact status = %d: %s", rec.Code, rec.Body.String())
	}
	rec := doH(t, m, http.MethodPost, "/api/v1/admin/backup", nil)
	m.Close()
	if rec.Code != http.StatusOK {
		t.Fatalf("backup status = %d: %s", rec.Code, rec.Body.String())
	}
	entries := readTarball(t, rec.Body.Bytes())
	name := controlDirName + "/snapshot.json"
	snap := entries[name]
	flipped := bytes.Replace(snap, []byte(`"steps":3`), []byte(`"steps":4`), 1)
	if bytes.Equal(flipped, snap) {
		t.Fatalf("control snapshot has no steps of 3 to flip: %.200s", snap)
	}
	entries[name] = flipped
	checkRestoreRefusesCorrupt(t, writeTarball(t, entries), g)
}

// writeTarball packs entries into a gzipped backup tarball file and
// returns its path.
func writeTarball(t *testing.T, entries map[string][]byte) string {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	for _, name := range keysOf(entries) {
		if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: int64(len(entries[name]))}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(entries[name]); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	tarPath := filepath.Join(t.TempDir(), "backup.tar.gz")
	if err := os.WriteFile(tarPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return tarPath
}

// checkRestoreRefusesCorrupt requires the restore of tarPath to fail
// with wal.ErrCorrupt and leave no project or control directory behind.
func checkRestoreRefusesCorrupt(t *testing.T, tarPath string, g Genesis) {
	t.Helper()
	restoreDir := t.TempDir()
	if err := RestoreBackup(tarPath, restoreDir, g); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("restore of a corrupt backup = %v, want wal.ErrCorrupt", err)
	}
	for _, name := range []string{DefaultProject, controlDirName} {
		if _, err := os.Stat(filepath.Join(restoreDir, name)); !os.IsNotExist(err) {
			t.Errorf("refused restore left %s/ in the data directory (stat: %v)", name, err)
		}
	}
}

// TestScopedBackupRestoresAsDefault: one tenant's flat backup tarball
// restores into a fresh data dir as that server's default project.
func TestScopedBackupRestoresAsDefault(t *testing.T) {
	dir := t.TempDir()
	m := newTestMulti(t, MultiOptions{DataDir: dir, Tenant: Options{CompactAt: -1, Webhooks: notify.NewOutbox()}})
	labels := testLabels()
	spec := testSpec(t, 3, testSize, 2)
	if rec := doH(t, m, http.MethodPost, "/api/v1/projects", CreateProjectRequest{ID: "team-a", ProjectSpec: spec}); rec.Code != http.StatusCreated {
		t.Fatalf("create team-a status = %d: %s", rec.Code, rec.Body.String())
	}
	mustCommit(t, m, "/api/v1/projects/team-a/commit", labels, "a0", 30)
	teamHistory := bodyOf(t, m, "/api/v1/projects/team-a/history")

	rec := doH(t, m, http.MethodPost, "/api/v1/admin/backup?project=team-a", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("scoped backup status = %d: %s", rec.Code, rec.Body.String())
	}
	entries := readTarball(t, rec.Body.Bytes())
	if _, ok := entries["snapshot.json"]; !ok {
		t.Fatalf("scoped backup is not flat; has %v", keysOf(entries))
	}
	m.Close()

	tarPath := filepath.Join(t.TempDir(), "team-a.tar.gz")
	if err := os.WriteFile(tarPath, rec.Body.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	teamGenesis, err := spec.genesis()
	if err != nil {
		t.Fatal(err)
	}
	restoreDir := t.TempDir()
	if err := RestoreBackup(tarPath, restoreDir, teamGenesis); err != nil {
		t.Fatal(err)
	}
	m2, err := NewMulti(teamGenesis, MultiOptions{DataDir: restoreDir, Tenant: Options{WALNoSync: true, CompactAt: -1, Webhooks: notify.NewOutbox()}})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if got := bodyOf(t, m2, "/api/v1/history"); !bytes.Equal(got, teamHistory) {
		t.Fatalf("restored tenant history diverged:\n%s\n%s", got, teamHistory)
	}
}

// TestMigrationResumesAfterCrashAtRename: a crash between the legacy
// layout migration's two renames (snapshot moved into default/, wal.log
// still at the root) resumes cleanly at the next start with the full
// history intact.
func TestMigrationResumesAfterCrashAtRename(t *testing.T) {
	root := t.TempDir()
	g, labels := durableGenesis(t, 3, testSize)
	srv, err := openTestTenant(g, root, Options{WALNoSync: true, Webhooks: notify.NewOutbox()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rec, _ := doJSON(t, srv, http.MethodPost, "/api/v1/commit", CommitRequest{
			Model: fmt.Sprintf("m%d", i), Author: "dev", Message: "x",
			Predictions: goodPredictions(t, labels, 0.9, int64(10+i)),
		})
		if rec.Code != http.StatusOK {
			t.Fatalf("commit %d status = %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	history := getBody(t, srv, "/api/v1/history")
	closeTestTenant(srv)

	// Simulate the crash: the migration's first rename (snapshot) landed,
	// the second (wal.log) never ran.
	defDir := filepath.Join(root, DefaultProject)
	if err := os.MkdirAll(defDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(filepath.Join(root, "snapshot.json"), filepath.Join(defDir, "snapshot.json")); err != nil {
		t.Fatal(err)
	}

	m := newTestMulti(t, MultiOptions{DataDir: root})
	defer m.Close()
	if got := bodyOf(t, m, "/api/v1/history"); !bytes.Equal(got, history) {
		t.Fatalf("history diverged across resumed migration:\n%s\n%s", got, history)
	}
	if _, err := os.Stat(filepath.Join(root, "wal.log")); !os.IsNotExist(err) {
		t.Fatal("resumed migration left the legacy wal.log at the root")
	}
}

// TestBackupFingerprint reads the genesis fingerprint from a staged
// tenant directory: from the snapshot when there is one, else from the
// log's genesis record, and refuses a directory holding neither.
func TestBackupFingerprint(t *testing.T) {
	g, labels := durableGenesis(t, 3, testSize)
	want := g.fingerprint()

	logOnly := t.TempDir()
	srv, err := openTestTenant(g, logOnly, Options{Webhooks: notify.NewOutbox(), CompactAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, tenantHandler(srv), "/api/v1/commit", labels, "m0", 10)
	waitQuiescent(t, srv, 0)
	// Abandon without Close: the directory keeps only its log.
	if got, err := backupFingerprint(logOnly); err != nil || got != want {
		t.Fatalf("log-only fingerprint = %q, %v; want %q", got, err, want)
	}

	snapshotted := t.TempDir()
	srv, err = openTestTenant(g, snapshotted, Options{Webhooks: notify.NewOutbox()})
	if err != nil {
		t.Fatal(err)
	}
	closeTestTenant(srv) // compacts into snapshot.json
	if got, err := backupFingerprint(snapshotted); err != nil || got != want {
		t.Fatalf("snapshot fingerprint = %q, %v; want %q", got, err, want)
	}

	bad := func(files map[string]string) string {
		dir := t.TempDir()
		for name, content := range files {
			if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	for name, dir := range map[string]string{
		"empty":            bad(nil),
		"garbage snapshot": bad(map[string]string{"snapshot.json": "not json"}),
		"garbage log":      bad(map[string]string{"wal.log": "not json\n"}),
		"no genesis first": bad(map[string]string{"wal.log": `{"t":"commit","d":{}}` + "\n"}),
	} {
		if got, err := backupFingerprint(dir); err == nil {
			t.Errorf("%s: fingerprint %q, want an error", name, got)
		}
	}
}

// TestHealthEndpointsGETOnly: the health endpoints answer 405 to any
// other verb.
func TestHealthEndpointsGETOnly(t *testing.T) {
	m := newTestMulti(t, MultiOptions{})
	defer m.Close()
	for _, path := range []string{"/healthz", "/readyz"} {
		if rec := doH(t, m, http.MethodPost, path, nil); rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", path, rec.Code)
		}
		if rec := doH(t, m, http.MethodGet, path, nil); rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}
