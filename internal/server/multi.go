package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"github.com/easeml/ci/internal/bounds"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/planner"
	"github.com/easeml/ci/internal/queue"
	"github.com/easeml/ci/internal/registry"
	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/wal"
)

// Multi is the multi-project control plane and the only http.Handler: a
// registry of tenants, each an isolated Server (own engine, commit
// queue, and — in durable mode — own write-ahead log under
// dataDir/<project-id>/), multiplexed onto one shared worker pool with
// weighted round-robin scheduling and one shared plan cache. Every
// request is routed from one table (see ServeHTTP): the pre-projects
// single-tenant paths keep working as aliases of the implicit "default"
// project, answered by the same handlers as its scoped paths.
type Multi struct {
	dataDir     string
	base        Options
	reg         *registry.Registry
	pool        *queue.Pool
	autoSalvage bool

	mu      sync.RWMutex // guards tenants, sick and quotas
	tenants map[string]*Server
	// sick maps project IDs whose write-ahead state refused to open
	// (wal.ErrCorrupt) to the reason. A sick tenant answers 503 with a
	// structured degraded body instead of taking the control plane down;
	// everything else keeps serving.
	sick map[string]string
	// quotas holds each registered project's quotas from its spec, set at
	// create and at recovery, so project info never decodes a stored spec
	// (two arrays of one int per example) to read two ints.
	quotas map[string]projectQuotas

	// controlSalvages counts auto-salvage runs on the control log itself;
	// backups/backupBytes count unscoped (whole-control-plane) backups.
	// None are cleared by the admin cache reset.
	controlSalvages atomic.Uint64
	backupCounters

	// lifecycleMu serializes create/suspend/resume/delete/Close against
	// each other without blocking request routing.
	lifecycleMu sync.Mutex
	closed      bool
}

// DefaultProject is the implicit tenant every pre-projects API path
// aliases to. It is defined by the serving process's own flags (not a
// registry record), cannot be suspended or deleted, and in durable mode
// lives under dataDir/default/.
const DefaultProject = "default"

// controlDirName is the registry's directory under the data dir; the
// project-ID alphabet cannot produce it.
const controlDirName = "_control"

// MultiOptions configures the control plane.
type MultiOptions struct {
	// DataDir is the root state directory: the registry's control log
	// lives in DataDir/_control, each project's WAL in DataDir/<id>/.
	// Empty runs everything in-memory.
	DataDir string
	// PoolWorkers sizes the shared worker pool (0 means
	// queue.DefaultPoolWorkers) — how many tenants evaluate concurrently.
	PoolWorkers int
	// ManualPool disables the pool's workers; tests drive scheduling
	// decisions one at a time via RunOne.
	ManualPool bool
	// DefaultWeight is the default project's scheduling weight (<1 means 1).
	DefaultWeight int
	// AutoSalvage runs wal.Salvage and retries once when a tenant's (or
	// the control plane's) write-ahead state refuses to open with
	// wal.ErrCorrupt. Off by default: salvage truncates the log to its
	// longest valid prefix, which is an operator decision.
	AutoSalvage bool
	// ControlFS is the filesystem the control-plane registry log goes
	// through; nil means the real one (disk-fault tests inject here).
	ControlFS wal.FS
	// Tenant is the per-tenant Options template: clock, webhooks, retry
	// policy, and WAL tuning apply to every project; QueueCapacity and
	// LabelQuota apply to the default project (registered projects carry
	// their own in their specs).
	Tenant Options
}

// ProjectSpec is a registered project's description — the POST body of
// /api/v1/projects (minus the ID) and the opaque payload the registry
// stores. It is the wire twin of Genesis plus the tenant's scheduling
// weight and quotas.
type ProjectSpec struct {
	Condition   string  `json:"condition"`
	Reliability float64 `json:"reliability"`
	Steps       int     `json:"steps"`
	// Mode collapses Unknown evaluations: "fp-free" (default) or "fn-free".
	Mode string `json:"mode,omitempty"`
	// Adaptivity is "full" (default), "none", or "firstChange"; "none"
	// requires Email, the address true results are routed to.
	Adaptivity string `json:"adaptivity,omitempty"`
	Email      string `json:"email,omitempty"`
	// Labels and Classes define the first testset; ModelPredictions are
	// the deployed baseline's predictions on it.
	Labels           []int  `json:"labels"`
	Classes          int    `json:"classes"`
	ModelName        string `json:"model,omitempty"`
	ModelPredictions []int  `json:"model_predictions"`
	// Weight is the tenant's share of the scheduler (<1 means 1).
	Weight int `json:"weight,omitempty"`
	// QueueCapacity bounds the tenant's pending commit backlog (its
	// queue-depth quota); 0 means the queue default.
	QueueCapacity int `json:"queue_capacity,omitempty"`
	// LabelQuota caps the tenant's cumulative label spend; commits past
	// it answer 429. 0 means unlimited.
	LabelQuota int `json:"label_quota,omitempty"`
}

// genesis validates the spec and shapes it into the Genesis a tenant
// server boots from.
func (sp ProjectSpec) genesis() (Genesis, error) {
	var mode interval.Mode
	switch sp.Mode {
	case "", "fp-free":
		mode = interval.FPFree
	case "fn-free":
		mode = interval.FNFree
	default:
		return Genesis{}, fmt.Errorf("bad mode %q (fp-free | fn-free)", sp.Mode)
	}
	var adapt script.Adaptivity
	switch sp.Adaptivity {
	case "", "full":
		adapt = script.Adaptivity{Kind: script.AdaptivityFull}
	case "none":
		adapt = script.Adaptivity{Kind: script.AdaptivityNone, Email: sp.Email}
	case "firstChange":
		adapt = script.Adaptivity{Kind: script.AdaptivityFirstChange}
	default:
		return Genesis{}, fmt.Errorf("bad adaptivity %q (none | full | firstChange)", sp.Adaptivity)
	}
	name := sp.ModelName
	if name == "" {
		name = "deployed-h0"
	}
	g := Genesis{
		Condition:        sp.Condition,
		Reliability:      sp.Reliability,
		Mode:             mode,
		Adaptivity:       adapt,
		Steps:            sp.Steps,
		Labels:           sp.Labels,
		Classes:          sp.Classes,
		ModelName:        name,
		ModelPredictions: sp.ModelPredictions,
	}
	if _, err := g.config(); err != nil {
		return Genesis{}, err
	}
	if len(g.ModelPredictions) != len(g.Labels) {
		return Genesis{}, fmt.Errorf("%d model predictions for %d labels", len(g.ModelPredictions), len(g.Labels))
	}
	ds, err := datasetFromLabels("genesis", g.Labels, g.Classes)
	if err != nil {
		return Genesis{}, err
	}
	g.ds = ds
	return g, nil
}

// tenantOptions shapes the spec's quotas onto the template.
func (m *Multi) tenantOptions(sp ProjectSpec) Options {
	topts := m.base
	topts.QueueCapacity = sp.QueueCapacity
	topts.LabelQuota = sp.LabelQuota
	return topts
}

// NewMulti builds the control plane: the default project from g and
// opts.Tenant, then every registered project replayed from the control
// log (durable mode), each reopening its own WAL. Callers must Close it.
func NewMulti(g Genesis, opts MultiOptions) (*Multi, error) {
	m := &Multi{
		dataDir:     opts.DataDir,
		base:        opts.Tenant,
		autoSalvage: opts.AutoSalvage,
		tenants:     make(map[string]*Server),
		sick:        make(map[string]string),
		quotas:      make(map[string]projectQuotas),
	}
	controlDir := ""
	if opts.DataDir != "" {
		if err := migrateLegacyLayout(opts.DataDir); err != nil {
			return nil, fmt.Errorf("server: control plane: %w", err)
		}
		controlDir = filepath.Join(opts.DataDir, controlDirName)
	}
	regOpts := registry.Options{NoSync: opts.Tenant.WALNoSync, FS: opts.ControlFS}
	reg, err := registry.Open(controlDir, regOpts)
	if err != nil && opts.AutoSalvage && errors.Is(err, wal.ErrCorrupt) {
		// The control log itself is damaged. Salvage quarantines the bad
		// suffix and we retry once; without -auto-salvage this stays an
		// operator decision (easeml-ci-server -salvage).
		if res, serr := wal.Salvage(controlDir); serr == nil && res.Repaired {
			if reg2, rerr := registry.Open(controlDir, regOpts); rerr == nil {
				reg, err = reg2, nil
				m.controlSalvages.Add(1)
			}
		}
	}
	if err != nil {
		return nil, fmt.Errorf("server: control plane: %w", err)
	}
	m.reg = reg
	m.pool = queue.NewPool(queue.PoolOptions{Workers: opts.PoolWorkers, Manual: opts.ManualPool})

	defOpts := m.tenantOptions(ProjectSpec{
		QueueCapacity: opts.Tenant.QueueCapacity,
		LabelQuota:    opts.Tenant.LabelQuota,
	})
	if _, err := m.openTenant(DefaultProject, g, opts.DefaultWeight, defOpts); err != nil {
		if m.dataDir != "" && errors.Is(err, wal.ErrCorrupt) {
			// The default project's state is damaged but the control plane
			// is not: boot degraded, answer its requests 503/salvage-required,
			// keep every other tenant serving.
			m.markSick(DefaultProject, err)
		} else {
			m.pool.Close()
			_ = reg.Close()
			return nil, err
		}
	}
	// Recover registered projects in creation order. A project whose
	// stored spec no longer parses is control-plane corruption and refuses
	// the boot; a project whose own WAL is damaged (wal.ErrCorrupt) is
	// quarantined as sick instead — one rotten log must not take down the
	// tenants whose logs are fine.
	for _, p := range reg.List() {
		var sp ProjectSpec
		perr := decodeProjectSpec(p.Spec, &sp)
		var pg Genesis
		if perr == nil {
			m.setQuotas(p.ID, sp)
			pg, perr = sp.genesis()
		}
		if perr == nil {
			_, perr = m.openTenant(p.ID, pg, sp.Weight, m.tenantOptions(sp))
		}
		if perr != nil {
			if m.dataDir != "" && errors.Is(perr, wal.ErrCorrupt) {
				m.markSick(p.ID, perr)
				continue
			}
			m.Close()
			return nil, fmt.Errorf("server: control plane: project %q: %w", p.ID, perr)
		}
	}
	m.sweepOrphans()
	return m, nil
}

// openTenant builds one project's server (durable when the control plane
// has a data dir) and attaches it to the shared pool.
func (m *Multi) openTenant(id string, g Genesis, weight int, topts Options) (*Server, error) {
	dir := ""
	if m.dataDir != "" {
		dir = filepath.Join(m.dataDir, id)
	}
	srv, err := newTenant(g, dir, topts)
	if err != nil && m.autoSalvage && m.dataDir != "" && errors.Is(err, wal.ErrCorrupt) {
		// Damaged state and the operator opted into automatic repair:
		// quarantine the bad suffix, retry once. The original error is kept
		// in the chain if the retry fails too, so the caller's
		// errors.Is(err, wal.ErrCorrupt) sick-tenant handling still fires.
		if res, serr := wal.Salvage(dir); serr == nil && res.Repaired {
			srv2, rerr := newTenant(g, dir, topts)
			if rerr == nil {
				srv, err = srv2, nil
				srv.salvageRuns.Add(1)
			} else {
				err = fmt.Errorf("%w (after salvage: %v)", err, rerr)
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if err := attachTenant(m.pool, id, srv, weight); err != nil {
		srv.Close()
		return nil, err
	}
	m.mu.Lock()
	m.tenants[id] = srv
	delete(m.sick, id)
	m.mu.Unlock()
	return srv, nil
}

// projectQuotas are the quotas a registered project's spec sets.
type projectQuotas struct{ queueCapacity, labelQuota int }

// setQuotas records a registered project's quotas from its spec.
func (m *Multi) setQuotas(id string, sp ProjectSpec) {
	m.mu.Lock()
	m.quotas[id] = projectQuotas{queueCapacity: sp.QueueCapacity, labelQuota: sp.LabelQuota}
	m.mu.Unlock()
}

// dropQuotas forgets a project's quotas.
func (m *Multi) dropQuotas(id string) {
	m.mu.Lock()
	delete(m.quotas, id)
	m.mu.Unlock()
}

// markSick records a tenant whose write-ahead state refused to open.
func (m *Multi) markSick(id string, err error) {
	m.mu.Lock()
	m.sick[id] = err.Error()
	m.mu.Unlock()
}

// sickReason reports why a tenant is sick, if it is.
func (m *Multi) sickReason(id string) (string, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	reason, ok := m.sick[id]
	return reason, ok
}

// writeSickError answers a request routed at a salvage-required tenant:
// 503 with the structured degraded body, never a bare failure — clients
// and load balancers can tell "this tenant needs an operator" from
// "the server is broken".
func writeSickError(w http.ResponseWriter, id, reason string) {
	writeJSON(w, http.StatusServiceUnavailable, errorResponse{
		Error:    fmt.Sprintf("project %q requires salvage: %s", id, reason),
		Degraded: true,
		Reason:   degradedReasonSalvage,
	})
}

// migrateLegacyLayout moves a pre-projects data directory's root-level
// write-ahead state (dataDir/wal.log plus its snapshot) into the default
// project's directory, where the multi-tenant layout keeps it. An
// in-place upgrade therefore carries its history forward instead of
// silently booting a fresh default project next to an ignored log. The
// snapshot moves first: a crash mid-migration leaves the legacy wal.log
// at the root, so the next start resumes the migration — never a log
// whose snapshot went missing. Both layouts populated at once is
// ambiguous (which history is the default project's?) and refused.
func migrateLegacyLayout(dataDir string) error {
	legacy := filepath.Join(dataDir, "wal.log")
	if _, err := os.Stat(legacy); err != nil {
		return nil // no legacy root-level log: nothing to migrate
	}
	defDir := filepath.Join(dataDir, DefaultProject)
	migrated := filepath.Join(defDir, "wal.log")
	if _, err := os.Stat(migrated); err == nil {
		return fmt.Errorf("both %s (pre-projects layout) and %s exist; remove whichever is stale and restart", legacy, migrated)
	}
	if err := os.MkdirAll(defDir, 0o755); err != nil {
		return fmt.Errorf("migrating legacy layout: %w", err)
	}
	for _, name := range []string{"snapshot.json", "wal.log"} {
		src := filepath.Join(dataDir, name)
		if _, err := os.Stat(src); err != nil {
			continue
		}
		if err := os.Rename(src, filepath.Join(defDir, name)); err != nil {
			return fmt.Errorf("migrating legacy layout: %w", err)
		}
	}
	return nil
}

// sweepOrphans removes project directories a crash stranded between the
// registry's durable delete record and the directory removal. Only
// directories holding a wal.log are touched, and never the control dir,
// the default project, or a registered project.
func (m *Multi) sweepOrphans() {
	if m.dataDir == "" {
		return
	}
	entries, err := os.ReadDir(m.dataDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == controlDirName || e.Name() == DefaultProject {
			continue
		}
		if _, ok := m.reg.Get(e.Name()); ok {
			continue
		}
		if _, err := os.Stat(filepath.Join(m.dataDir, e.Name(), "wal.log")); err != nil {
			continue
		}
		_ = os.RemoveAll(filepath.Join(m.dataDir, e.Name()))
	}
}

// projects lists the default project, then the registered ones in
// creation order.
func (m *Multi) projects() []registry.Project {
	return append([]registry.Project{{ID: DefaultProject, State: registry.Active}}, m.reg.List()...)
}

// tenant looks one project's server up.
func (m *Multi) tenant(id string) *Server {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.tenants[id]
}

// Default returns the default project's server — the handler every
// pre-projects API path aliases to.
func (m *Multi) Default() *Server { return m.tenant(DefaultProject) }

// RunOne drives one scheduling decision on the calling goroutine; only
// meaningful with MultiOptions.ManualPool (the deterministic harness).
func (m *Multi) RunOne() bool { return m.pool.RunOne() }

// Close shuts the control plane down in dependency order: intake stops
// on every project first, the shared pool then drains every accepted
// job, and only then do the tenants compact and close their logs,
// followed by the control log. A commit racing Close is therefore either
// fully journaled or never acknowledged — never half of each.
func (m *Multi) Close() {
	m.lifecycleMu.Lock()
	defer m.lifecycleMu.Unlock()
	if m.closed {
		return
	}
	m.closed = true
	m.mu.RLock()
	tenants := make([]*Server, 0, len(m.tenants))
	for _, srv := range m.tenants {
		tenants = append(tenants, srv)
	}
	m.mu.RUnlock()
	for _, srv := range tenants {
		srv.CloseIntake()
	}
	m.pool.Close()
	for _, srv := range tenants {
		srv.Close()
	}
	_ = m.reg.Close()
}

// --- wire types ---------------------------------------------------------

// CreateProjectRequest is the POST /api/v1/projects body.
type CreateProjectRequest struct {
	ID string `json:"id"`
	ProjectSpec
}

// ProjectInfo is one project's control-plane view.
type ProjectInfo struct {
	ID            string `json:"id"`
	State         string `json:"state"`
	Weight        int    `json:"weight"`
	QueueCapacity int    `json:"queue_capacity,omitempty"`
	LabelQuota    int    `json:"label_quota,omitempty"`
	Default       bool   `json:"default,omitempty"`
}

// ProjectListResponse answers GET /api/v1/projects: the default project
// first, registered projects in creation order.
type ProjectListResponse struct {
	Projects []ProjectInfo `json:"projects"`
}

// TenantMetrics is one project's slice of the control-plane metrics:
// everything tenant-owned, none of the shared caches (those are reported
// once at the top level).
type TenantMetrics struct {
	ID                string      `json:"id"`
	State             string      `json:"state"`
	CommitQueue       queue.Stats `json:"commit_queue"`
	CommitsEvaluated  uint64      `json:"commits_evaluated"`
	CommitEvalNsTotal uint64      `json:"commit_eval_ns_total"`
	LabelsSavedTotal  uint64      `json:"labels_saved_total"`
	EarlyExitsTotal   uint64      `json:"early_exits_total"`
	EarlyExitLooks    []uint64    `json:"early_exit_looks,omitempty"`
	WebhooksSent      uint64      `json:"webhooks_sent"`
	WebhooksFailed    uint64      `json:"webhooks_failed"`
	WAL               *wal.Stats  `json:"wal,omitempty"`
	// LabelOracle is this tenant's remote label client health (see
	// MetricsResponse.LabelOracle). Like the WAL stats, it survives the
	// admin cache reset — delivery state, not a cache.
	LabelOracle *labeling.OracleStats `json:"label_oracle,omitempty"`
	// Storage is the tenant's write-ahead state health (poisoning,
	// salvage history, quarantined bytes, backups). Survives the admin
	// cache reset — operational state, not a cache.
	Storage *StorageHealth `json:"storage,omitempty"`
}

// MultiMetricsResponse is GET /api/v1/metrics on the control plane: the
// process-wide shared caches exactly once (tenants warm them for each
// other, so per-tenant attribution would double-count), the scheduler,
// the control log, and each tenant's own counters.
type MultiMetricsResponse struct {
	SharedCacheStats
	Scheduler  queue.PoolStats `json:"scheduler"`
	ControlWAL *wal.Stats      `json:"control_wal,omitempty"`
	// LabelsSavedTotal / EarlyExitsTotal sum the early-decision savings
	// across every tenant — the fleet-wide view of what the sequential
	// evaluation is worth; per-tenant attribution is in Projects.
	LabelsSavedTotal uint64          `json:"labels_saved_total"`
	EarlyExitsTotal  uint64          `json:"early_exits_total"`
	Projects         []TenantMetrics `json:"projects"`
	// Storage rolls every tenant's storage health plus the control log's
	// into one global view (worst state wins). Survives the admin cache
	// reset.
	Storage *StorageHealth `json:"storage,omitempty"`
}

// tenantMetrics gathers one server's tenant-owned counters.
func (s *Server) tenantMetrics(id, state string) TenantMetrics {
	return TenantMetrics{
		ID:                id,
		State:             state,
		CommitQueue:       s.jobs.Stats(),
		CommitsEvaluated:  s.commitsEvaluated.Load(),
		CommitEvalNsTotal: s.commitEvalNs.Load(),
		LabelsSavedTotal:  s.labelsSaved.Load(),
		EarlyExitsTotal:   s.earlyExits.Load(),
		EarlyExitLooks:    s.lookHistSnapshot(),
		WebhooksSent:      s.webhooksSent.Load(),
		WebhooksFailed:    s.webhooksFailed.Load(),
		WAL:               s.WALStats(),
		LabelOracle:       s.oracleStats(),
		Storage:           s.storageHealth(),
	}
}

// resetCommitCounters clears the tenant-owned serving counters — the
// per-tenant half of the admin cache reset.
func (s *Server) resetCommitCounters() {
	s.commitsEvaluated.Store(0)
	s.commitEvalNs.Store(0)
	s.labelsSaved.Store(0)
	s.earlyExits.Store(0)
	for i := range s.lookHist {
		s.lookHist[i].Store(0)
	}
}

func (m *Multi) handleProjects(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, ProjectListResponse{Projects: m.projectInfos()})
	case http.MethodPost:
		m.handleCreateProject(w, r)
	default:
		writeError(w, http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// projectInfos lists the default project plus the registry, in creation
// order.
func (m *Multi) projectInfos() []ProjectInfo {
	defState := string(registry.Active)
	if _, sick := m.sickReason(DefaultProject); sick {
		defState = StorageSalvageRequired
	}
	infos := []ProjectInfo{{
		ID:            DefaultProject,
		State:         defState,
		Weight:        m.poolWeight(DefaultProject),
		QueueCapacity: m.base.QueueCapacity,
		LabelQuota:    m.base.LabelQuota,
		Default:       true,
	}}
	for _, p := range m.reg.List() {
		infos = append(infos, m.projectInfo(p))
	}
	return infos
}

func (m *Multi) projectInfo(p registry.Project) ProjectInfo {
	m.mu.RLock()
	q := m.quotas[p.ID]
	m.mu.RUnlock()
	state := string(p.State)
	if _, sick := m.sickReason(p.ID); sick {
		state = StorageSalvageRequired
	}
	return ProjectInfo{
		ID:            p.ID,
		State:         state,
		Weight:        m.poolWeight(p.ID),
		QueueCapacity: q.queueCapacity,
		LabelQuota:    q.labelQuota,
	}
}

// poolWeight reads one source's effective (clamped) weight back from the
// scheduler.
func (m *Multi) poolWeight(id string) int {
	for _, s := range m.pool.Stats().Sources {
		if s.ID == id {
			return s.Weight
		}
	}
	return 0
}

func (m *Multi) handleCreateProject(w http.ResponseWriter, r *http.Request) {
	var req CreateProjectRequest
	body, err := readBody(w, r, createBodyLimit)
	if err == nil {
		err = decodeCreateRequest(body, &req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	if err := registry.ValidID(req.ID); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.ID == DefaultProject {
		writeError(w, http.StatusConflict, `"default" is the implicit project every unscoped path serves`)
		return
	}
	g, err := req.ProjectSpec.genesis()
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad project spec: "+err.Error())
		return
	}
	spec, err := req.ProjectSpec.appendJSON(nil)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	m.lifecycleMu.Lock()
	defer m.lifecycleMu.Unlock()
	if m.closed {
		writeError(w, http.StatusServiceUnavailable, "control plane is shutting down")
		return
	}
	// The quotas go in before the create record makes the project visible
	// to listings, and come out again if the create fails; an ID already
	// registered keeps its own.
	_, dup := m.reg.Get(req.ID)
	if !dup {
		m.setQuotas(req.ID, req.ProjectSpec)
	}
	// Record-then-open: the registry's create record is durable before
	// the tenant exists, so a crash mid-open leaves a registered project
	// that reopens (or refuses loudly) at the next start — never a
	// half-known one.
	if err := m.reg.Create(req.ID, spec); err != nil {
		if !dup {
			m.dropQuotas(req.ID)
		}
		status := http.StatusUnprocessableEntity
		if errors.Is(err, registry.ErrExists) {
			status = http.StatusConflict
		}
		writeError(w, status, err.Error())
		return
	}
	if _, err := m.openTenant(req.ID, g, req.Weight, m.tenantOptions(req.ProjectSpec)); err != nil {
		_ = m.reg.Delete(req.ID)
		m.dropQuotas(req.ID)
		if m.dataDir != "" {
			_ = os.RemoveAll(filepath.Join(m.dataDir, req.ID))
		}
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	p, _ := m.reg.Get(req.ID)
	writeJSON(w, http.StatusCreated, m.projectInfo(p))
}

func (m *Multi) handleProjectInfo(w http.ResponseWriter, id string) {
	if id == DefaultProject {
		writeJSON(w, http.StatusOK, m.projectInfos()[0])
		return
	}
	p, ok := m.reg.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no project %q", id))
		return
	}
	writeJSON(w, http.StatusOK, m.projectInfo(p))
}

func (m *Multi) handleProjectState(w http.ResponseWriter, id string, suspend bool) {
	if id == DefaultProject {
		writeError(w, http.StatusConflict, "the default project cannot be suspended")
		return
	}
	m.lifecycleMu.Lock()
	defer m.lifecycleMu.Unlock()
	var err error
	if suspend {
		err = m.reg.Suspend(id)
	} else {
		err = m.reg.Resume(id)
	}
	switch {
	case errors.Is(err, registry.ErrNotFound):
		writeError(w, http.StatusNotFound, err.Error())
	case err != nil:
		writeError(w, http.StatusServiceUnavailable, err.Error())
	default:
		p, _ := m.reg.Get(id)
		writeJSON(w, http.StatusOK, m.projectInfo(p))
	}
}

// handleDeleteProject tears a tenant down: route removal first (no new
// requests), then the scheduler (waits out its in-flight job), then the
// server, then the durable delete record, then the directory. A crash
// after the record leaves an orphan directory the next start sweeps.
func (m *Multi) handleDeleteProject(w http.ResponseWriter, id string) {
	if id == DefaultProject {
		writeError(w, http.StatusConflict, "the default project cannot be deleted")
		return
	}
	m.lifecycleMu.Lock()
	defer m.lifecycleMu.Unlock()
	if _, ok := m.reg.Get(id); !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no project %q", id))
		return
	}
	m.mu.Lock()
	srv := m.tenants[id]
	delete(m.tenants, id)
	delete(m.sick, id) // deleting a sick project is the other way out of salvage-required
	m.mu.Unlock()
	if srv != nil {
		srv.CloseIntake()
		m.pool.Unregister(id)
		// The scheduler has forgotten this queue's unscheduled backlog;
		// fail those jobs now so every accepted job reaches a terminal
		// state — a synchronous commit waiting in it gets its 409 instead
		// of blocking forever on a queue nothing will ever drain. (The
		// WAL records skipped here are moot: the whole directory goes.)
		srv.jobs.Abandon()
		srv.Close()
	}
	if err := m.reg.Delete(id); err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	m.dropQuotas(id)
	if m.dataDir != "" {
		_ = os.RemoveAll(filepath.Join(m.dataDir, id))
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// --- control-plane metrics and admin ------------------------------------

// metricsSnapshot gathers the control-plane metrics: shared caches once,
// then every tenant.
func (m *Multi) metricsSnapshot() MultiMetricsResponse {
	resp := MultiMetricsResponse{
		SharedCacheStats: sharedCacheStats(),
		Scheduler:        m.pool.Stats(),
		ControlWAL:       m.reg.Stats(),
	}
	for _, p := range m.projects() {
		if srv := m.tenant(p.ID); srv != nil {
			resp.Projects = append(resp.Projects, srv.tenantMetrics(p.ID, string(p.State)))
		} else if _, ok := m.sickReason(p.ID); ok {
			resp.Projects = append(resp.Projects, m.sickTenantMetrics(p.ID))
		}
	}
	for _, p := range resp.Projects {
		resp.LabelsSavedTotal += p.LabelsSavedTotal
		resp.EarlyExitsTotal += p.EarlyExitsTotal
	}
	resp.Storage = m.storageAggregate(resp.Projects)
	return resp
}

// sickTenantMetrics is the metrics row for a tenant that could not
// open: no serving counters to report, but its storage condition —
// including the quarantined bytes sitting in its directory — still
// shows up, because that is exactly the tenant an operator is looking
// for.
func (m *Multi) sickTenantMetrics(id string) TenantMetrics {
	return TenantMetrics{
		ID:    id,
		State: StorageSalvageRequired,
		Storage: &StorageHealth{
			State:            StorageSalvageRequired,
			QuarantinedBytes: wal.QuarantinedBytes(filepath.Join(m.dataDir, id)),
		},
	}
}

func (m *Multi) handleMetrics(w http.ResponseWriter, r *http.Request, _ scope) {
	writeJSON(w, http.StatusOK, m.metricsSnapshot())
}

// scopedTenant resolves an admin request's scope: the project its path
// names, else an optional ?project= parameter. It answers ("", nil, true)
// when unscoped; unknown IDs answer 404 and sick ones 503.
func (m *Multi) scopedTenant(w http.ResponseWriter, r *http.Request, sc scope) (string, *Server, bool) {
	id := sc.id
	if id == "" {
		id = r.URL.Query().Get("project")
	}
	if id == "" {
		return "", nil, true
	}
	srv, ok := m.openProject(w, id)
	return id, srv, ok
}

// requireDurable reports whether the control plane has a data
// directory, and answers 409 when it has none: the storage admin
// endpoints (backup, compact) have nothing to work on in memory. They
// resolve their scope first, so an unknown project is 404 in every
// spelling.
func (m *Multi) requireDurable(w http.ResponseWriter) bool {
	if m.dataDir == "" {
		writeError(w, http.StatusConflict, "control plane is not durable (no data directory)")
	}
	return m.dataDir != ""
}

// openProject looks a project's tenant up, answering 503 for a sick
// project and 404 for an unknown one.
func (m *Multi) openProject(w http.ResponseWriter, id string) (*Server, bool) {
	srv := m.tenant(id)
	if srv == nil {
		if reason, ok := m.sickReason(id); ok {
			writeSickError(w, id, reason)
		} else {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no project %q", id))
		}
	}
	return srv, srv != nil
}

// handleAdminReset is the project-aware cache reset. Unscoped, it clears
// the shared caches exactly once plus every tenant's counters, and
// reports the pre-reset control-plane snapshot (shared counters once,
// not repeated per tenant). Scoped to a project, by path or ?project=,
// it clears only that tenant's counters — the shared caches serve every
// tenant and are not a single project's to drop.
func (m *Multi) handleAdminReset(w http.ResponseWriter, r *http.Request, sc scope) {
	id, srv, ok := m.scopedTenant(w, r, sc)
	if !ok {
		return
	}
	if srv != nil {
		state := string(registry.Active)
		if p, ok := m.reg.Get(id); ok {
			state = string(p.State)
		}
		pre := srv.tenantMetrics(id, state)
		srv.resetCommitCounters()
		writeJSON(w, http.StatusOK, pre)
		return
	}
	pre := m.metricsSnapshot()
	planner.Default.Reset()
	bounds.ResetExactCache()
	m.mu.RLock()
	for _, t := range m.tenants {
		t.resetCommitCounters()
	}
	m.mu.RUnlock()
	writeJSON(w, http.StatusOK, pre)
}

// CompactResponse answers the control plane's unscoped admin compact:
// the post-compaction stats of every log it owns.
type CompactResponse struct {
	Control  *wal.Stats            `json:"control,omitempty"`
	Projects map[string]*wal.Stats `json:"projects"`
}

// handleAdminCompact snapshots and truncates write-ahead logs on demand:
// one project's when scoped (by path or ?project=), otherwise every
// durable tenant's plus the control log.
func (m *Multi) handleAdminCompact(w http.ResponseWriter, r *http.Request, sc scope) {
	// Both scopes hold lifecycleMu across the compaction: a concurrent
	// DELETE of the tenant being compacted must not close its WAL or
	// remove its directory while Compact is writing a snapshot into it.
	m.lifecycleMu.Lock()
	defer m.lifecycleMu.Unlock()
	id, srv, ok := m.scopedTenant(w, r, sc)
	if !ok || !m.requireDurable(w) {
		return
	}
	if srv != nil {
		if err := srv.Compact(); err != nil {
			writeStorageError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]*wal.Stats{id: srv.WALStats()})
		return
	}
	resp := CompactResponse{Projects: make(map[string]*wal.Stats)}
	compactOne := func(id string, srv *Server) bool {
		if err := srv.Compact(); err != nil {
			writeStorageError(w, http.StatusServiceUnavailable, fmt.Errorf("project %q: %w", id, err))
			return false
		}
		resp.Projects[id] = srv.WALStats()
		return true
	}
	for _, p := range m.projects() {
		if srv := m.tenant(p.ID); srv != nil && !compactOne(p.ID, srv) {
			return
		}
	}
	if err := m.reg.Compact(); err != nil {
		writeError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	resp.Control = m.reg.Stats()
	writeJSON(w, http.StatusOK, resp)
}
