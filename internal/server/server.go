// Package server exposes the CI engine over HTTP — the hosted face of the
// Figure 1 workflow. A developer's test script produces a prediction vector
// for the current testset and POSTs it as a commit; the server replies with
// the (adaptivity-filtered) signal, and the integration team reads status,
// plans, and history, and rotates testsets when the alarm fires.
//
// Multi is the only http.Handler: it serves every project, and the
// routes are listed in one table on Multi.ServeHTTP.
//
// All plans — single and batch — are served through the sharded LRU plan
// cache (internal/planner), so concurrent plan traffic neither recomputes
// identical plans nor serializes on a single cache mutex; /api/v1/metrics
// exposes the aggregated per-shard hit/miss/entry counters.
//
// Commits — synchronous and asynchronous — flow through one bounded FIFO
// queue (internal/queue) drained into engine.Commit: POST commit enqueues
// and waits, POST commit/async enqueues and returns 202 immediately. Both
// paths execute the identical code, so for the same commit sequence they
// produce byte-identical CommitResponses and engine history; a burst of
// submissions is absorbed as queued jobs instead of stacking callers on
// the engine lock.
//
// # Storage fault tolerance
//
// Durable state is guarded at three layers.
//
// The salvage guarantee: wal.Fsck classifies on-disk damage (torn tail,
// mid-log corruption, snapshot CRC mismatch) and wal.Salvage recovers
// the longest valid prefix — after salvage, replaying the log is
// byte-identical to replaying the undamaged prefix of the original —
// while every byte cut away is preserved in a *.quarantine file beside
// the log, never silently dropped. The easeml-ci-server -fsck and
// -salvage flags run these offline; MultiOptions.AutoSalvage (the
// -auto-salvage flag) runs salvage at boot.
//
// Degraded read-only mode: a write-ahead append failure poisons only
// that tenant's mutations, which answer 503 with the structured body
// {"error":..., "degraded":true, "reason":"wal_poisoned"}; reads keep
// serving the last durable state. A tenant whose state refuses to open
// at boot is marked salvage-required (reason "salvage_required") and
// answers the same structured 503 — one sick project never takes the
// control plane or its healthy tenants down. GET /healthz (always 200)
// and GET /readyz (503 unless every tenant's storage is ok) report
// per-tenant WAL health, queue depth, parked jobs, and the label
// oracle's breaker state; /api/v1/metrics carries the same storage
// counters per tenant and globally, and the admin cache reset never
// clears them.
//
// Online backup: POST /api/v1/admin/backup streams a consistent
// snapshot+log tarball without pausing intake — scoped with ?project=
// for one tenant, unscoped for the whole control plane including the
// _control registry log and the raw (quarantines included) bytes of any
// sick tenant. RestoreBackup (the -restore flag) adopts a tarball into
// a fresh data directory only after the backup's genesis fingerprint
// matches the server's configuration.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/easeml/ci/internal/bounds"
	"github.com/easeml/ci/internal/core"
	"github.com/easeml/ci/internal/engine"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/parallel"
	"github.com/easeml/ci/internal/planner"
	"github.com/easeml/ci/internal/queue"
	"github.com/easeml/ci/internal/resilience"
	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/wal"
)

// Server is one project's tenant: an engine, its commit queue and, in
// durable mode, its write-ahead log. Multi routes requests to its
// handlers. The engine is not concurrency-safe; all commit evaluation
// is serialized through the job queue and the engine lock. Plan queries
// are read-only and served through the plan cache without touching the
// engine lock.
type Server struct {
	mu  sync.Mutex
	eng *engine.Engine
	cfg *script.Config
	// testsetLen mirrors the current testset's size so commit handlers
	// can bound and size a body without waiting for the engine lock.
	testsetLen atomic.Int64
	// classes is the label alphabet's size. A rotation keeps it, so it is
	// read once here and a rotation builds its dataset outside the lock.
	classes int

	jobs     *queue.Queue[commitJob, CommitResponse]
	webhooks notify.Notifier
	// deliver wraps the webhook notifier with the durable retry queue:
	// exponential backoff, bounded attempts, and per-subscriber circuit
	// breakers. All webhook traffic flows through it.
	deliver        *notify.Reliable
	webhooksSent   atomic.Uint64
	webhooksFailed atomic.Uint64

	// Durable-mode state (nil/zero when the server is in-memory). wlog is
	// the write-ahead log; every externally visible state change appends
	// a record before (or atomically with) being acknowledged. walFailed
	// poisons the server after an append failure: mutating endpoints
	// answer 503 until a restart replays the log back to the last durable
	// state. table mirrors the WAL's job records so compaction can
	// snapshot them without re-reading the log; tableMu guards it and
	// every WAL append outside the engine lock (lock order: s.mu or the
	// queue's lock, then tableMu, then the log's internal leaf mutex —
	// Compact holds s.mu+tableMu, freezing all appenders).
	wlog        *wal.Log
	walFailed   atomic.Bool
	genesisFP   string
	dataDir     string
	salvageRuns atomic.Uint64
	backupCounters
	tableMu      sync.Mutex
	table        map[string]*jobEntry
	tableOrder   []string
	tableNextSeq int
	compactAt    int64
	retain       int

	// commitsEvaluated / commitEvalNs track the measurement core's served
	// throughput: successful engine evaluations and the cumulative wall
	// time spent inside engine.Commit.
	commitsEvaluated atomic.Uint64
	commitEvalNs     atomic.Uint64
	// labelsSaved / earlyExits / lookHist track the sequential
	// evaluation's label economy: oracle labels not spent versus the
	// static plan, commits whose verdict was forced early, and a
	// histogram of how many looks each early exit took (the last bucket
	// absorbs deeper exits).
	labelsSaved atomic.Uint64
	earlyExits  atomic.Uint64
	lookHist    [lookHistBuckets]atomic.Uint64

	// The shared pool that runs this tenant's commit jobs, and the ID the
	// tenant is registered under there; set by attachTenant before any
	// job can run. Every accepted or released job kicks the pool once,
	// every canceled one takes its kick back.
	pool      *queue.Pool
	projectID string
	// labelQuota is the tenant's label budget (see Options.LabelQuota).
	labelQuota int

	// Remote label sourcing (see Options.OracleFactory). oracle is the
	// current generation's label source when a factory is installed; the
	// release timer resumes parked jobs once the provider's suggested
	// retry delay elapses.
	oracleFactory func(gen int, truth []int) labeling.Oracle
	oracleMu      sync.Mutex // guards oracle: rotation swaps it while metrics read it
	oracle        labeling.Oracle
	manualRelease bool
	releaseMu     sync.Mutex
	releaseTimer  *time.Timer
}

// Options tunes one tenant: its commit queue, webhook delivery,
// write-ahead log, label budget and label source. The zero value is the
// production default. The queue has no executor of its own: the shared
// pool the tenant is attached to runs every commit job, so tests that
// step execution use a manual pool (queue.PoolOptions.Manual).
type Options struct {
	// QueueCapacity bounds the pending commit backlog (0 means
	// queue.DefaultCapacity); a full backlog answers 503.
	QueueCapacity int
	// QueueRetain bounds how many finished jobs stay pollable.
	QueueRetain int
	// Clock stamps job transitions (tests inject a counter).
	Clock queue.Clock
	// Webhooks delivers job-finished callbacks; nil means real HTTP
	// delivery (notify.NewHTTPPoster). Tests inject a notify.Outbox.
	Webhooks notify.Notifier
	// RetryPolicy tunes webhook redelivery (backoff, attempts, circuit
	// breakers); the zero value means the notify defaults.
	RetryPolicy notify.RetryPolicy
	// RetryClock / RetryJitter make retry scheduling deterministic in
	// tests; nil means wall clock and math/rand.
	RetryClock  func() time.Time
	RetryJitter func() float64
	// ManualRetry disables the webhook retry worker; deliveries happen
	// only via RunDueWebhooks — the deterministic test harness.
	ManualRetry bool
	// WALNoSync skips fsync on the write-ahead log (durable servers
	// only); crash-consistency tests and benchmarks set it.
	WALNoSync bool
	// WALFS is the filesystem the write-ahead log goes through; nil means
	// the real one. Disk-fault tests inject a faultfs.FS here to script
	// byte-level failures (ENOSPC, short writes, fsync errors) under the
	// full server stack (durable servers only).
	WALFS wal.FS
	// CompactAt triggers automatic WAL compaction when the log exceeds
	// this many bytes (durable servers only). 0 means DefaultCompactAt;
	// negative disables automatic compaction.
	CompactAt int64
	// LabelQuota caps the tenant's cumulative label spend: once the
	// engine's label cost reaches it, further commits are rejected with a
	// quota error (HTTP 429). 0 means unlimited. The check runs inside
	// the shared evaluation path, so in durable mode quota rejections
	// journal and replay deterministically — which also means the quota
	// must not shrink across restarts of a durable server, or recovery
	// will refuse the log (a commit the log accepted would now be
	// rejected by replay).
	LabelQuota int
	// EarlyDecision tunes (or disables) the engine's sequential
	// early-exit evaluation. Like LabelQuota it shapes what the
	// evaluation path does, so it must stay stable across restarts of a
	// durable server — replaying a log written under different
	// early-decision settings charges different labels and recovery
	// refuses the divergence.
	EarlyDecision engine.EarlyDecision
	// OracleFactory, when set, sources labels externally: it is called
	// with a testset generation and that generation's ground-truth labels
	// and returns the label oracle commits reveal through (typically a
	// labeling.Resilient around an HTTP transport; the truth slice lets
	// tests wire fault harnesses). Nil answers labels in-process from the
	// testset itself. The factory's oracle is installed after recovery
	// replay — replay always uses the in-process truth oracle, because
	// labels already paid for must never hit the remote provider again —
	// and again on every rotation, with the new generation's number.
	// A commit that fails with labeling.ErrUnavailable parks its job
	// (state "awaiting_labels") instead of failing it; parked jobs resume
	// automatically when the provider's suggested retry delay elapses,
	// and survive restarts as re-enqueued work.
	OracleFactory func(gen int, truth []int) labeling.Oracle
	// ManualRelease disables the automatic parked-job release timer;
	// parked jobs resume only via ReleaseParked — the deterministic test
	// harness, the parked-state counterpart of a manual pool and
	// ManualRetry.
	ManualRelease bool
}

// Parked-job release pacing: a provider hint (Retry-After, breaker
// cooldown) sets the release delay, floored so a zero hint cannot
// hot-loop park/release cycles; DefaultParkRelease applies when the
// outage carried no hint at all.
const (
	DefaultParkRelease = 15 * time.Second
	MinParkRelease     = time.Second
)

// DefaultCompactAt is the automatic WAL compaction threshold.
const DefaultCompactAt = 4 << 20

// lookHistBuckets sizes the early-exit look histogram. A geometric look
// schedule decides in O(log n) looks, so 16 buckets cover testsets far
// beyond anything the planner emits; deeper exits land in the last one.
const lookHistBuckets = 16

// recordSavings folds one successful commit's label economy into the
// serving counters.
func (s *Server) recordSavings(resp CommitResponse) {
	if resp.LabelsSaved > 0 {
		s.labelsSaved.Add(uint64(resp.LabelsSaved))
	}
	if resp.EarlyExit {
		s.earlyExits.Add(1)
		b := resp.Looks
		if b >= lookHistBuckets {
			b = lookHistBuckets - 1
		}
		s.lookHist[b].Add(1)
	}
}

// lookHistSnapshot reads the early-exit look histogram, trimming
// trailing zero buckets (nil when no early exit happened yet).
func (s *Server) lookHistSnapshot() []uint64 {
	out := make([]uint64, lookHistBuckets)
	for i := range s.lookHist {
		out[i] = s.lookHist[i].Load()
	}
	n := len(out)
	for n > 0 && out[n-1] == 0 {
		n--
	}
	if n == 0 {
		return nil
	}
	return out[:n]
}

// durableState carries the recovered write-ahead state from openDurable
// into newTenant; nil means an in-memory server.
type durableState struct {
	log       *wal.Log
	eng       *engine.Engine
	dir       string // the data directory (for fsck/quarantine accounting)
	fp        string // genesis config fingerprint, re-stamped into snapshots
	table     map[string]*jobEntry
	order     []string
	nextSeq   int
	restored  []queue.Restored[commitJob, CommitResponse]
	tornAudit int
}

// newTenant builds one project's server from its Genesis: the script, the
// first testset and the baseline model. With dataDir == "" the state is
// in-memory and dies with the process. Otherwise every externally
// acknowledged mutation (job accepted, commit evaluated, job canceled,
// testset rotated, webhook resolved) is in the write-ahead log under
// dataDir before the acknowledgment, and a restart replays snapshot + log
// through the same engine code to a byte-identical state: pending jobs
// re-enqueue and run exactly once, unresolved webhooks redeliver.
// No job runs until attachTenant registers the tenant with a pool.
// Callers must Close the server to drain its queue and release the log.
func newTenant(g Genesis, dataDir string, opts Options) (*Server, error) {
	cfg, err := g.config()
	if err != nil {
		return nil, err
	}
	if len(g.ModelPredictions) != len(g.Labels) {
		return nil, fmt.Errorf("server: genesis has %d model predictions for %d labels", len(g.ModelPredictions), len(g.Labels))
	}
	var d *durableState
	var eng *engine.Engine
	if dataDir != "" {
		if d, err = openDurable(cfg, g, dataDir, opts); err != nil {
			return nil, err
		}
		eng = d.eng
	} else if eng, err = g.engine(cfg, notify.NewOutbox(), opts.EarlyDecision); err != nil {
		return nil, fmt.Errorf("server: genesis: %w", err)
	}
	s := &Server{eng: eng, cfg: cfg}
	s.testsetLen.Store(int64(eng.Testsets().Current().Len()))
	s.classes = eng.Testsets().Current().Data.Classes
	s.labelQuota = opts.LabelQuota
	s.webhooks = opts.Webhooks
	if s.webhooks == nil {
		s.webhooks = notify.NewHTTPPoster(nil)
	}
	s.deliver = notify.NewReliable(s.webhooks, notify.ReliableOptions{
		Policy:    opts.RetryPolicy,
		Clock:     opts.RetryClock,
		Jitter:    opts.RetryJitter,
		Manual:    opts.ManualRetry,
		OnOutcome: s.onWebhookOutcome,
	})
	fail := func(err error) (*Server, error) {
		s.deliver.Close()
		if d != nil {
			_ = d.log.Close()
		}
		return nil, err
	}
	// The pool keeps one job of this queue in flight at a time: commit
	// evaluation serializes on the engine lock anyway, and a single
	// drainer is what makes completion order equal FIFO submission order
	// — the property the sync/async equivalence guarantee rests on. The
	// submit and cancel hooks run under the queue lock, so the pool's
	// kick and un-kick are atomic with acceptance and cancellation (see
	// onSubmitHook and onCancelHook).
	qopts := queue.Options[commitJob, CommitResponse]{
		Capacity: opts.QueueCapacity,
		Retain:   opts.QueueRetain,
		Clock:    opts.Clock,
		Exec:     s.executeCommitJob,
		OnFinish: s.deliverWebhook,
		OnSubmit: s.onSubmitHook,
		OnCancel: s.onCancelHook,
	}
	s.oracleFactory = opts.OracleFactory
	s.manualRelease = opts.ManualRelease
	if s.oracleFactory != nil {
		// Provider outages park the commit job instead of failing it. The
		// classification is the labeling package's contract: only
		// labeling.ErrUnavailable is retryable-later; everything else
		// (label mismatch, quota, protocol violations) stays a failure.
		qopts.Park = func(err error) bool { return errors.Is(err, labeling.ErrUnavailable) }
		qopts.OnPark = s.onParkHook
		qopts.OnRelease = s.onReleaseHook
		if err := s.installOracle(); err != nil {
			return fail(fmt.Errorf("server: %w", err))
		}
	}
	if d != nil {
		s.wlog = d.log
		s.genesisFP = d.fp
		s.dataDir = d.dir
		s.table = d.table
		s.tableOrder = d.order
		s.tableNextSeq = d.nextSeq
		s.retain = opts.QueueRetain
		if s.retain <= 0 {
			s.retain = queue.DefaultRetain
		}
		s.compactAt = opts.CompactAt
		if s.compactAt == 0 {
			s.compactAt = DefaultCompactAt
		}
		qopts.Restore = d.restored
		qopts.StartSeq = d.nextSeq
	}
	jobs, err := queue.New(qopts)
	if err != nil {
		return fail(fmt.Errorf("server: %w", err))
	}
	s.jobs = jobs
	if d != nil {
		s.resume()
	}
	return s, nil
}

// attachTenant puts a built tenant on the pool that runs its commit
// jobs: it registers the tenant's queue under id at the given weight,
// with one job in flight, then kicks the pool once per job recovery
// restored as queued (those predate the pool's pending counts). Until
// this returns no job of the tenant can run, which is what lets newTenant
// finish recovery wiring first. On error the tenant is not attached.
func attachTenant(pool *queue.Pool, id string, s *Server, weight int) error {
	s.pool, s.projectID = pool, id
	if err := pool.Register(id, s.jobs, weight, 1); err != nil {
		return err
	}
	for i := s.jobs.Pending(); i > 0; i-- {
		pool.Kick(id)
	}
	return nil
}

// Close drains the commit queue gracefully: accepted jobs finish, new
// submissions are rejected, and Close returns once the backlog and the
// webhook retry queue have drained (never-attempted deliveries get one
// final attempt; deliveries waiting out a backoff are abandoned — in
// durable mode their missing outcome record is what makes the next start
// redeliver them). A durable server then compacts the log
// (best effort — a crash here just means a longer replay) and closes it.
func (s *Server) Close() {
	s.releaseMu.Lock()
	if s.releaseTimer != nil {
		s.releaseTimer.Stop()
		s.releaseTimer = nil
	}
	s.releaseMu.Unlock()
	s.jobs.Close()
	s.deliver.Close()
	if s.wlog != nil {
		if !s.walFailed.Load() {
			_ = s.Compact()
		}
		_ = s.wlog.Close()
	}
}

// installOracle builds the current generation's label source through the
// configured factory and hands it to the engine. Called once at
// construction — after durable recovery has replayed against the truth
// oracle — and again after every rotation.
func (s *Server) installOracle() error {
	if s.oracleFactory == nil {
		return nil
	}
	ts := s.eng.Testsets().Current()
	o := s.oracleFactory(ts.Generation, append([]int(nil), ts.Data.Y...))
	if o == nil {
		return fmt.Errorf("oracle factory returned nil for generation %d", ts.Generation)
	}
	if err := s.eng.SetOracle(o); err != nil {
		return err
	}
	s.oracleMu.Lock()
	s.oracle = o
	s.oracleMu.Unlock()
	return nil
}

// onParkHook runs when a commit job parks on a provider outage: it
// journals the park (audit trail only — the job's recoverability comes
// from its submit record having no commit record yet) and arms the
// release timer from the provider's retry hint.
func (s *Server) onParkHook(j *queue.Job[commitJob, CommitResponse], err error) {
	if s.wlog != nil && !s.walFailed.Load() {
		s.tableMu.Lock()
		_ = s.walAppendSyncLocked(recTypePark, recPark{Job: j.ID, Err: err.Error()})
		s.tableMu.Unlock()
	}
	s.scheduleRelease(err)
}

// onReleaseHook runs per job as parked work rejoins the pending queue;
// the pool needs a kick per job or the fair scheduler would see no
// pending credit for the tenant.
func (s *Server) onReleaseHook(*queue.Job[commitJob, CommitResponse]) {
	s.pool.Kick(s.projectID)
}

// scheduleRelease arms (once) the automatic parked-job release. The
// delay honors the provider's hint when the outage carried one — a
// Retry-After header or the breaker's cooldown — and one pending release
// is enough: if the provider is still down, the released jobs park again
// and re-arm the timer with a fresh hint.
func (s *Server) scheduleRelease(err error) {
	if s.manualRelease {
		return
	}
	delay := DefaultParkRelease
	if d, ok := resilience.RetryAfterFromError(err); ok {
		delay = d
	}
	if delay < MinParkRelease {
		delay = MinParkRelease
	}
	s.releaseMu.Lock()
	defer s.releaseMu.Unlock()
	if s.releaseTimer != nil {
		return
	}
	s.releaseTimer = time.AfterFunc(delay, func() {
		s.releaseMu.Lock()
		s.releaseTimer = nil
		s.releaseMu.Unlock()
		s.jobs.ReleaseParked()
	})
}

// ReleaseParked re-enqueues every parked commit job immediately and
// reports how many moved. The manual counterpart of the release timer
// (and the deterministic lever tests drive); safe to call at any time.
func (s *Server) ReleaseParked() int { return s.jobs.ReleaseParked() }

// ParkedCount reports how many commit jobs are waiting out a provider
// outage in the awaiting_labels state.
func (s *Server) ParkedCount() int { return s.jobs.ParkedCount() }

// CloseIntake rejects new commit submissions (503) without draining the
// backlog — phase one of a multi-tenant shutdown: the control plane
// first closes intake on every project, then lets the shared pool drain
// the already-accepted jobs, then Closes each server. Idempotent.
func (s *Server) CloseIntake() { s.jobs.CloseIntake() }

// onSubmitHook runs under the queue lock, atomically with a job's
// acceptance: the WAL submit record first (record-then-accept — an
// accepted job is a recoverable job), then the pool kick. Fired out of
// band, a job accepted just before a shutdown could be journaled yet
// never kicked: the pool would see zero pending, stop its workers, and
// strand the job's waiter. The enqueue-side mirror of onCancelHook.
func (s *Server) onSubmitHook(j *queue.Job[commitJob, CommitResponse]) error {
	if s.wlog != nil {
		if err := s.walOnSubmit(j); err != nil {
			return err
		}
	}
	s.pool.Kick(s.projectID)
	return nil
}

// onCancelHook runs under the queue lock for a cancelable job: the WAL
// record first (record-then-cancel), then the pool un-kick. Taken out
// of band, a pool pick racing the cancel could strand a later job with
// no pending credit until the next kick.
func (s *Server) onCancelHook(j *queue.Job[commitJob, CommitResponse]) error {
	if s.wlog != nil {
		if err := s.walOnCancel(j); err != nil {
			return err
		}
	}
	s.pool.Unkick(s.projectID)
	return nil
}

// RunDueWebhooks attempts every webhook delivery whose schedule has come
// due, returning how many attempts were made. Only meaningful with
// Options.ManualRetry — the deterministic test harness's hook, the
// webhook counterpart of a manual pool's RunOne.
func (s *Server) RunDueWebhooks() int {
	n := 0
	for s.deliver.RunDue() {
		n++
	}
	return n
}

// --- wire types ---------------------------------------------------------

// PlanResponse mirrors core.Plan for the API.
type PlanResponse struct {
	Kind            string  `json:"kind"`
	Condition       string  `json:"condition"`
	Reliability     float64 `json:"reliability"`
	Steps           int     `json:"steps"`
	BaselineLabels  int     `json:"baseline_labels"`
	LabeledN        int     `json:"labeled_examples"`
	UnlabeledN      int     `json:"unlabeled_examples"`
	PerCommitLabels int     `json:"per_commit_labels"`
}

// StatusResponse reports the engine's current state.
type StatusResponse struct {
	ActiveModel       string `json:"active_model"`
	TestsetGeneration int    `json:"testset_generation"`
	TestsetSize       int    `json:"testset_size"`
	BudgetUsed        int    `json:"budget_used"`
	BudgetTotal       int    `json:"budget_total"`
	CanEvaluate       bool   `json:"can_evaluate"`
	LabelsSpent       int    `json:"labels_spent"`
	Commits           int    `json:"commits"`
}

// CommitRequest is a developer's model submission: the prediction vector
// their test script produced on the current testset.
type CommitRequest struct {
	Model       string `json:"model"`
	Author      string `json:"author"`
	Message     string `json:"message"`
	Predictions []int  `json:"predictions"`
}

// CommitResponse is what the developer gets back. True outcomes are only
// included when the adaptivity mode permits releasing them.
type CommitResponse struct {
	CommitID       string             `json:"commit_id"`
	Step           int                `json:"step"`
	Signal         bool               `json:"signal"`
	Truth          string             `json:"truth,omitempty"`
	Pass           *bool              `json:"pass,omitempty"`
	Estimates      map[string]float64 `json:"estimates,omitempty"`
	FreshLabels    int                `json:"fresh_labels"`
	NeedNewTestset bool               `json:"need_new_testset"`
	// Label-economy fields from the sequential evaluation; all omitted
	// when early decision is disabled, keeping disabled-mode responses
	// (and durable logs) byte-identical to the pre-sequential format.
	Looks       int  `json:"looks,omitempty"`
	EarlyExit   bool `json:"early_exit,omitempty"`
	LabelsSaved int  `json:"labels_saved,omitempty"`
}

// RotateRequest installs a fresh testset: its labels, plus the active
// model's predictions on it (predictions are testset-specific).
type RotateRequest struct {
	Labels            []int `json:"labels"`
	ActivePredictions []int `json:"active_predictions"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Degraded marks a 503 caused by the tenant's storage health rather
	// than transient load: the write-ahead log is poisoned or the data
	// directory needs salvage. Reads keep serving; only mutations carry
	// this body. Reason is one of the degradedReason* constants.
	Degraded bool   `json:"degraded,omitempty"`
	Reason   string `json:"reason,omitempty"`
}

// Degraded-mode reasons, the machine-readable half of a degraded 503.
const (
	degradedReasonPoisoned = "wal_poisoned"
	degradedReasonSalvage  = "salvage_required"
)

// writeStorageError shapes an error into the wire body, upgrading a
// WAL-poisoning failure to the structured degraded form so clients and
// load balancers can tell "this tenant's storage is sick, reads still
// work" apart from an ordinary 503.
func writeStorageError(w http.ResponseWriter, status int, err error) {
	resp := errorResponse{Error: err.Error()}
	if errors.Is(err, errWALPoisoned) {
		resp.Degraded = true
		resp.Reason = degradedReasonPoisoned
	}
	writeJSON(w, status, resp)
}

// --- handlers -----------------------------------------------------------

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request, _ scope) {
	cfg, err := s.planQueryConfig(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Served through the plan cache: repeated identical queries — the
	// common case, since every commit hook and dashboard asks for the
	// active plan — cost one LRU lookup, not a bound search.
	resp, err := s.servePlan(cfg)
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// servePlan plans cfg through the cache and shapes the wire response.
// Requests for the server's own config use the engine's planner options,
// so the answer is exactly the plan the engine enforces (and hits the
// cache entry engine construction seeded); ad-hoc what-if queries use the
// paper defaults.
func (s *Server) servePlan(cfg *script.Config) (*PlanResponse, error) {
	opts := core.DefaultOptions()
	if cfg == s.cfg {
		opts = s.eng.PlannerOptions()
	}
	p, err := planner.Default.PlanForConfig(cfg, opts)
	if err != nil {
		return nil, err
	}
	resp := NewPlanResponse(cfg, p)
	return &resp, nil
}

// NewPlanResponse shapes a plan into the wire format. Shared with the
// samplesize CLI's local batch mode so the two outputs cannot drift.
func NewPlanResponse(cfg *script.Config, p *core.Plan) PlanResponse {
	return PlanResponse{
		Kind:            p.Kind.String(),
		Condition:       cfg.ConditionSrc,
		Reliability:     cfg.Reliability,
		Steps:           cfg.Steps,
		BaselineLabels:  p.BaselinePlan.N,
		LabeledN:        p.LabeledN,
		UnlabeledN:      p.UnlabeledN,
		PerCommitLabels: p.PerCommitLabels,
	}
}

// planQueryConfig resolves the config a plan query asks about: the server's
// own script, with any of condition/reliability/steps/adaptivity overridden
// by query parameters. Unknown parameters are an error — a typo'd override
// must not silently return the default plan.
func (s *Server) planQueryConfig(r *http.Request) (*script.Config, error) {
	q := r.URL.Query()
	for key := range q {
		switch key {
		case "condition", "reliability", "steps", "adaptivity":
		default:
			return nil, fmt.Errorf("unknown query parameter %q (condition | reliability | steps | adaptivity)", key)
		}
	}
	var reliability *float64
	if v := q.Get("reliability"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("bad reliability %q: %v", v, err)
		}
		reliability = &f
	}
	var steps *int
	if v := q.Get("steps"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("bad steps %q: %v", v, err)
		}
		steps = &n
	}
	return s.resolvePlanConfig(q.Get("condition"), reliability, steps, q.Get("adaptivity"))
}

// resolvePlanConfig applies overrides (empty/nil means "the server's own
// value") to the configured script. A parameter set equal to the server
// config resolves to the config itself, so the caller plans it with the
// engine's own options rather than treating it as an ad-hoc query.
func (s *Server) resolvePlanConfig(condition string, reliability *float64, steps *int, adaptivity string) (*script.Config, error) {
	if condition == "" {
		condition = s.cfg.ConditionSrc
	}
	rel := s.cfg.Reliability
	if reliability != nil {
		rel = *reliability
	}
	st := s.cfg.Steps
	if steps != nil {
		st = *steps
	}
	adapt := s.cfg.Adaptivity
	switch adaptivity {
	case "":
	case "none":
		adapt = script.Adaptivity{Kind: script.AdaptivityNone, Email: "plan-query@localhost"}
	case "full":
		adapt = script.Adaptivity{Kind: script.AdaptivityFull}
	case "firstChange":
		adapt = script.Adaptivity{Kind: script.AdaptivityFirstChange}
	default:
		return nil, fmt.Errorf("bad adaptivity %q (none | full | firstChange)", adaptivity)
	}
	if condition == s.cfg.ConditionSrc && rel == s.cfg.Reliability &&
		st == s.cfg.Steps && adapt.Kind == s.cfg.Adaptivity.Kind {
		return s.cfg, nil
	}
	return script.New(condition, rel, s.cfg.Mode, adapt, st)
}

// MaxBatchQueries bounds one batch plan request; a dashboard sweeping a
// larger grid should page its queries.
const MaxBatchQueries = 1024

// PlanQuery is one entry of a batch plan request. Absent fields default to
// the server's configured script.
type PlanQuery struct {
	Condition   string   `json:"condition,omitempty"`
	Reliability *float64 `json:"reliability,omitempty"`
	Steps       *int     `json:"steps,omitempty"`
	Adaptivity  string   `json:"adaptivity,omitempty"`
}

// BatchPlanRequest is the wire shape of POST /api/v1/plan/batch.
type BatchPlanRequest struct {
	Queries []PlanQuery `json:"queries"`
}

// BatchPlanResult carries one query's plan or its error; exactly one of
// the two fields is set.
type BatchPlanResult struct {
	Plan  *PlanResponse `json:"plan,omitempty"`
	Error string        `json:"error,omitempty"`
}

// BatchPlanResponse mirrors the request order: Results[i] answers
// Queries[i].
type BatchPlanResponse struct {
	Results []BatchPlanResult `json:"results"`
}

// handlePlanBatch answers many plan queries in one request, fanning them
// across the worker pool. Malformed requests fail whole; a bad individual
// query fails only its slot, so one typo doesn't void a dashboard sweep.
func (s *Server) handlePlanBatch(w http.ResponseWriter, r *http.Request, _ scope) {
	var req BatchPlanRequest
	// Cap the body before decoding so the query limit bounds memory, not
	// just slice length: MaxBatchQueries condition formulas fit well
	// within this.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 4<<20))
	// A typo'd field ("relibility") must not silently plan with the
	// default — the same contract the single plan endpoint enforces on
	// its query parameters.
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	if len(req.Queries) == 0 {
		writeError(w, http.StatusBadRequest, "at least one query required")
		return
	}
	if len(req.Queries) > MaxBatchQueries {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("%d queries exceeds the %d per-request limit", len(req.Queries), MaxBatchQueries))
		return
	}
	results := make([]BatchPlanResult, len(req.Queries))
	parallel.For(len(req.Queries), func(i int) {
		q := req.Queries[i]
		cfg, err := s.resolvePlanConfig(q.Condition, q.Reliability, q.Steps, q.Adaptivity)
		if err != nil {
			results[i].Error = err.Error()
			return
		}
		resp, err := s.servePlan(cfg)
		if err != nil {
			results[i].Error = err.Error()
			return
		}
		results[i].Plan = resp
	})
	writeJSON(w, http.StatusOK, BatchPlanResponse{Results: results})
}

// SharedCacheStats are the process-wide caches every tenant shares, at
// the head of both metrics bodies.
type SharedCacheStats struct {
	PlanCache planner.Stats `json:"plan_cache"`
	// ExactMemo is the exact-bound worst-case memo backing tight-bound
	// plans; Evals counts uncached grid searches process-wide.
	ExactMemoHits   uint64 `json:"exact_memo_hits"`
	ExactMemoMisses uint64 `json:"exact_memo_misses"`
	ExactMemoLen    int    `json:"exact_memo_entries"`
	ExactEvals      uint64 `json:"exact_evals"`
	// Sweep counters break one exact evaluation down further: lattice
	// events enumerated by the event-driven worst-case sweep, and how
	// many were resolved analytically (excluded by the unimodal-envelope
	// bisection without a tail evaluation) versus by exact fallback
	// refinement (bisection probes, ascents, windows, small families).
	SweepEvents           uint64 `json:"sweep_events"`
	SweepSegmentsAnalytic uint64 `json:"sweep_segments_analytic"`
	SweepSegmentsRefined  uint64 `json:"sweep_segments_refined"`
}

// sharedCacheStats reads the shared caches' counters.
func sharedCacheStats() SharedCacheStats {
	hits, misses, entries := bounds.ExactCacheStats()
	events, analytic, refined := bounds.ExactSweepStats()
	return SharedCacheStats{
		PlanCache:             planner.Default.Stats(),
		ExactMemoHits:         hits,
		ExactMemoMisses:       misses,
		ExactMemoLen:          entries,
		ExactEvals:            bounds.ExactProbeEvals(),
		SweepEvents:           events,
		SweepSegmentsAnalytic: analytic,
		SweepSegmentsRefined:  refined,
	}
}

// MetricsResponse is one project's GET /api/v1/projects/{id}/metrics:
// the shared caches, then the tenant's queue, webhook and storage
// counters.
type MetricsResponse struct {
	SharedCacheStats
	// CommitQueue is the async pipeline's traffic counters.
	CommitQueue queue.Stats `json:"commit_queue"`
	// WebhooksSent/Failed count job-finished callback deliveries.
	WebhooksSent   uint64 `json:"webhooks_sent"`
	WebhooksFailed uint64 `json:"webhooks_failed"`
	// CommitsEvaluated counts commits the engine evaluated successfully;
	// CommitEvalNsTotal is the cumulative wall time inside engine.Commit
	// in nanoseconds, so total/count is the served per-commit evaluation
	// latency the packed measurement core optimizes. Both reset via
	// POST /api/v1/admin/reset-caches.
	CommitsEvaluated  uint64 `json:"commits_evaluated"`
	CommitEvalNsTotal uint64 `json:"commit_eval_ns_total"`
	// LabelsSavedTotal / EarlyExitsTotal / EarlyExitLooks are the
	// sequential evaluation's label economy: oracle labels the static
	// plan would have paid beyond what commits actually revealed, how
	// many commits exited before the full reveal, and a histogram of
	// early exits by look count (index = looks taken, trailing zero
	// buckets trimmed). Reset via POST /api/v1/admin/reset-caches.
	LabelsSavedTotal uint64   `json:"labels_saved_total"`
	EarlyExitsTotal  uint64   `json:"early_exits_total"`
	EarlyExitLooks   []uint64 `json:"early_exit_looks,omitempty"`
	// WebhookRetry is the webhook retry queue: attempts, backoff
	// reschedules, per-kind delivery latency, and each subscriber's
	// circuit breaker state. Not cleared by the admin cache reset — the
	// retry queue is delivery state, not a cache.
	WebhookRetry notify.RetryStats `json:"webhook_retry"`
	// WAL reports the write-ahead log's traffic (durable servers only).
	// Not cleared by the admin cache reset.
	WAL *wal.Stats `json:"wal,omitempty"`
	// LabelOracle is the remote label provider's client health — attempts,
	// retries, partial batches, short circuits, the breaker state, and the
	// fetch-latency histogram. Present only when labels are sourced
	// remotely (Options.OracleFactory). Like WebhookRetry, it is NOT
	// cleared by the admin cache reset: delivery state, not a cache.
	LabelOracle *labeling.OracleStats `json:"label_oracle,omitempty"`
	// Storage is the durable server's storage health: poisoning state,
	// salvage history, quarantined bytes, backup counters. NOT cleared by
	// the admin cache reset — operational history, not a cache.
	Storage *StorageHealth `json:"storage,omitempty"`
}

// metricsSnapshot gathers the tenant's point-in-time counters.
func (s *Server) metricsSnapshot() MetricsResponse {
	m := MetricsResponse{
		SharedCacheStats:  sharedCacheStats(),
		CommitQueue:       s.jobs.Stats(),
		WebhooksSent:      s.webhooksSent.Load(),
		WebhooksFailed:    s.webhooksFailed.Load(),
		CommitsEvaluated:  s.commitsEvaluated.Load(),
		CommitEvalNsTotal: s.commitEvalNs.Load(),
		LabelsSavedTotal:  s.labelsSaved.Load(),
		EarlyExitsTotal:   s.earlyExits.Load(),
		EarlyExitLooks:    s.lookHistSnapshot(),
	}
	m.WebhookRetry = s.deliver.Stats()
	if s.wlog != nil {
		st := s.wlog.Stats()
		m.WAL = &st
	}
	m.LabelOracle = s.oracleStats()
	m.Storage = s.storageHealth()
	return m
}

// oracleStats snapshots the remote label client's health, when the
// installed oracle exposes any (labeling.Resilient does; fault harnesses
// and the truth oracle don't).
func (s *Server) oracleStats() *labeling.OracleStats {
	s.oracleMu.Lock()
	o := s.oracle
	s.oracleMu.Unlock()
	if o == nil {
		return nil
	}
	st, ok := o.(interface{ Stats() labeling.OracleStats })
	if !ok {
		return nil
	}
	stats := st.Stats()
	return &stats
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, _ scope) {
	writeJSON(w, http.StatusOK, s.metricsSnapshot())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request, _ scope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tsm := s.eng.Testsets()
	writeJSON(w, http.StatusOK, StatusResponse{
		ActiveModel:       s.eng.ActiveModelName(),
		TestsetGeneration: tsm.Current().Generation,
		TestsetSize:       tsm.Current().Len(),
		BudgetUsed:        tsm.Budget() - tsm.Remaining(),
		BudgetTotal:       tsm.Budget(),
		CanEvaluate:       tsm.CanEvaluate(),
		LabelsSpent:       s.eng.LabelCost().Total(),
		Commits:           s.eng.Repository().Len(),
	})
}

func (s *Server) handleHistory(w http.ResponseWriter, r *http.Request, _ scope) {
	s.mu.Lock()
	defer s.mu.Unlock()
	history := s.eng.History()
	out := make([]CommitResponse, 0, len(history))
	for _, res := range history {
		out = append(out, resultToResponse(s.cfg, res))
	}
	writeJSON(w, http.StatusOK, out)
}

// handleCommit is the synchronous endpoint, reimplemented as
// enqueue-then-wait: the commit rides the same FIFO queue as the async
// path and the handler blocks until its job finishes, so both endpoints
// share one evaluation code path and serialize in one submission order.
func (s *Server) handleCommit(w http.ResponseWriter, r *http.Request, _ scope) {
	var req commitJob
	if err := s.readCommitRequest(w, r, &req, false); err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	if req.Model == "" {
		writeError(w, http.StatusBadRequest, "model name required")
		return
	}
	// Submit kicks the shared scheduler itself (under the queue lock, via
	// the OnSubmit hook), so an accepted job is always a scheduled job.
	job, err := s.jobs.Submit(req)
	if err != nil {
		writeStorageError(w, http.StatusServiceUnavailable, err)
		return
	}
	<-job.Done()
	res, err := job.Result()
	if err != nil {
		writeStorageError(w, commitErrorStatus(err), err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleRotate(w http.ResponseWriter, r *http.Request, _ scope) {
	var req RotateRequest
	if err := s.readRotateRequest(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	if len(req.Labels) == 0 || len(req.Labels) != len(req.ActivePredictions) {
		writeError(w, http.StatusBadRequest, "labels and active_predictions must be non-empty and equal length")
		return
	}
	next, err := datasetFromLabels("rotated", req.Labels, s.classes)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wlog != nil && s.walFailed.Load() {
		writeStorageError(w, http.StatusServiceUnavailable, errWALPoisoned)
		return
	}
	active := model.NewFixedPredictions(s.eng.ActiveModelName(), req.ActivePredictions)
	if err := s.eng.RotateTestset(next, labeling.NewTruthOracle(next.Y), active); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err.Error())
		return
	}
	s.testsetLen.Store(int64(len(next.Y)))
	gen := s.eng.Testsets().Current().Generation
	// A remote-sourced server swaps in the new generation's provider
	// client: the factory gets the fresh ground truth, and any verified-
	// label cache from the old generation dies with the old oracle.
	if err := s.installOracle(); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if s.wlog != nil {
		// Apply-then-append: the 200 goes out only once the rotation is
		// durable. A crash (or append failure, which poisons the server)
		// in the gap loses an unacknowledged rotation — the same contract
		// as a request that never arrived.
		s.tableMu.Lock()
		err := s.walAppendSyncLocked(recTypeRotate, recRotate{
			Labels:      req.Labels,
			ActivePreds: req.ActivePredictions,
			Generation:  gen,
		})
		s.tableMu.Unlock()
		if err != nil {
			writeStorageError(w, http.StatusServiceUnavailable, err)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"generation": gen,
	})
}

// resultToResponse applies the adaptivity mode's information flow: in the
// non-adaptive mode the developer-facing API must not reveal the truth.
// Standalone (not a method) so crash-recovery replay can re-shape replayed
// results through the identical code path and byte-compare them against
// the logged responses.
func resultToResponse(cfg *script.Config, res engine.Result) CommitResponse {
	out := CommitResponse{
		CommitID:       res.Commit.ID,
		Step:           res.Step,
		Signal:         res.Signal,
		FreshLabels:    res.FreshLabels,
		NeedNewTestset: res.NeedNewTestset,
		// Label-economy accounting travels with FreshLabels regardless of
		// adaptivity: it reveals cost, not the verdict.
		Looks:       res.Looks,
		EarlyExit:   res.EarlyExit,
		LabelsSaved: res.LabelsSaved,
	}
	if cfg.Adaptivity.Kind != script.AdaptivityNone {
		out.Truth = res.Truth.String()
		pass := res.Pass
		out.Pass = &pass
		out.Estimates = map[string]float64{}
		for v, x := range res.Estimates {
			// Keys are the condition-language variables n, o, d.
			out.Estimates[string(v)] = x
		}
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}
