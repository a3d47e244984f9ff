package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/engine"
	"github.com/easeml/ci/internal/interval"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/queue"
	"github.com/easeml/ci/internal/script"
	"github.com/easeml/ci/internal/wal"
)

// errWALPoisoned is the answer of every mutating endpoint after a
// write-ahead append has failed: the in-memory state may be ahead of the
// log, so accepting further mutations would build on state a restart
// cannot reproduce. Reads keep working; a restart replays the log back
// to the last durable state and clears the condition.
var errWALPoisoned = errors.New("server: write-ahead log failed; state is read-only until restart")

// WAL record types. A tenant's log begins with the genesis stamp, then
// holds the job lifecycle (submit, then commit or cancel; park is audit
// only), each commit's engine audit trail (looks, reveal, charge,
// promote), webhook outcomes, testset rotations, and rollback, which
// discards a torn commit's audit records. Each type's replay is its row
// of replayRecord; a record that changes the job table does so through
// one jobTable method, which its live append site calls too.
const (
	recTypeGenesis  = "genesis"
	recTypeSubmit   = "job.submit"
	recTypeCommit   = "job.commit"
	recTypeCancel   = "job.cancel"
	recTypeWebhook  = "webhook"
	recTypeRotate   = "rotate"
	recTypeReveal   = "reveal"
	recTypeCharge   = "charge"
	recTypePromote  = "promote"
	recTypeLooks    = "looks"
	recTypeRollback = "rollback"
	recTypePark     = "job.park"
)

// recGenesis is the first record of every fresh data directory: the
// fingerprint of the Genesis the log was created under, plus a
// human-readable summary for operators inspecting the log. Recovery
// refuses a log whose fingerprint does not match the supplied Genesis —
// restarting with different flags against an existing data dir would
// otherwise silently serve old state under a config the log never saw.
type recGenesis struct {
	Fingerprint string  `json:"fingerprint"`
	Condition   string  `json:"condition"`
	Reliability float64 `json:"reliability"`
	Adaptivity  string  `json:"adaptivity"`
	Steps       int     `json:"steps"`
	Examples    int     `json:"examples"`
	Classes     int     `json:"classes"`
	Model       string  `json:"model"`
}

// recSubmit records an accepted job. Its JSON is written by appendJSON
// (record.go) and read back by encoding/json.
type recSubmit struct {
	Job string    `json:"job"`
	Seq int       `json:"seq"`
	Req commitJob `json:"req"`
}

// recCommit is the exactly-once commit point of a job: Res holds the
// exact response bytes the client saw (Err the failure instead), and
// replay re-executes the commit and byte-compares.
type recCommit struct {
	Job string          `json:"job"`
	Res json.RawMessage `json:"res,omitempty"`
	Err string          `json:"err,omitempty"`
}

type recCancel struct {
	Job string `json:"job"`
}

type recWebhook struct {
	Job       string `json:"job"`
	URL       string `json:"url"`
	Delivered bool   `json:"delivered"`
	Attempts  int    `json:"attempts"`
	Err       string `json:"err,omitempty"`
}

type recRotate struct {
	Labels      []int `json:"labels"`
	ActivePreds []int `json:"active_preds"`
	Generation  int   `json:"generation"`
}

type recReveal struct {
	Count int `json:"count"`
}

type recCharge struct {
	Labels int `json:"labels"`
}

type recPromote struct {
	Model string `json:"model"`
}

// recLooks journals one commit's sequential-evaluation decision: replay
// re-derives it from the same look schedule and cross-checks, so a
// recovered server provably reproduced the live run's label charges.
// Only present in logs written with early decision enabled.
type recLooks struct {
	Looks int  `json:"looks"`
	Saved int  `json:"saved"`
	Early bool `json:"early,omitempty"`
}

type recRollback struct {
	Discarded int `json:"discarded"`
}

// recPark is the audit trail of a provider outage: the job entered the
// awaiting_labels state with this error.
type recPark struct {
	Job string `json:"job"`
	Err string `json:"err,omitempty"`
}

// Job table states (the WAL's materialized view of the queue).
const (
	jobQueued = "queued"
	jobDone   = "done"
	jobFailed = "failed"
)

// jobEntry mirrors one job's WAL records: what was submitted, how it
// ended, and whether its webhook outcome was recorded. Its JSON, a
// snapshot row, is written by appendJSON (record.go) and read back by
// encoding/json.
type jobEntry struct {
	ID          string          `json:"id"`
	Seq         int             `json:"seq"`
	Req         commitJob       `json:"req"`
	State       string          `json:"state"`
	Res         json.RawMessage `json:"res,omitempty"`
	Err         string          `json:"err,omitempty"`
	WebhookDone bool            `json:"webhook_done,omitempty"`
}

// jobTable is the log's materialized view of the commit queue, so
// compaction never re-reads the log: its rows, in submission order, are
// the snapshot's job rows, and nextSeq is the highest job sequence
// number issued. Its submit, commit, cancel and webhook methods are each
// record's one effect on the table, called by live traffic once the
// record is durable and by replay for each logged record. They are
// strict, and live traffic never trips them: job IDs are never reissued,
// and a job whose commit or cancel is being appended is queued, which
// prune never drops.
type jobTable struct {
	rows    []*jobEntry
	byID    map[string]*jobEntry
	nextSeq int
}

// newJobTable reads snapshot rows (nil for none) back into a table.
func newJobTable(rows []*jobEntry, nextSeq int) jobTable {
	t := jobTable{rows: rows, byID: make(map[string]*jobEntry, len(rows)), nextSeq: nextSeq}
	for _, e := range rows {
		t.byID[e.ID] = e
	}
	return t
}

// submit applies a job.submit record: the job joins the table, queued.
func (t *jobTable) submit(r recSubmit) error {
	if _, dup := t.byID[r.Job]; dup {
		return fmt.Errorf("duplicate submit for job %s", r.Job)
	}
	e := &jobEntry{ID: r.Job, Seq: r.Seq, Req: r.Req, State: jobQueued}
	t.byID[r.Job] = e
	t.rows = append(t.rows, e)
	t.nextSeq = max(t.nextSeq, r.Seq)
	return nil
}

// commit applies a job.commit record: the job ends failed with the
// logged error, or done with the logged response.
func (t *jobTable) commit(r recCommit) (*jobEntry, error) {
	e := t.byID[r.Job]
	if e == nil {
		return nil, fmt.Errorf("commit for unknown job %s", r.Job)
	}
	if r.Err != "" {
		e.State, e.Err = jobFailed, r.Err
	} else {
		e.State, e.Res = jobDone, r.Res
	}
	return e, nil
}

// cancel applies a job.cancel record: the job ends as a commit failed
// with queue.ErrCanceled.
func (t *jobTable) cancel(r recCancel) error {
	if t.byID[r.Job] == nil {
		return fmt.Errorf("cancel for unknown job %s", r.Job)
	}
	_, err := t.commit(recCommit{Job: r.Job, Err: queue.ErrCanceled.Error()})
	return err
}

// webhook applies a webhook record: the job's delivery has an outcome,
// so no restart redelivers it. A job already pruned is skipped.
func (t *jobTable) webhook(r recWebhook) {
	if e := t.byID[r.Job]; e != nil {
		e.WebhookDone = true
	}
}

// prune drops terminal, delivery-resolved jobs beyond the retain bound
// (newest kept), mirroring the queue's own eviction: a job the queue
// would no longer answer polls for need not be recovered.
func (t *jobTable) prune(retain int) {
	prunable := func(e *jobEntry) bool {
		return e.State != jobQueued && (e.Req.Webhook == "" || e.WebhookDone)
	}
	drop := -retain // prunable jobs beyond the bound
	for _, e := range t.rows {
		if prunable(e) {
			drop++
		}
	}
	kept := t.rows[:0]
	for _, e := range t.rows {
		if drop > 0 && prunable(e) {
			delete(t.byID, e.ID)
			drop--
			continue
		}
		kept = append(kept, e)
	}
	clear(t.rows[len(kept):])
	t.rows = kept
}

// restored hands the table to the queue as restore entries, in
// submission order.
func (t *jobTable) restored() ([]queue.Restored[commitJob, CommitResponse], error) {
	out := make([]queue.Restored[commitJob, CommitResponse], 0, len(t.rows))
	for _, e := range t.rows {
		r := queue.Restored[commitJob, CommitResponse]{ID: e.ID, Seq: e.Seq, Req: e.Req, State: queue.Queued}
		switch e.State {
		case jobDone:
			r.State = queue.Done
			if err := json.Unmarshal(e.Res, &r.Res); err != nil {
				return nil, fmt.Errorf("job %s: stored response: %w", e.ID, err)
			}
		case jobFailed:
			r.State, r.Err = queue.Failed, e.Err
		}
		out = append(out, r)
	}
	return out, nil
}

// walSnapshot is the compaction payload: the engine's full durable state
// plus the job table, covering every record up to the snapshot point.
// Genesis carries the config fingerprint forward once compaction has
// truncated the genesis record out of the log. Its JSON is written by
// AppendJSON (record.go) and read back by encoding/json.
type walSnapshot struct {
	Genesis    string       `json:"genesis"`
	Engine     engine.State `json:"engine"`
	Jobs       []*jobEntry  `json:"jobs,omitempty"`
	NextJobSeq int          `json:"next_job_seq"`
}

// Genesis is a project's initial world: the script and the first testset
// with the deployed baseline's predictions on it. An in-memory tenant
// starts from it; a fresh data directory is initialized from it and
// stamped with its fingerprint. On every later start the log is the
// truth for state, but the supplied Genesis must still fingerprint-match
// the stamp — a restart with different flags against an existing data
// dir is refused rather than silently serving old state under a new
// config.
type Genesis struct {
	// Condition, Reliability, Mode, Adaptivity, Steps define the script.
	Condition   string
	Reliability float64
	Mode        interval.Mode
	Adaptivity  script.Adaptivity
	Steps       int
	// Labels and Classes define the first testset (features are the
	// example indices, matching the rotation endpoint's convention).
	Labels  []int
	Classes int
	// ModelName and ModelPredictions are H0, the deployed baseline.
	ModelName        string
	ModelPredictions []int

	// ds is the first testset once ProjectSpec.genesis has validated it,
	// so the tenant does not build it again.
	ds *data.Dataset
}

func (g Genesis) config() (*script.Config, error) {
	return script.New(g.Condition, g.Reliability, g.Mode, g.Adaptivity, g.Steps)
}

// engine builds the engine g starts from: the first testset (the one
// genesis validation built, or a new one) with the baseline model active.
func (g Genesis) engine(cfg *script.Config, n notify.Notifier, ed engine.EarlyDecision) (*engine.Engine, error) {
	ds := g.ds
	if ds == nil {
		var err error
		if ds, err = datasetFromLabels("genesis", g.Labels, g.Classes); err != nil {
			return nil, err
		}
	}
	return engine.New(cfg, ds, labeling.NewTruthOracle(ds.Y), engine.Options{
		InitialModel:  model.NewFixedPredictions(g.ModelName, g.ModelPredictions),
		Notifier:      n,
		EarlyDecision: ed,
	})
}

// fingerprint hashes every Genesis field into the identity the data
// directory is bound to. A restart whose flags produce a different
// fingerprint is refused at recovery: the logged state was built under a
// different config and replaying it under the new one would be unsound.
func (g Genesis) fingerprint() string {
	b, _ := json.Marshal(struct {
		Condition   string
		Reliability float64
		Mode        interval.Mode
		Adaptivity  script.Adaptivity
		Steps       int
		Labels      []int
		Classes     int
		ModelName   string
		ModelPreds  []int
	}{g.Condition, g.Reliability, g.Mode, g.Adaptivity, g.Steps, g.Labels, g.Classes, g.ModelName, g.ModelPredictions})
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// genesisRecord shapes the fingerprint plus an operator-readable summary
// into the log's first record.
func (g Genesis) genesisRecord() recGenesis {
	return recGenesis{
		Fingerprint: g.fingerprint(),
		Condition:   g.Condition,
		Reliability: g.Reliability,
		Adaptivity:  g.Adaptivity.Kind.String(),
		Steps:       g.Steps,
		Examples:    len(g.Labels),
		Classes:     g.Classes,
		Model:       g.ModelName,
	}
}

// datasetFromLabels builds the index-featured dataset the HTTP surface
// trades in: example i has feature vector [i] and label labels[i]. X is
// the first len(labels) rows of the process-wide index table (see
// indexRows), shared read-only by every dataset built here: genesis,
// project create, rotation and replay. Y is a copy of labels.
func datasetFromLabels(name string, labels []int, classes int) (*data.Dataset, error) {
	for i, y := range labels {
		if y < 0 || y >= classes {
			return nil, fmt.Errorf("label %d out of range at %d", y, i)
		}
	}
	ds := &data.Dataset{Name: name, X: indexRows(len(labels)), Y: append([]int(nil), labels...), Classes: classes}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return ds, nil
}

// indexTable holds the index features: row i is [i]. It grows to the
// largest n asked for, by building a new table, and no row is written
// after it is built, so the rows can be shared by every dataset.
var indexTable struct {
	sync.Mutex
	rows [][]float64
}

// indexRows returns the first n rows of the index table. Its length and
// capacity are both n, and each row's capacity is 1, so an append to the
// table or to a row copies instead of writing into a neighbour.
func indexRows(n int) [][]float64 {
	indexTable.Lock()
	defer indexTable.Unlock()
	if n > len(indexTable.rows) {
		feat := make([]float64, n)
		rows := make([][]float64, n)
		for i := range feat {
			feat[i] = float64(i)
			rows[i] = feat[i : i+1 : i+1]
		}
		indexTable.rows = rows
	}
	return indexTable.rows[:n:n]
}

// openDurable opens a tenant's write-ahead log under dataDir, stamping a
// fresh directory with g's fingerprint, and replays it into an engine and
// job table.
func openDurable(cfg *script.Config, g Genesis, dataDir string, opts Options) (*durableState, error) {
	wlog, snap, records, err := wal.Open(dataDir, wal.Options{NoSync: opts.WALNoSync, FS: opts.WALFS})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if snap == nil && len(records) == 0 {
		// Fresh data directory: stamp the config fingerprint as record 1,
		// before any state-bearing record can exist. Every later open
		// verifies it (or its copy in the snapshot) against the supplied
		// Genesis before trusting the logged state.
		if _, err := wlog.Append(recTypeGenesis, g.genesisRecord()); err == nil {
			err = wlog.Sync()
		}
		if err != nil {
			_ = wlog.Close()
			return nil, fmt.Errorf("server: stamping genesis: %w", err)
		}
	}
	d, err := recoverDurable(cfg, g, opts, snap, records)
	if err != nil {
		_ = wlog.Close()
		return nil, fmt.Errorf("server: recovery: %w", err)
	}
	d.log = wlog
	d.dir = dataDir
	if len(d.audit) > 0 {
		// A commit was mid-application at the crash: its audit records
		// have no commit record, so replay discarded them. Mark them
		// rolled back so the next replay doesn't fold them into a later
		// commit's audit trail.
		if _, err := wlog.Append(recTypeRollback, recRollback{Discarded: len(d.audit)}); err == nil {
			err = wlog.Sync()
		}
		if err != nil {
			_ = wlog.Close()
			return nil, fmt.Errorf("server: recovery rollback: %w", err)
		}
	}
	return d, nil
}

// resume hands a recovered durable server to live traffic. Replay ran
// against a discard notifier (those notifications already happened before
// the crash); live traffic gets the real one, and from here every commit
// journals its side effects through the log. No restored job can run
// before the tenant is registered with a pool, and registration
// (attachTenant) happens only after newTenant returns, so these writes
// happen-before any restored job executes — a job committing against a
// nil journal would fsync its commit record with no audit trail and
// poison every future recovery.
func (s *Server) resume() {
	s.eng.SetNotifier(notify.NewOutbox())
	s.eng.SetJournal(journalFunc(s.walAppend))
	// Redeliver webhooks of jobs that finished but whose delivery never
	// reached a recorded outcome (crash mid-backoff, or before the first
	// attempt). The retry queue applies its usual backoff and breakers.
	// Collect under tableMu first: the first Send puts the retry worker in
	// play, and its recorded outcomes mutate the table concurrently.
	s.tableMu.Lock()
	var redeliver []notify.Notification
	for _, e := range s.table.rows {
		if e.State == jobQueued || e.Req.Webhook == "" || e.WebhookDone {
			continue
		}
		if n, err := webhookNotification(e.Req.Webhook, e.status()); err == nil {
			redeliver = append(redeliver, n)
		}
	}
	s.tableMu.Unlock()
	for _, n := range redeliver {
		_ = s.deliver.Send(n)
	}
}

// status shapes a table entry as the wire status its webhook carries —
// the restart-side twin of jobStatus.
func (e *jobEntry) status() JobStatusResponse {
	out := JobStatusResponse{JobID: e.ID, Seq: e.Seq, State: e.State, Error: e.Err}
	var r CommitResponse
	if e.State == jobDone && json.Unmarshal(e.Res, &r) == nil {
		out.Result = &r
	}
	return out
}

// durableState is the write-ahead state replay rebuilds (the engine, the
// job table, and the audit records its next commit record checks),
// carried from openDurable into newTenant; nil means an in-memory server.
type durableState struct {
	log        *wal.Log
	dir        string // the data directory (for fsck/quarantine accounting)
	fp         string // genesis config fingerprint, re-stamped into snapshots
	cfg        *script.Config
	labelQuota int
	eng        *engine.Engine
	table      jobTable
	audit      []wal.Record
}

// recoverDurable rebuilds the engine and job table from snapshot +
// records: it checks the genesis stamp, restores the engine from the
// snapshot (or builds it from genesis), and applies each record through
// replayRecord, failing loudly on one that does not apply rather than
// serving a history the log doesn't vouch for. Audit records left over
// belong to a commit a crash tore; openDurable marks them rolled back.
func recoverDurable(cfg *script.Config, g Genesis, opts Options, snap *wal.Snapshot, records []wal.Record) (*durableState, error) {
	d := &durableState{fp: g.fingerprint(), cfg: cfg, labelQuota: opts.LabelQuota, table: newJobTable(nil, 0)}
	stamp, stamped, err := stampedGenesis(snap, records)
	switch {
	case snap != nil && err != nil:
		return nil, fmt.Errorf("snapshot: %w", err)
	case snap != nil && stamp.Fingerprint != d.fp:
		return nil, fmt.Errorf("snapshot: config fingerprint %q does not match the supplied genesis %q — the data directory was created under a different configuration (condition, reliability, adaptivity, steps, or testset); point the server at a fresh data directory or restore the original flags", stamp.Fingerprint, d.fp)
	case snap == nil && len(records) > 0 && !stamped:
		return nil, fmt.Errorf("record %d: log does not begin with a genesis record; cannot verify the data directory's configuration", records[0].Seq)
	}
	if snap != nil {
		var ws walSnapshot
		if err := json.Unmarshal(snap.Data, &ws); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		if d.eng, err = engine.Restore(cfg, ws.Engine, engine.Options{Notifier: notify.Discard{}, EarlyDecision: opts.EarlyDecision}); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		d.table = newJobTable(ws.Jobs, ws.NextJobSeq)
	} else if d.eng, err = g.engine(cfg, notify.Discard{}, opts.EarlyDecision); err != nil {
		return nil, fmt.Errorf("genesis: %w", err)
	}
	for _, rec := range records {
		apply := replayRecord[rec.Type]
		if apply == nil {
			return nil, fmt.Errorf("record %d: unknown type %q", rec.Seq, rec.Type)
		}
		if err := apply(d, rec); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// replayRecord is each record type's replay: the one place its recovery
// rule is written.
var replayRecord = map[string]func(*durableState, wal.Record) error{
	recTypeGenesis: replayAs(func(d *durableState, g recGenesis) error { return g.check(d.fp) }),
	recTypeSubmit:  replayAs(func(d *durableState, r recSubmit) error { return d.table.submit(r) }),
	recTypeCommit:  replayAs((*durableState).replayCommit),
	recTypeCancel:  replayAs(func(d *durableState, r recCancel) error { return d.table.cancel(r) }),
	recTypeWebhook: replayAs(func(d *durableState, r recWebhook) error { d.table.webhook(r); return nil }),
	// A parked job has no commit record, so it is restored queued from
	// its submit record: restart is its release.
	recTypePark:    replayAs(func(*durableState, recPark) error { return nil }),
	recTypeRotate:  replayAs((*durableState).replayRotate),
	recTypeReveal:  (*durableState).holdAudit,
	recTypeCharge:  (*durableState).holdAudit,
	recTypePromote: (*durableState).holdAudit,
	recTypeLooks:   (*durableState).holdAudit,
	recTypeRollback: func(d *durableState, _ wal.Record) error {
		d.audit = nil
		return nil
	},
}

// replayAs decodes a record's payload as T, then applies it.
func replayAs[T any](apply func(*durableState, T) error) func(*durableState, wal.Record) error {
	return func(d *durableState, rec wal.Record) error {
		var v T
		if err := json.Unmarshal(rec.Data, &v); err != nil {
			return fmt.Errorf("record %d (%s): %w", rec.Seq, rec.Type, err)
		}
		if err := apply(d, v); err != nil {
			return fmt.Errorf("record %d: %w", rec.Seq, err)
		}
		return nil
	}
}

// holdAudit keeps an engine audit record for the commit record after it.
func (d *durableState) holdAudit(rec wal.Record) error {
	d.audit = append(d.audit, rec)
	return nil
}

// replayCommit applies a job.commit record, then re-executes the job
// through the live evaluation path against the held audit records and
// requires the logged outcome byte for byte. Evaluation-affecting
// options (LabelQuota, EarlyDecision) are not fingerprinted, so they
// must stay stable across restarts of a data directory; this catches
// divergence.
func (d *durableState) replayCommit(c recCommit) error {
	e, err := d.table.commit(c)
	if err != nil {
		return err
	}
	v := &auditVerifier{pending: d.audit}
	d.audit = nil
	d.eng.SetJournal(journalFunc(v.take))
	resp, err := evalCommit(d.cfg, d.eng, d.labelQuota, &e.Req)
	d.eng.SetJournal(nil)
	got, merr := commitRecord(c.Job, resp, err)
	switch {
	case v.err != nil:
		return fmt.Errorf("job %s: %w", c.Job, v.err)
	case len(v.pending) != 0:
		return fmt.Errorf("job %s: %d logged audit records not reproduced by replay", c.Job, len(v.pending))
	case merr != nil:
		return merr
	case got.Err != c.Err || !bytes.Equal(got.Res, c.Res):
		return fmt.Errorf("job %s: replay diverges from log: logged failure %q and response %s, replayed failure %q and response %s", c.Job, c.Err, c.Res, got.Err, got.Res)
	}
	return nil
}

// commitRecord is the job.commit record of one evaluation: the exact
// response bytes, or the error text. The live commit appends it, and
// replay compares it with the logged one.
func commitRecord(job string, resp CommitResponse, err error) (recCommit, error) {
	rec := recCommit{Job: job}
	if err != nil {
		rec.Err = err.Error()
		return rec, nil
	}
	rec.Res, err = json.Marshal(resp)
	return rec, err
}

// replayRotate applies a rotate record through the live rotation step
// and checks the generation it reached.
func (d *durableState) replayRotate(r recRotate) error {
	next, err := datasetFromLabels("rotated", r.Labels, d.eng.Testsets().Current().Data.Classes)
	if err != nil {
		return err
	}
	gen, err := rotateTestset(d.eng, next, r.ActivePreds)
	if err != nil {
		return err
	}
	if r.Generation != 0 && gen != r.Generation {
		return fmt.Errorf("replayed generation %d, log says %d", gen, r.Generation)
	}
	return nil
}

// rotateTestset installs next as eng's testset, with the active model's
// predictions on it, and returns the new generation: the one rotation
// step live requests and replay share.
func rotateTestset(eng *engine.Engine, next *data.Dataset, activePreds []int) (int, error) {
	active := model.NewFixedPredictions(eng.ActiveModelName(), activePreds)
	if err := eng.RotateTestset(next, labeling.NewTruthOracle(next.Y), active); err != nil {
		return 0, err
	}
	return eng.Testsets().Current().Generation, nil
}

// stampedGenesis reads a data directory's genesis stamp, for recovery
// and restore: the snapshot's genesis field (the fingerprint alone; the
// rest of the snapshot is not decoded), else the log's first record. ok
// is false when neither a snapshot nor a leading genesis record exists.
func stampedGenesis(snap *wal.Snapshot, records []wal.Record) (g recGenesis, ok bool, err error) {
	if snap != nil {
		var head struct {
			Genesis string `json:"genesis"`
		}
		err = json.Unmarshal(snap.Data, &head)
		return recGenesis{Fingerprint: head.Genesis}, true, err
	}
	if len(records) == 0 || records[0].Type != recTypeGenesis {
		return recGenesis{}, false, nil
	}
	err = json.Unmarshal(records[0].Data, &g)
	return g, true, err
}

// check refuses a logged genesis record whose fingerprint is not fp.
func (g recGenesis) check(fp string) error {
	if g.Fingerprint == fp {
		return nil
	}
	return fmt.Errorf("config fingerprint %q does not match the supplied genesis %q — the data directory was created under a different configuration (logged: condition %q, reliability %v, adaptivity %s, steps %d, %d examples, %d classes, model %q); point the server at a fresh data directory or restore the original flags",
		g.Fingerprint, fp, g.Condition, g.Reliability, g.Adaptivity, g.Steps, g.Examples, g.Classes, g.Model)
}

// journalFunc is the engine journal: it turns each of the engine's
// journal calls into its WAL record and hands the record to the func.
// Live traffic passes Server.walAppend; replay passes auditVerifier.take.
type journalFunc func(typ string, payload any) error

func (f journalFunc) JournalReveal(count int) error {
	return f(recTypeReveal, recReveal{Count: count})
}
func (f journalFunc) JournalCharge(labels int) error {
	return f(recTypeCharge, recCharge{Labels: labels})
}
func (f journalFunc) JournalPromote(m string) error {
	return f(recTypePromote, recPromote{Model: m})
}
func (f journalFunc) JournalLooks(looks, saved int, early bool) error {
	return f(recTypeLooks, recLooks{Looks: looks, Saved: saved, Early: early})
}

// auditVerifier checks replay's journal records: instead of appending,
// take consumes the logged audit records and fails on any divergence
// between what replay derives and what the live run logged.
type auditVerifier struct {
	pending []wal.Record
	err     error
}

func (v *auditVerifier) take(typ string, payload any) error {
	if v.err != nil {
		return v.err
	}
	if len(v.pending) == 0 {
		v.err = fmt.Errorf("replay produced a %s record the log does not have", typ)
		return v.err
	}
	rec := v.pending[0]
	v.pending = v.pending[1:]
	want, merr := json.Marshal(payload)
	if merr != nil {
		v.err = merr
		return v.err
	}
	if rec.Type != typ || !bytes.Equal(want, []byte(rec.Data)) {
		v.err = fmt.Errorf("replay produced %s %s, log has %s %s", typ, want, rec.Type, rec.Data)
		return v.err
	}
	return nil
}

// walAppend is the live journal's append: every engine side effect
// inside a commit is appended unsynced (the commit record's fsync makes
// the whole transaction durable at once). An append failure poisons the
// server and aborts the commit mid-application; the restart replays to
// the pre-commit state.
func (s *Server) walAppend(typ string, payload any) error {
	if _, err := s.wlog.Append(typ, payload); err != nil {
		s.walFailed.Store(true)
		return fmt.Errorf("%w: %v", errWALPoisoned, err)
	}
	return nil
}

// walRecord appends one record and fsyncs it, poisoning the server on
// failure, then runs apply, the record's effect on the job table (nil
// for none), which drops the jobTable method's error: a live record
// never trips it (see jobTable). It holds tableMu throughout, the
// append-side half of the compaction freeze, so a snapshot never holds a
// table behind its log.
func (s *Server) walRecord(typ string, payload any, apply func()) error {
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	if err := s.walAppend(typ, payload); err != nil {
		return err
	}
	if err := s.wlog.Sync(); err != nil {
		s.walFailed.Store(true)
		return fmt.Errorf("%w: %v", errWALPoisoned, err)
	}
	if apply != nil {
		apply()
	}
	return nil
}

// Compact freezes the server (engine lock + table lock, which together
// block every appender), snapshots the engine and job table, and asks
// the log to swap its records for the snapshot. The job table is pruned
// first: terminal jobs with a resolved (or absent) webhook beyond the
// queue's retain bound need never be recovered.
func (s *Server) Compact() error {
	if s.wlog == nil {
		return fmt.Errorf("server: not a durable server")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Server) compactLocked() error {
	if s.walFailed.Load() {
		// The in-memory state is ahead of the log (an append failed after
		// the engine already applied the mutation). Snapshotting it would
		// promote exactly the un-journaled state a restart exists to roll
		// back — refuse, and leave nothing on disk.
		return fmt.Errorf("%w: refusing to snapshot state the log does not vouch for", errWALPoisoned)
	}
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	s.table.prune(s.retain)
	if err := s.wlog.Compact(s.snapshotLocked()); err != nil {
		s.walFailed.Store(true)
		return fmt.Errorf("%w: %v", errWALPoisoned, err)
	}
	return nil
}

// snapshotLocked is the compaction payload of the server's current state.
// Callers hold s.mu and tableMu.
func (s *Server) snapshotLocked() walSnapshot {
	return walSnapshot{Genesis: s.genesisFP, Engine: s.eng.Snapshot(), Jobs: s.table.rows, NextJobSeq: s.table.nextSeq}
}

// maybeCompactLocked auto-compacts once the log outgrows the threshold.
// Caller holds s.mu.
func (s *Server) maybeCompactLocked() {
	if s.wlog == nil || s.compactAt <= 0 || s.walFailed.Load() {
		return
	}
	if s.wlog.Size() >= s.compactAt {
		_ = s.compactLocked()
	}
}

// WALStats reports the write-ahead log's counters (replayed records,
// torn bytes truncated, snapshot seq, ...); nil on an in-memory server.
// The serving process logs these at startup so an operator can see what
// recovery did.
func (s *Server) WALStats() *wal.Stats {
	if s.wlog == nil {
		return nil
	}
	st := s.wlog.Stats()
	return &st
}
