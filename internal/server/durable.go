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

// WAL record types. Submit/commit/cancel are the job lifecycle;
// reveal/charge/promote are the engine's audit trail within one commit
// (replay re-derives and cross-checks them); webhook closes the delivery
// loop; rotate is a testset rotation; rollback marks trailing audit
// records of a torn commit as discarded.
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
// awaiting_labels state with this error. It never changes the job's
// recoverability — a parked job is recoverable because its submit record
// has no commit record yet, so replay re-enqueues it exactly like a job
// that was still queued at the crash.
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
// ended, and whether its webhook outcome was recorded. The table exists
// so compaction can snapshot the queue without re-reading the log. Its
// JSON, a snapshot row, is written by appendJSON (record.go) and read
// back by encoding/json.
type jobEntry struct {
	ID          string          `json:"id"`
	Seq         int             `json:"seq"`
	Req         commitJob       `json:"req"`
	State       string          `json:"state"`
	Res         json.RawMessage `json:"res,omitempty"`
	Err         string          `json:"err,omitempty"`
	WebhookDone bool            `json:"webhook_done,omitempty"`
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
	if d.tornAudit > 0 {
		// A commit was mid-application at the crash: its audit records
		// have no commit record, so replay discarded them. Mark them
		// rolled back so the next replay doesn't fold them into a later
		// commit's audit trail.
		if _, err := wlog.Append(recTypeRollback, recRollback{Discarded: d.tornAudit}); err == nil {
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
	s.eng.SetJournal(walJournal{s})
	// Redeliver webhooks of jobs that finished but whose delivery never
	// reached a recorded outcome (crash mid-backoff, or before the first
	// attempt). The retry queue applies its usual backoff and breakers.
	// Collect under tableMu first: the first Send puts the retry worker in
	// play, and its recorded outcomes mutate the table concurrently.
	s.tableMu.Lock()
	var redeliver []notify.Notification
	for _, id := range s.tableOrder {
		e := s.table[id]
		if e.State == jobQueued || e.Req.Webhook == "" || e.WebhookDone {
			continue
		}
		payload, merr := json.Marshal(e.status())
		if merr != nil {
			continue
		}
		redeliver = append(redeliver, notify.Notification{
			Kind:    notify.KindWebhook,
			To:      e.Req.Webhook,
			Subject: fmt.Sprintf("easeml-ci job %s %s", e.ID, e.State),
			Body:    string(payload),
		})
	}
	s.tableMu.Unlock()
	for _, n := range redeliver {
		_ = s.deliver.Send(n)
	}
}

// status shapes a table entry as the wire status its webhook carries —
// the restart-side twin of jobStatus.
func (e *jobEntry) status() JobStatusResponse {
	out := JobStatusResponse{JobID: e.ID, Seq: e.Seq, State: e.State}
	switch e.State {
	case jobDone:
		var r CommitResponse
		if json.Unmarshal(e.Res, &r) == nil {
			out.Result = &r
		}
	case jobFailed:
		out.Error = e.Err
	}
	return out
}

// recoverDurable rebuilds the engine and job table from snapshot +
// records. The engine is restored from the snapshot (or built fresh from
// genesis), then every logged commit re-executes through the identical
// evaluation path, with the result byte-compared against the logged
// response and the engine's journal cross-checked against the logged
// audit records — recovery fails loudly on any divergence rather than
// serving a history the log doesn't vouch for. Evaluation-affecting
// options (LabelQuota, EarlyDecision) follow the quota precedent: they
// are not fingerprinted, so the operator must keep them stable across
// restarts of a data directory — the byte-compare catches divergence.
func recoverDurable(cfg *script.Config, g Genesis, opts Options, snap *wal.Snapshot, records []wal.Record) (*durableState, error) {
	labelQuota := opts.LabelQuota
	d := &durableState{table: make(map[string]*jobEntry), fp: g.fingerprint()}
	var eng *engine.Engine
	var err error
	if snap != nil {
		var ws walSnapshot
		if err := json.Unmarshal(snap.Data, &ws); err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		if ws.Genesis != d.fp {
			return nil, fmt.Errorf("snapshot: config fingerprint %q does not match the supplied genesis %q — the data directory was created under a different configuration (condition, reliability, adaptivity, steps, or testset); point the server at a fresh data directory or restore the original flags", ws.Genesis, d.fp)
		}
		eng, err = engine.Restore(cfg, ws.Engine, engine.Options{Notifier: notify.Discard{}, EarlyDecision: opts.EarlyDecision})
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
		for _, e := range ws.Jobs {
			d.table[e.ID] = e
			d.order = append(d.order, e.ID)
		}
		d.nextSeq = ws.NextJobSeq
	} else if eng, err = g.engine(cfg, notify.Discard{}, opts.EarlyDecision); err != nil {
		return nil, fmt.Errorf("genesis: %w", err)
	}
	d.eng = eng

	if snap == nil && len(records) > 0 && records[0].Type != recTypeGenesis {
		return nil, fmt.Errorf("record %d: log does not begin with a genesis record; cannot verify the data directory's configuration", records[0].Seq)
	}
	var audit []wal.Record
	for _, rec := range records {
		switch rec.Type {
		case recTypeGenesis:
			var r recGenesis
			if err := json.Unmarshal(rec.Data, &r); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", rec.Seq, rec.Type, err)
			}
			if r.Fingerprint != d.fp {
				return nil, fmt.Errorf("record %d: config fingerprint %q does not match the supplied genesis %q — the data directory was created under a different configuration (logged: condition %q, reliability %v, adaptivity %s, steps %d, %d examples, %d classes, model %q); point the server at a fresh data directory or restore the original flags",
					rec.Seq, r.Fingerprint, d.fp, r.Condition, r.Reliability, r.Adaptivity, r.Steps, r.Examples, r.Classes, r.Model)
			}
		case recTypeSubmit:
			var r recSubmit
			if err := json.Unmarshal(rec.Data, &r); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", rec.Seq, rec.Type, err)
			}
			if _, dup := d.table[r.Job]; dup {
				return nil, fmt.Errorf("record %d: duplicate submit for job %s", rec.Seq, r.Job)
			}
			e := &jobEntry{ID: r.Job, Seq: r.Seq, Req: r.Req, State: jobQueued}
			d.table[r.Job] = e
			d.order = append(d.order, r.Job)
			if r.Seq > d.nextSeq {
				d.nextSeq = r.Seq
			}
		case recTypeReveal, recTypeCharge, recTypePromote, recTypeLooks:
			audit = append(audit, rec)
		case recTypeRollback:
			audit = nil
		case recTypeCommit:
			var r recCommit
			if err := json.Unmarshal(rec.Data, &r); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", rec.Seq, rec.Type, err)
			}
			e := d.table[r.Job]
			if e == nil {
				return nil, fmt.Errorf("record %d: commit for unknown job %s", rec.Seq, r.Job)
			}
			v := &auditVerifier{pending: audit}
			eng.SetJournal(v)
			resp, err := evalCommit(cfg, eng, labelQuota, &e.Req)
			eng.SetJournal(nil)
			audit = nil
			if v.err != nil {
				return nil, fmt.Errorf("record %d: job %s: %w", rec.Seq, r.Job, v.err)
			}
			if len(v.pending) != 0 {
				return nil, fmt.Errorf("record %d: job %s: %d logged audit records not reproduced by replay", rec.Seq, r.Job, len(v.pending))
			}
			if r.Err != "" {
				if err == nil || err.Error() != r.Err {
					return nil, fmt.Errorf("record %d: job %s: logged failure %q, replay got %v", rec.Seq, r.Job, r.Err, err)
				}
				e.State = jobFailed
				e.Err = r.Err
				continue
			}
			if err != nil {
				return nil, fmt.Errorf("record %d: job %s: replay failed (%v) where the log has a success", rec.Seq, r.Job, err)
			}
			got, merr := json.Marshal(resp)
			if merr != nil {
				return nil, merr
			}
			if !bytes.Equal(got, []byte(r.Res)) {
				return nil, fmt.Errorf("record %d: job %s: replayed response diverges from log:\n  log:    %s\n  replay: %s", rec.Seq, r.Job, r.Res, got)
			}
			e.State = jobDone
			e.Res = r.Res
		case recTypeCancel:
			var r recCancel
			if err := json.Unmarshal(rec.Data, &r); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", rec.Seq, rec.Type, err)
			}
			e := d.table[r.Job]
			if e == nil {
				return nil, fmt.Errorf("record %d: cancel for unknown job %s", rec.Seq, r.Job)
			}
			e.State = jobFailed
			e.Err = queue.ErrCanceled.Error()
		case recTypeWebhook:
			var r recWebhook
			if err := json.Unmarshal(rec.Data, &r); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", rec.Seq, rec.Type, err)
			}
			if e := d.table[r.Job]; e != nil {
				e.WebhookDone = true
			}
		case recTypePark:
			// Audit only: the job parked on a provider outage. It has no
			// commit record (parking and recording are mutually exclusive by
			// construction), so the restore loop below re-enqueues it from
			// its submit record — restart IS the release path. Lenient on an
			// unknown job for the same reason webhook records are: the
			// record changes no state.
			var r recPark
			if err := json.Unmarshal(rec.Data, &r); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", rec.Seq, rec.Type, err)
			}
		case recTypeRotate:
			var r recRotate
			if err := json.Unmarshal(rec.Data, &r); err != nil {
				return nil, fmt.Errorf("record %d (%s): %w", rec.Seq, rec.Type, err)
			}
			classes := eng.Testsets().Current().Data.Classes
			next, err := datasetFromLabels("rotated", r.Labels, classes)
			if err != nil {
				return nil, fmt.Errorf("record %d (rotate): %w", rec.Seq, err)
			}
			active := model.NewFixedPredictions(eng.ActiveModelName(), r.ActivePreds)
			if err := eng.RotateTestset(next, labeling.NewTruthOracle(next.Y), active); err != nil {
				return nil, fmt.Errorf("record %d (rotate): %w", rec.Seq, err)
			}
			if got := eng.Testsets().Current().Generation; r.Generation != 0 && got != r.Generation {
				return nil, fmt.Errorf("record %d (rotate): replayed generation %d, log says %d", rec.Seq, got, r.Generation)
			}
		default:
			return nil, fmt.Errorf("record %d: unknown type %q", rec.Seq, rec.Type)
		}
	}
	// Trailing audit records (a commit that crashed mid-application):
	// discard — the replayed engine never executed that commit, so the
	// recovered state is the pre-record state.
	d.tornAudit = len(audit)

	// Hand the table to the queue as restore entries, in submission
	// order.
	for _, id := range d.order {
		e := d.table[id]
		r := queue.Restored[commitJob, CommitResponse]{ID: e.ID, Seq: e.Seq, Req: e.Req}
		switch e.State {
		case jobDone:
			r.State = queue.Done
			if err := json.Unmarshal(e.Res, &r.Res); err != nil {
				return nil, fmt.Errorf("job %s: stored response: %w", e.ID, err)
			}
		case jobFailed:
			r.State = queue.Failed
			r.Err = e.Err
		default:
			r.State = queue.Queued
		}
		d.restored = append(d.restored, r)
	}
	return d, nil
}

// auditVerifier is the replay-time engine journal: instead of appending,
// it consumes the logged audit records and fails on any divergence
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

func (v *auditVerifier) JournalReveal(count int) error {
	return v.take(recTypeReveal, recReveal{Count: count})
}
func (v *auditVerifier) JournalCharge(labels int) error {
	return v.take(recTypeCharge, recCharge{Labels: labels})
}
func (v *auditVerifier) JournalPromote(m string) error {
	return v.take(recTypePromote, recPromote{Model: m})
}
func (v *auditVerifier) JournalLooks(looks, saved int, early bool) error {
	return v.take(recTypeLooks, recLooks{Looks: looks, Saved: saved, Early: early})
}

// walJournal is the live-traffic engine journal: every engine side
// effect inside a commit is appended (unsynced — the commit record's
// fsync makes the whole transaction durable at once). An append failure
// poisons the server and aborts the commit mid-application; the restart
// replays to the pre-commit state.
type walJournal struct{ s *Server }

func (j walJournal) append(typ string, payload any) error {
	if _, err := j.s.wlog.Append(typ, payload); err != nil {
		j.s.walFailed.Store(true)
		return fmt.Errorf("%w: %v", errWALPoisoned, err)
	}
	return nil
}

func (j walJournal) JournalReveal(count int) error {
	return j.append(recTypeReveal, recReveal{Count: count})
}
func (j walJournal) JournalCharge(labels int) error {
	return j.append(recTypeCharge, recCharge{Labels: labels})
}
func (j walJournal) JournalPromote(m string) error {
	return j.append(recTypePromote, recPromote{Model: m})
}
func (j walJournal) JournalLooks(looks, saved int, early bool) error {
	return j.append(recTypeLooks, recLooks{Looks: looks, Saved: saved, Early: early})
}

// walAppendSyncLocked appends one record and fsyncs, poisoning the
// server on failure. Callers hold tableMu (the append-side half of the
// compaction freeze).
func (s *Server) walAppendSyncLocked(typ string, payload any) error {
	_, err := s.wlog.Append(typ, payload)
	if err == nil {
		err = s.wlog.Sync()
	}
	if err != nil {
		s.walFailed.Store(true)
		return fmt.Errorf("%w: %v", errWALPoisoned, err)
	}
	return nil
}

// walOnSubmit runs under the queue lock before a job is enqueued: the
// submit record reaches disk before the 202 is possible, so an accepted
// job is always a recoverable job. An append failure aborts the
// submission (no job exists) and poisons the server.
func (s *Server) walOnSubmit(j *queue.Job[commitJob, CommitResponse]) error {
	if s.walFailed.Load() {
		return errWALPoisoned
	}
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	if err := s.walAppendSyncLocked(recTypeSubmit, recSubmit{Job: j.ID, Seq: j.Seq, Req: j.Req}); err != nil {
		return err
	}
	s.table[j.ID] = &jobEntry{ID: j.ID, Seq: j.Seq, Req: j.Req, State: jobQueued}
	s.tableOrder = append(s.tableOrder, j.ID)
	if j.Seq > s.tableNextSeq {
		s.tableNextSeq = j.Seq
	}
	return nil
}

// walOnCancel runs under the queue lock before a cancelable job's state
// changes: record first, cancel second, so a canceled job can never
// resurrect as queued after a crash.
func (s *Server) walOnCancel(j *queue.Job[commitJob, CommitResponse]) error {
	if s.walFailed.Load() {
		return errWALPoisoned
	}
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	if err := s.walAppendSyncLocked(recTypeCancel, recCancel{Job: j.ID}); err != nil {
		return err
	}
	if e := s.table[j.ID]; e != nil {
		e.State = jobFailed
		e.Err = queue.ErrCanceled.Error()
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
	s.pruneTableLocked()
	if err := s.wlog.Compact(s.snapshotLocked()); err != nil {
		s.walFailed.Store(true)
		return fmt.Errorf("%w: %v", errWALPoisoned, err)
	}
	return nil
}

// snapshotLocked is the compaction payload of the server's current state.
// Callers hold s.mu and tableMu.
func (s *Server) snapshotLocked() walSnapshot {
	jobs := make([]*jobEntry, 0, len(s.tableOrder))
	for _, id := range s.tableOrder {
		jobs = append(jobs, s.table[id])
	}
	return walSnapshot{Genesis: s.genesisFP, Engine: s.eng.Snapshot(), Jobs: jobs, NextJobSeq: s.tableNextSeq}
}

// pruneTableLocked drops terminal, delivery-resolved jobs beyond the
// retain bound (newest kept), mirroring the queue's own eviction: a job
// the queue would no longer answer polls for need not be recovered.
func (s *Server) pruneTableLocked() {
	prunable := 0
	for _, id := range s.tableOrder {
		if s.tableEntryPrunable(s.table[id]) {
			prunable++
		}
	}
	drop := prunable - s.retain
	if drop <= 0 {
		return
	}
	kept := s.tableOrder[:0]
	for _, id := range s.tableOrder {
		if drop > 0 && s.tableEntryPrunable(s.table[id]) {
			delete(s.table, id)
			drop--
			continue
		}
		kept = append(kept, id)
	}
	s.tableOrder = kept
}

func (s *Server) tableEntryPrunable(e *jobEntry) bool {
	return e != nil && e.State != jobQueued && (e.Req.Webhook == "" || e.WebhookDone)
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
