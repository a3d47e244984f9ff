// Package queue is the asynchronous spine of the CI server: a bounded
// FIFO job queue per project and a shared Pool that executes their jobs
// (in the server's case, engine.Commit under the engine lock). A burst of
// commits from many repositories is absorbed as 202-accepted jobs and
// evaluated in submission order, instead of stalling every caller on one
// engine lock.
//
// A Queue owns no goroutines: a job runs only when the queue's owner
// calls RunNext. In the server that owner is the Pool, which keeps one
// job in flight per queue and weighs queues against each other; tests
// call RunNext themselves (or a manual Pool's RunOne) to choose exactly
// when each job runs and observe every intermediate state. The clock
// that stamps job transitions is injectable as well.
package queue

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// State is a job's position in its lifecycle. Transitions are
// Queued -> Running -> Done|Failed, or Queued -> Failed directly when a
// queued job is canceled or the queue shuts down non-gracefully. A
// Running job whose error matches the Park policy moves to Parked
// instead of Failed, and back to Queued when ReleaseParked fires. Done
// and Failed are terminal.
type State int32

const (
	// Queued means the job is waiting its FIFO turn.
	Queued State = iota
	// Running means RunNext has dequeued the job and is executing it.
	Running
	// Done means the executor returned a result.
	Done
	// Failed means the executor returned an error, or the job was
	// canceled while still queued (Err is ErrCanceled then).
	Failed
	// Parked means the executor hit a retryable dependency outage (the
	// remote label provider, in the CI server's case) and the job is
	// held — outside the pending backlog, occupying no executor — until
	// ReleaseParked re-queues it. Parked is not terminal: Done stays
	// open and waiters keep waiting.
	Parked
)

// String implements fmt.Stringer; the values are the wire vocabulary of
// the server's job-status endpoint.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	case Parked:
		return "awaiting_labels"
	default:
		return fmt.Sprintf("State(%d)", int32(s))
	}
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed }

var (
	// ErrFull rejects a submit when the pending backlog is at capacity.
	ErrFull = errors.New("queue: full")
	// ErrClosed rejects a submit after Close.
	ErrClosed = errors.New("queue: closed")
	// ErrCanceled is the terminal error of a job canceled while queued.
	ErrCanceled = errors.New("queue: job canceled")
	// ErrNotFound reports an unknown (or already evicted) job ID.
	ErrNotFound = errors.New("queue: no such job")
	// ErrNotCancelable reports a cancel attempt on a job that already
	// started running or finished; only queued jobs can be canceled.
	ErrNotCancelable = errors.New("queue: job is not queued")
)

// Clock supplies the timestamps stamped onto job transitions. It must be
// safe for concurrent use. Tests inject a deterministic counter; the
// default is wall time in Unix nanoseconds.
type Clock func() int64

// Job is one unit of queued work. ID, Seq, and Req are immutable after
// Submit; everything else is read through the accessor methods, which are
// safe for concurrent use.
type Job[Req, Res any] struct {
	// ID names the job ("job-<seq>"), unique within its queue.
	ID string
	// Seq is the 1-based submission position; FIFO execution order equals
	// ascending Seq.
	Seq int
	// Req is the submitted work item.
	Req Req

	mu       sync.Mutex
	state    State
	res      Res
	err      error
	enqueued int64
	started  int64
	finished int64
	done     chan struct{}
}

// Status is a point-in-time, non-generic snapshot of a job, shaped for
// wire responses and logs.
type Status struct {
	ID    string
	Seq   int
	State State
	// Err is the failure message ("" unless State == Failed).
	Err string
	// EnqueuedAt/StartedAt/FinishedAt are Clock stamps of the
	// transitions; zero when the transition has not happened.
	EnqueuedAt, StartedAt, FinishedAt int64
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job[Req, Res]) Done() <-chan struct{} { return j.done }

// State returns the job's current state.
func (j *Job[Req, Res]) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Peek atomically reads the state together with the result and error; the
// latter two are meaningful only when the state is terminal.
func (j *Job[Req, Res]) Peek() (State, Res, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.res, j.err
}

// Result returns the executor's result or error. Call after Done is
// closed; before that it returns zero values.
func (j *Job[Req, Res]) Result() (Res, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.res, j.err
}

// Snapshot returns the job's current Status.
func (j *Job[Req, Res]) Snapshot() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *Job[Req, Res]) snapshotLocked() Status {
	st := Status{
		ID: j.ID, Seq: j.Seq, State: j.state,
		EnqueuedAt: j.enqueued, StartedAt: j.started, FinishedAt: j.finished,
	}
	if j.err != nil {
		st.Err = j.err.Error()
	}
	return st
}

// Options configures a queue.
type Options[Req, Res any] struct {
	// Capacity bounds the pending (not yet running) backlog; Submit
	// returns ErrFull beyond it. 0 means DefaultCapacity.
	Capacity int
	// Exec runs one job's work and produces its result; it receives the
	// job handle (the durable server needs the job ID inside the
	// execution transaction). Required.
	Exec func(*Job[Req, Res]) (Res, error)
	// Retain bounds how many terminal jobs stay pollable before the
	// oldest are evicted. 0 means DefaultRetain.
	Retain int
	// Clock stamps job transitions; nil means wall time.
	Clock Clock
	// OnFinish, when set, is called exactly once per job immediately
	// after it reaches a terminal state (the server routes webhook
	// callbacks through it). It runs on the finishing goroutine without
	// queue locks held; it must not block for long.
	OnFinish func(*Job[Req, Res])
	// OnSubmit, when set, is called under the queue lock after a job is
	// built but before it is enqueued; an error aborts the submission and
	// is returned from Submit (no job exists then, and its sequence
	// number is not consumed). The durable server writes the job's
	// write-ahead record here, so a job the caller was promised is a job
	// the log can re-enqueue after a crash.
	OnSubmit func(*Job[Req, Res]) error
	// OnCancel, when set, is called under the queue lock after a job is
	// confirmed cancelable but before its state changes; an error aborts
	// the cancellation (the job stays queued) and is returned from
	// Cancel. The durable server writes the cancel record here — ordering
	// the record before the state change means a canceled job can never
	// resurrect after a crash.
	OnCancel func(*Job[Req, Res]) error
	// Restore pre-populates the queue with jobs recovered from a durable
	// log: terminal entries become pollable finished jobs, non-terminal
	// entries are re-enqueued in Seq order and execute again on the
	// owner's next RunNext calls.
	Restore []Restored[Req, Res]
	// StartSeq floors the job sequence counter, so IDs of jobs pruned
	// from a durable log are never reissued. Restored jobs may raise the
	// floor further.
	StartSeq int
	// Park classifies executor errors as retryable dependency outages:
	// when it returns true for a job's error, the job parks (State
	// Parked) instead of failing, and runs again when ReleaseParked is
	// called. Parking is suppressed on a closed queue — shutdown must
	// not strand jobs nobody will release — so the error fails the job
	// then. Nil means no job ever parks.
	Park func(error) bool
	// OnPark, when set, is called once each time a job parks, on the
	// executing goroutine without queue locks held, with the error that
	// parked it. The durable server journals the park and schedules the
	// automatic release here.
	OnPark func(*Job[Req, Res], error)
	// OnRelease, when set, is called once per job re-queued by
	// ReleaseParked, without queue locks held. The multi-tenant control
	// plane kicks the fair scheduler here so released work is drained
	// without a fresh submission.
	OnRelease func(*Job[Req, Res])
}

// Restored is one recovered job for Options.Restore.
type Restored[Req, Res any] struct {
	ID    string
	Seq   int
	State State
	Req   Req
	// Res and Err are the terminal outcome (State Done or Failed). An Err
	// equal to ErrCanceled.Error() is mapped back to ErrCanceled so the
	// server's status-code mapping survives restarts.
	Res Res
	Err string
}

// Defaults for Options zero values.
const (
	DefaultCapacity = 1024
	DefaultRetain   = 4096
)

// Queue is a bounded FIFO job queue. Safe for concurrent use.
type Queue[Req, Res any] struct {
	exec      func(*Job[Req, Res]) (Res, error)
	clock     Clock
	onFinish  func(*Job[Req, Res])
	onSubmit  func(*Job[Req, Res]) error
	onCancel  func(*Job[Req, Res]) error
	park      func(error) bool
	onPark    func(*Job[Req, Res], error)
	onRelease func(*Job[Req, Res])
	capacity  int
	retain    int

	mu       sync.Mutex
	pending  []*Job[Req, Res]
	parked   []*Job[Req, Res] // in Seq order
	jobs     map[string]*Job[Req, Res]
	terminal []string // terminal job IDs in finish order, for eviction
	closed   bool
	nextSeq  int
	running  int
	stats    Stats
}

// Stats counts the queue's lifetime traffic.
type Stats struct {
	// Submitted counts accepted jobs (rejected submits are not jobs).
	Submitted uint64 `json:"submitted"`
	// Completed counts jobs that reached Done.
	Completed uint64 `json:"completed"`
	// Failed counts jobs whose executor returned an error.
	Failed uint64 `json:"failed"`
	// Canceled counts jobs canceled while queued (a subset of neither
	// Completed nor Failed).
	Canceled uint64 `json:"canceled"`
	// ParkedTotal counts park transitions over the queue's lifetime (one
	// job parking twice counts twice).
	ParkedTotal uint64 `json:"parked_total"`
	// Pending, Running, and Parked are point-in-time gauges.
	Pending int `json:"pending"`
	Running int `json:"running"`
	Parked  int `json:"parked"`
}

// New builds a queue around opts.Exec. Nothing runs until the owner
// calls RunNext.
func New[Req, Res any](opts Options[Req, Res]) (*Queue[Req, Res], error) {
	if opts.Exec == nil {
		return nil, fmt.Errorf("queue: Options.Exec required")
	}
	if opts.Capacity < 0 || opts.Retain < 0 || opts.StartSeq < 0 {
		return nil, fmt.Errorf("queue: negative capacity, retain, or start seq")
	}
	q := &Queue[Req, Res]{
		exec:      opts.Exec,
		clock:     opts.Clock,
		onFinish:  opts.OnFinish,
		onSubmit:  opts.OnSubmit,
		onCancel:  opts.OnCancel,
		park:      opts.Park,
		onPark:    opts.OnPark,
		onRelease: opts.OnRelease,
		capacity:  opts.Capacity,
		retain:    opts.Retain,
		jobs:      make(map[string]*Job[Req, Res]),
		nextSeq:   opts.StartSeq,
	}
	if q.clock == nil {
		q.clock = func() int64 { return time.Now().UnixNano() }
	}
	if q.capacity == 0 {
		q.capacity = DefaultCapacity
	}
	if q.retain == 0 {
		q.retain = DefaultRetain
	}
	if err := q.restore(opts.Restore); err != nil {
		return nil, err
	}
	return q, nil
}

// restore seeds the queue from recovered jobs (see Options.Restore),
// sorted into Seq order. Called during construction, before the queue
// is shared, so no locking is needed.
func (q *Queue[Req, Res]) restore(restored []Restored[Req, Res]) error {
	if len(restored) == 0 {
		return nil
	}
	rs := make([]Restored[Req, Res], len(restored))
	copy(rs, restored)
	sort.Slice(rs, func(i, j int) bool { return rs[i].Seq < rs[j].Seq })
	for _, r := range rs {
		if r.Seq < 1 || r.ID == "" {
			return fmt.Errorf("queue: restored job %q has invalid seq %d", r.ID, r.Seq)
		}
		if _, dup := q.jobs[r.ID]; dup {
			return fmt.Errorf("queue: duplicate restored job %q", r.ID)
		}
		j := &Job[Req, Res]{
			ID:    r.ID,
			Seq:   r.Seq,
			Req:   r.Req,
			state: r.State,
			done:  make(chan struct{}),
		}
		switch {
		case r.State == Done:
			j.res = r.Res
			close(j.done)
			q.terminal = append(q.terminal, j.ID)
		case r.State == Failed:
			if r.Err == ErrCanceled.Error() {
				j.err = ErrCanceled
			} else {
				j.err = errors.New(r.Err)
			}
			close(j.done)
			q.terminal = append(q.terminal, j.ID)
		default:
			// Queued, Running, or Parked at crash time: re-enqueue.
			// Exactly-once execution holds because a job whose evaluation
			// record made it to the log is restored as terminal, never
			// re-run. A parked job in particular never reached its
			// evaluation record, so re-running it after restart is the
			// resume path, not a duplicate.
			j.state = Queued
			q.pending = append(q.pending, j)
		}
		q.jobs[j.ID] = j
		if r.Seq > q.nextSeq {
			q.nextSeq = r.Seq
		}
	}
	for len(q.terminal) > q.retain {
		delete(q.jobs, q.terminal[0])
		q.terminal = q.terminal[1:]
	}
	return nil
}

// Submit enqueues a work item and returns its job handle. It never
// blocks: a full backlog is ErrFull, a closed queue ErrClosed.
func (q *Queue[Req, Res]) Submit(req Req) (*Job[Req, Res], error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	if len(q.pending) >= q.capacity {
		return nil, ErrFull
	}
	j := &Job[Req, Res]{
		ID:       fmt.Sprintf("job-%d", q.nextSeq+1),
		Seq:      q.nextSeq + 1,
		Req:      req,
		state:    Queued,
		enqueued: q.clock(),
		done:     make(chan struct{}),
	}
	if q.onSubmit != nil {
		// The durability hook: if the job's record cannot be made durable,
		// the job must not exist (its sequence number stays unconsumed).
		if err := q.onSubmit(j); err != nil {
			return nil, err
		}
	}
	q.nextSeq = j.Seq
	q.pending = append(q.pending, j)
	q.jobs[j.ID] = j
	q.stats.Submitted++
	return j, nil
}

// Job looks up a job by ID. Terminal jobs stay pollable until evicted by
// the retain bound.
func (q *Queue[Req, Res]) Job(id string) (*Job[Req, Res], bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	return j, ok
}

// Cancel fails a still-queued (or parked) job with ErrCanceled, removes
// it from the backlog, and returns it (so the caller can report its
// final status even if eviction races the lookup). Running or finished
// jobs are not cancelable (ErrNotCancelable); unknown IDs are
// ErrNotFound. A parked job is cancelable for the same reason a queued
// one is — no executor is touching it — and must be: a provider outage
// with no end in sight should not hold the developer's commit hostage.
func (q *Queue[Req, Res]) Cancel(id string) (*Job[Req, Res], error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return nil, ErrNotFound
	}
	idx, inParked := -1, false
	for i, p := range q.pending {
		if p == j {
			idx = i
			break
		}
	}
	if idx < 0 {
		for i, p := range q.parked {
			if p == j {
				idx, inParked = i, true
				break
			}
		}
	}
	if idx < 0 {
		q.mu.Unlock()
		return nil, ErrNotCancelable
	}
	if q.onCancel != nil {
		// Durability hook, ordered before the state change: a cancel whose
		// record is not durable does not happen, and a recorded cancel can
		// never resurrect as a queued job after a crash.
		if err := q.onCancel(j); err != nil {
			q.mu.Unlock()
			return nil, err
		}
	}
	if inParked {
		q.parked = append(q.parked[:idx], q.parked[idx+1:]...)
	} else {
		q.pending = append(q.pending[:idx], q.pending[idx+1:]...)
	}
	j.mu.Lock()
	j.state = Failed
	j.err = ErrCanceled
	j.finished = q.clock()
	close(j.done)
	j.mu.Unlock()
	q.stats.Canceled++
	q.retireLocked(j)
	q.mu.Unlock()
	if q.onFinish != nil {
		q.onFinish(j)
	}
	return j, nil
}

// Stats snapshots the traffic counters and gauges.
func (q *Queue[Req, Res]) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.stats
	s.Pending = len(q.pending)
	s.Running = q.running
	s.Parked = len(q.parked)
	return s
}

// CloseIntake rejects new submissions (ErrClosed) without draining or
// waiting: the backlog and any running jobs are untouched. It is the
// first phase of a multi-queue shutdown — the control plane stops intake
// on every project queue before any of them drains, so a commit accepted
// on one queue can never observe another queue already torn down. A
// later Close (or an external scheduler draining the backlog) finishes
// the shutdown. Idempotent.
func (q *Queue[Req, Res]) CloseIntake() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
}

// Abandon fails every still-queued job with ErrCanceled, without running
// the OnCancel durability hook. It is the teardown path for a queue whose
// backing state is about to be deleted wholesale (project deletion):
// per-job cancel records in a log that is removed along with the queue
// would be wasted work, and a hook failure must not leave a job queued
// forever with its waiters blocked on Done. OnFinish still fires per job.
// Returns how many jobs were abandoned. Callers are responsible for
// making sure no scheduler will still drain this queue (pending jobs
// abandoned here are gone, not deferred).
func (q *Queue[Req, Res]) Abandon() int {
	q.mu.Lock()
	abandoned := make([]*Job[Req, Res], 0, len(q.pending)+len(q.parked))
	abandoned = append(abandoned, q.pending...)
	abandoned = append(abandoned, q.parked...)
	sort.Slice(abandoned, func(i, k int) bool { return abandoned[i].Seq < abandoned[k].Seq })
	q.pending, q.parked = nil, nil
	for _, j := range abandoned {
		j.mu.Lock()
		j.state = Failed
		j.err = ErrCanceled
		j.finished = q.clock()
		close(j.done)
		j.mu.Unlock()
		q.stats.Canceled++
		q.retireLocked(j)
	}
	q.mu.Unlock()
	if q.onFinish != nil {
		for _, j := range abandoned {
			q.onFinish(j)
		}
	}
	return len(abandoned)
}

// Pending reports the current backlog depth (queued, not running).
func (q *Queue[Req, Res]) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// Close shuts the queue down gracefully: new submits are rejected with
// ErrClosed and the closing goroutine runs every already-accepted job,
// so on return every accepted job has reached a terminal state. A queue
// whose intake was already closed via CloseIntake is assumed to have
// been drained by its scheduler, and Close skips the drain then, exactly
// as a second Close would. Idempotent.
func (q *Queue[Req, Res]) Close() {
	q.mu.Lock()
	alreadyClosed := q.closed
	q.closed = true
	q.mu.Unlock()
	if !alreadyClosed {
		for q.RunNext() {
		}
	}
	// Nothing can park on a closed queue, so any job still parked would
	// wait forever. Fail them so every accepted job reaches a terminal
	// state and synchronous waiters unblock — the same ErrCanceled
	// contract as Abandon.
	q.failParked()
}

// RunNext dequeues and executes the oldest pending job on the calling
// goroutine, returning false when the backlog is empty. It is the only
// way a job runs. Concurrent callers never pop the same job, but only a
// single caller at a time keeps completion order equal to FIFO
// submission order.
func (q *Queue[Req, Res]) RunNext() bool {
	j := q.pop()
	if j == nil {
		return false
	}
	q.run(j)
	return true
}

// pop removes the FIFO head and marks it running, or returns nil on an
// empty backlog.
func (q *Queue[Req, Res]) pop() *Job[Req, Res] {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return nil
	}
	j := q.pending[0]
	q.pending = q.pending[1:]
	q.running++
	j.mu.Lock()
	j.state = Running
	j.started = q.clock()
	j.mu.Unlock()
	return j
}

// run executes a popped job and retires it — or parks it, when the
// executor's error matches the Park policy and the queue is still open.
func (q *Queue[Req, Res]) run(j *Job[Req, Res]) {
	res, err := q.exec(j)
	if err != nil && q.park != nil && q.park(err) {
		q.mu.Lock()
		if !q.closed {
			j.mu.Lock()
			j.state = Parked
			j.mu.Unlock()
			q.running--
			q.stats.ParkedTotal++
			q.insertParkedLocked(j)
			q.mu.Unlock()
			if q.onPark != nil {
				q.onPark(j, err)
			}
			return
		}
		// Shutting down: nobody will release a parked job, so the outage
		// fails it below and waiters unblock.
		q.mu.Unlock()
	}
	j.mu.Lock()
	if err != nil {
		j.state = Failed
		j.err = err
	} else {
		j.state = Done
		j.res = res
	}
	j.finished = q.clock()
	close(j.done)
	j.mu.Unlock()
	q.mu.Lock()
	q.running--
	if err != nil {
		q.stats.Failed++
	} else {
		q.stats.Completed++
	}
	q.retireLocked(j)
	q.mu.Unlock()
	if q.onFinish != nil {
		q.onFinish(j)
	}
}

// insertParkedLocked files a job into the parked list in Seq order, so a
// release re-queues jobs in their original submission order.
func (q *Queue[Req, Res]) insertParkedLocked(j *Job[Req, Res]) {
	at := sort.Search(len(q.parked), func(i int) bool { return q.parked[i].Seq > j.Seq })
	q.parked = append(q.parked, nil)
	copy(q.parked[at+1:], q.parked[at:])
	q.parked[at] = j
}

// ReleaseParked re-queues every parked job ahead of younger pending work
// (the merged backlog is in Seq order) and returns how many jobs it
// released; OnRelease tells the owner each one is runnable again. The server calls it when the label
// provider's breaker cooldown elapses — and on nothing else: a release
// that finds the provider still down just parks the jobs again. A closed
// queue releases nothing (Close fails parked jobs itself).
func (q *Queue[Req, Res]) ReleaseParked() int {
	q.mu.Lock()
	if q.closed || len(q.parked) == 0 {
		q.mu.Unlock()
		return 0
	}
	released := q.parked
	q.parked = nil
	for _, j := range released {
		j.mu.Lock()
		j.state = Queued
		j.mu.Unlock()
	}
	merged := make([]*Job[Req, Res], 0, len(released)+len(q.pending))
	merged = append(merged, released...)
	merged = append(merged, q.pending...)
	sort.Slice(merged, func(i, k int) bool { return merged[i].Seq < merged[k].Seq })
	q.pending = merged
	onRelease := q.onRelease
	q.mu.Unlock()
	if onRelease != nil {
		for _, j := range released {
			onRelease(j)
		}
	}
	return len(released)
}

// ParkedCount reports how many jobs are currently parked.
func (q *Queue[Req, Res]) ParkedCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.parked)
}

// failParked fails every parked job with ErrCanceled; the shutdown
// counterpart of ReleaseParked. Runs once the queue is closed, so no new
// park can race it.
func (q *Queue[Req, Res]) failParked() {
	q.mu.Lock()
	stranded := q.parked
	q.parked = nil
	for _, j := range stranded {
		j.mu.Lock()
		j.state = Failed
		j.err = ErrCanceled
		j.finished = q.clock()
		close(j.done)
		j.mu.Unlock()
		q.stats.Canceled++
		q.retireLocked(j)
	}
	q.mu.Unlock()
	if q.onFinish != nil {
		for _, j := range stranded {
			q.onFinish(j)
		}
	}
}

// retireLocked records a terminal job and evicts the oldest terminal jobs
// beyond the retain bound, so a long-lived server's job map stays bounded
// while recent jobs remain pollable.
func (q *Queue[Req, Res]) retireLocked(j *Job[Req, Res]) {
	q.terminal = append(q.terminal, j.ID)
	for len(q.terminal) > q.retain {
		delete(q.jobs, q.terminal[0])
		q.terminal = q.terminal[1:]
	}
}
