package queue

import (
	"errors"
	"testing"
	"time"
)

// errOutage is the park-eligible failure in these tests; errHard is not.
var (
	errOutage = errors.New("dependency outage")
	errHard   = errors.New("hard failure")
)

func parkingQueue(t *testing.T, exec func(int) (int, error), opts Options[int, int]) *Queue[int, int] {
	t.Helper()
	opts.Park = func(err error) bool { return errors.Is(err, errOutage) }
	return newTestQueue(t, exec, opts)
}

func TestParkOnMatchingError(t *testing.T) {
	var parked []error
	fail := true
	q := parkingQueue(t, func(x int) (int, error) {
		if fail {
			return 0, errOutage
		}
		return x * 10, nil
	}, Options[int, int]{
		OnPark: func(j *Job[int, int], err error) { parked = append(parked, err) },
	})
	j, _ := q.Submit(7)
	if !q.RunNext() {
		t.Fatal("no job to run")
	}
	if got := j.State(); got != Parked {
		t.Fatalf("state = %v, want Parked", got)
	}
	if got := j.State().String(); got != "awaiting_labels" {
		t.Fatalf("wire state = %q, want awaiting_labels", got)
	}
	select {
	case <-j.Done():
		t.Fatal("parked job's done channel closed — parked is not terminal")
	default:
	}
	if len(parked) != 1 || !errors.Is(parked[0], errOutage) {
		t.Fatalf("OnPark calls = %v", parked)
	}
	s := q.Stats()
	if s.ParkedTotal != 1 || s.Parked != 1 || s.Failed != 0 || s.Pending != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if q.ParkedCount() != 1 {
		t.Fatalf("ParkedCount = %d", q.ParkedCount())
	}
	// A parked job is out of the pending backlog: nothing to run.
	if q.RunNext() {
		t.Fatal("parked job still runnable without a release")
	}

	// Release, recover, complete.
	fail = false
	if got := q.ReleaseParked(); got != 1 {
		t.Fatalf("ReleaseParked = %d, want 1", got)
	}
	if j.State() != Queued {
		t.Fatalf("state after release = %v, want Queued", j.State())
	}
	if !q.RunNext() {
		t.Fatal("released job not runnable")
	}
	if state, res, err := j.Peek(); state != Done || res != 70 || err != nil {
		t.Fatalf("after recovery: %v %d %v", state, res, err)
	}
	if s := q.Stats(); s.Parked != 0 || s.ParkedTotal != 1 || s.Completed != 1 {
		t.Fatalf("final stats = %+v", s)
	}
}

func TestNonMatchingErrorStillFails(t *testing.T) {
	q := parkingQueue(t, func(int) (int, error) { return 0, errHard }, Options[int, int]{})
	j, _ := q.Submit(1)
	q.RunNext()
	if state, _, err := j.Peek(); state != Failed || !errors.Is(err, errHard) {
		t.Fatalf("hard failure = %v %v, want Failed", state, err)
	}
	if s := q.Stats(); s.ParkedTotal != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestReleaseParkedPreservesSubmissionOrder(t *testing.T) {
	var ran []int
	fail := true
	var released []int
	q := parkingQueue(t, func(x int) (int, error) {
		if fail {
			return 0, errOutage
		}
		ran = append(ran, x)
		return x, nil
	}, Options[int, int]{
		OnRelease: func(j *Job[int, int]) { released = append(released, j.Seq) },
	})
	for i := 1; i <= 3; i++ {
		q.Submit(i)
	}
	// Park 1 and 2; leave 3 queued. The release must merge the parked
	// jobs back ahead of 3 (Seq order), not behind it.
	q.RunNext()
	q.RunNext()
	fail = false
	if got := q.ReleaseParked(); got != 2 {
		t.Fatalf("ReleaseParked = %d, want 2", got)
	}
	if len(released) != 2 || released[0] != 1 || released[1] != 2 {
		t.Fatalf("OnRelease seqs = %v, want [1 2]", released)
	}
	for q.RunNext() {
	}
	if len(ran) != 3 || ran[0] != 1 || ran[1] != 2 || ran[2] != 3 {
		t.Fatalf("execution order = %v, want [1 2 3]", ran)
	}
}

func TestCancelParkedJob(t *testing.T) {
	q := parkingQueue(t, func(int) (int, error) { return 0, errOutage }, Options[int, int]{})
	j, _ := q.Submit(1)
	q.RunNext()
	if j.State() != Parked {
		t.Fatal("setup: job did not park")
	}
	canceled, err := q.Cancel(j.ID)
	if err != nil || canceled != j {
		t.Fatalf("cancel parked: %v %v", canceled, err)
	}
	if state, _, jerr := j.Peek(); state != Failed || !errors.Is(jerr, ErrCanceled) {
		t.Fatalf("canceled parked job = %v %v", state, jerr)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("canceled parked job's done channel not closed")
	}
	if q.ParkedCount() != 0 {
		t.Fatalf("ParkedCount = %d after cancel", q.ParkedCount())
	}
	if q.ReleaseParked() != 0 {
		t.Fatal("canceled job released")
	}
	if s := q.Stats(); s.Canceled != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestAbandonIncludesParked(t *testing.T) {
	q := parkingQueue(t, func(int) (int, error) { return 0, errOutage }, Options[int, int]{})
	j1, _ := q.Submit(1)
	j2, _ := q.Submit(2)
	q.RunNext() // park j1; j2 stays queued

	// A sync waiter is blocked on the parked job — Abandon must unblock it.
	waited := make(chan error, 1)
	go func() {
		<-j1.Done()
		_, err := j1.Result()
		waited <- err
	}()

	q.Abandon()
	for _, j := range []*Job[int, int]{j1, j2} {
		if state, _, err := j.Peek(); state != Failed || !errors.Is(err, ErrCanceled) {
			t.Fatalf("job %s after abandon = %v %v", j.ID, state, err)
		}
	}
	select {
	case err := <-waited:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("waiter saw %v, want ErrCanceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("sync waiter hung on an abandoned parked job")
	}
	if q.ParkedCount() != 0 {
		t.Fatalf("ParkedCount = %d after abandon", q.ParkedCount())
	}
}

func TestCloseFailsStrandedParkedJobs(t *testing.T) {
	q := parkingQueue(t, func(int) (int, error) { return 0, errOutage }, Options[int, int]{})
	j, _ := q.Submit(1)
	q.RunNext()
	if j.State() != Parked {
		t.Fatal("setup: job did not park")
	}
	q.Close()
	if state, _, err := j.Peek(); state != Failed || !errors.Is(err, ErrCanceled) {
		t.Fatalf("parked job after close = %v %v", state, err)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("close left a parked job's done channel open")
	}
	// Post-close releases are no-ops.
	if q.ReleaseParked() != 0 {
		t.Fatal("ReleaseParked released on a closed queue")
	}
}

func TestParkSuppressedDuringClose(t *testing.T) {
	// A job that would park while the queue is closing must fail (with
	// the original outage error) so Close never strands a waiter.
	block := make(chan struct{})
	entered := make(chan struct{})
	q := parkingQueue(t, func(int) (int, error) {
		close(entered)
		<-block
		return 0, errOutage
	}, Options[int, int]{})
	p := NewPool(PoolOptions{Workers: 1})
	if err := p.Register("q", q, 1, 1); err != nil {
		t.Fatal(err)
	}
	j := submitN(t, p, q, "q", 1)[0]
	<-entered
	closed := make(chan struct{})
	go func() {
		q.CloseIntake()
		p.Close()
		q.Close()
		close(closed)
	}()
	// The pool's Close is now waiting on the in-flight job; let it fail.
	time.Sleep(10 * time.Millisecond)
	close(block)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close hung on a job that tried to park")
	}
	state, _, jerr := j.Peek()
	if state == Parked {
		t.Fatal("job parked during close")
	}
	if state != Failed || !errors.Is(jerr, errOutage) {
		t.Fatalf("job after close = %v %v, want Failed with the outage error", state, jerr)
	}
}

func TestParkedJobsRestoreAsQueued(t *testing.T) {
	// A job parked at crash time is journaled as queued (its submit record
	// has no terminal record); restore re-enqueues and re-runs it.
	var ran []int
	q := newTestQueue(t, func(x int) (int, error) { ran = append(ran, x); return x, nil }, Options[int, int]{
		Restore: []Restored[int, int]{
			{ID: "job-1", Seq: 1, Req: 41, State: Queued},
			{ID: "job-2", Seq: 2, Req: 42, State: Parked},
		},
		StartSeq: 3,
	})
	for q.RunNext() {
	}
	if len(ran) != 2 || ran[0] != 41 || ran[1] != 42 {
		t.Fatalf("restored run order = %v, want [41 42]", ran)
	}
}
