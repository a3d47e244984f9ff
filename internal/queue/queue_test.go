package queue

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a deterministic Clock: each call returns the next integer.
func fakeClock() Clock {
	var t int64
	return func() int64 { return atomic.AddInt64(&t, 1) }
}

// byReq adapts a function of the request alone into an Options.Exec.
func byReq[Req, Res any](f func(Req) (Res, error)) func(*Job[Req, Res]) (Res, error) {
	return func(j *Job[Req, Res]) (Res, error) { return f(j.Req) }
}

// newTestQueue builds a queue over exec with a deterministic clock; the
// test controls exactly when each job runs by calling RunNext.
func newTestQueue(t *testing.T, exec func(int) (int, error), opts Options[int, int]) *Queue[int, int] {
	t.Helper()
	opts.Exec = byReq(exec)
	if opts.Clock == nil {
		opts.Clock = fakeClock()
	}
	q, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestJobLifecycleDeterministic(t *testing.T) {
	q := newTestQueue(t, func(x int) (int, error) { return x * 10, nil }, Options[int, int]{})
	j, err := q.Submit(7)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID != "job-1" || j.Seq != 1 {
		t.Errorf("job identity = %q seq %d", j.ID, j.Seq)
	}
	if got := j.State(); got != Queued {
		t.Errorf("state after submit = %v", got)
	}
	st := j.Snapshot()
	if st.EnqueuedAt != 1 || st.StartedAt != 0 || st.FinishedAt != 0 {
		t.Errorf("queued snapshot stamps = %+v", st)
	}
	if !q.RunNext() {
		t.Fatal("RunNext found no job")
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("done channel not closed after RunNext")
	}
	state, res, jerr := j.Peek()
	if state != Done || res != 70 || jerr != nil {
		t.Errorf("peek = %v %d %v", state, res, jerr)
	}
	if res, jerr := j.Result(); res != 70 || jerr != nil {
		t.Errorf("result = %d %v", res, jerr)
	}
	st = j.Snapshot()
	// Fake clock ticks once per transition: enqueue=1, start=2, finish=3.
	if st.EnqueuedAt != 1 || st.StartedAt != 2 || st.FinishedAt != 3 {
		t.Errorf("done snapshot stamps = %+v", st)
	}
	if q.RunNext() {
		t.Error("RunNext on an empty backlog should report false")
	}
}

func TestFailedJobCarriesError(t *testing.T) {
	boom := errors.New("boom")
	q := newTestQueue(t, func(int) (int, error) { return 0, boom }, Options[int, int]{})
	j, _ := q.Submit(1)
	q.RunNext()
	state, _, err := j.Peek()
	if state != Failed || !errors.Is(err, boom) {
		t.Errorf("failed job peek = %v %v", state, err)
	}
	if st := j.Snapshot(); st.Err != "boom" {
		t.Errorf("snapshot err = %q", st.Err)
	}
}

func TestFIFOOrder(t *testing.T) {
	var ran []int
	q := newTestQueue(t, func(x int) (int, error) { ran = append(ran, x); return x, nil }, Options[int, int]{})
	for i := 0; i < 5; i++ {
		if _, err := q.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	if got := q.Pending(); got != 5 {
		t.Fatalf("Pending() = %d before drain, want 5", got)
	}
	for q.RunNext() {
	}
	if got := q.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after drain, want 0", got)
	}
	for i, x := range ran {
		if x != i {
			t.Fatalf("execution order = %v, want FIFO", ran)
		}
	}
	if len(ran) != 5 {
		t.Fatalf("ran %d jobs, want 5", len(ran))
	}
}

func TestCapacityBound(t *testing.T) {
	q := newTestQueue(t, func(x int) (int, error) { return x, nil }, Options[int, int]{Capacity: 2})
	if _, err := q.Submit(1); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(2); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(3); !errors.Is(err, ErrFull) {
		t.Errorf("over-capacity submit = %v, want ErrFull", err)
	}
	// Draining one slot reopens the backlog.
	q.RunNext()
	if _, err := q.Submit(3); err != nil {
		t.Errorf("post-drain submit = %v", err)
	}
}

func TestCancelSemantics(t *testing.T) {
	q := newTestQueue(t, func(x int) (int, error) { return x, nil }, Options[int, int]{})
	j1, _ := q.Submit(1)
	j2, _ := q.Submit(2)
	canceled, err := q.Cancel(j2.ID)
	if err != nil {
		t.Fatalf("cancel queued job: %v", err)
	}
	if canceled != j2 {
		t.Error("Cancel should return the canceled job")
	}
	if state, _, err := j2.Peek(); state != Failed || !errors.Is(err, ErrCanceled) {
		t.Errorf("canceled job = %v %v", state, err)
	}
	select {
	case <-j2.Done():
	default:
		t.Error("canceled job's done channel not closed")
	}
	// Double cancel and cancel-after-terminal are not cancelable.
	if _, err := q.Cancel(j2.ID); !errors.Is(err, ErrNotCancelable) {
		t.Errorf("double cancel = %v", err)
	}
	if _, err := q.Cancel("job-999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown cancel = %v", err)
	}
	// The canceled job must not execute; the surviving one must.
	if !q.RunNext() || q.RunNext() {
		t.Error("exactly one job should remain runnable")
	}
	if state, res, _ := j1.Peek(); state != Done || res != 1 {
		t.Errorf("surviving job = %v %d", state, res)
	}
	s := q.Stats()
	if s.Submitted != 2 || s.Completed != 1 || s.Canceled != 1 || s.Failed != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSubmitAfterCloseRejected(t *testing.T) {
	q := newTestQueue(t, func(x int) (int, error) { return x, nil }, Options[int, int]{})
	j, _ := q.Submit(1)
	q.Close()
	if _, err := q.Submit(2); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close = %v, want ErrClosed", err)
	}
	// Close drains: the accepted job reached a terminal state.
	if state, res, _ := j.Peek(); state != Done || res != 1 {
		t.Errorf("accepted job after close = %v %d", state, res)
	}
	q.Close() // idempotent
}

func TestOnFinishExactlyOnce(t *testing.T) {
	finishes := map[string]int{}
	var mu sync.Mutex
	var q *Queue[int, int]
	q = newTestQueue(t, func(x int) (int, error) {
		if x%2 == 1 {
			return 0, errors.New("odd")
		}
		return x, nil
	}, Options[int, int]{
		OnFinish: func(j *Job[int, int]) {
			mu.Lock()
			defer mu.Unlock()
			if !j.State().Terminal() {
				t.Errorf("OnFinish saw non-terminal job %s in %v", j.ID, j.State())
			}
			finishes[j.ID]++
		},
	})
	var ids []string
	for i := 0; i < 6; i++ {
		j, err := q.Submit(i)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	q.Cancel(ids[3])
	q.Close()
	for _, id := range ids {
		if finishes[id] != 1 {
			t.Errorf("job %s finished %d times, want exactly once", id, finishes[id])
		}
	}
}

// TestWorkerPoolDrainsBurst: four goroutines calling RunNext at once
// drain a burst with every job executed exactly once.
func TestWorkerPoolDrainsBurst(t *testing.T) {
	var executed atomic.Int64
	q := newTestQueue(t, func(x int) (int, error) {
		executed.Add(1)
		return x * 2, nil
	}, Options[int, int]{Capacity: 256})
	var jobs []*Job[int, int]
	for i := 0; i < 100; i++ {
		j, err := q.Submit(i)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q.RunNext() {
			}
		}()
	}
	wg.Wait()
	for _, j := range jobs {
		select {
		case <-j.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("job %s never finished", j.ID)
		}
	}
	q.Close()
	if executed.Load() != 100 {
		t.Errorf("executed %d jobs, want 100", executed.Load())
	}
	for i, j := range jobs {
		if state, res, _ := j.Peek(); state != Done || res != 2*i {
			t.Errorf("job %d = %v %d", i, state, res)
		}
	}
	s := q.Stats()
	if s.Completed != 100 || s.Pending != 0 || s.Running != 0 {
		t.Errorf("stats = %+v", s)
	}
}

// TestSingleWorkerCompletesInFIFOOrder: a queue scheduled by a
// one-worker pool completes its jobs in submission order.
func TestSingleWorkerCompletesInFIFOOrder(t *testing.T) {
	var mu sync.Mutex
	var order []int
	q := newTestQueue(t, func(x int) (int, error) {
		mu.Lock()
		order = append(order, x)
		mu.Unlock()
		return x, nil
	}, Options[int, int]{})
	p := NewPool(PoolOptions{Workers: 1})
	if err := p.Register("q", q, 1, 1); err != nil {
		t.Fatal(err)
	}
	jobs := submitN(t, p, q, "q", 50)
	<-jobs[len(jobs)-1].Done()
	q.CloseIntake()
	p.Close()
	q.Close()
	mu.Lock()
	defer mu.Unlock()
	for i, x := range order {
		if x != i {
			t.Fatalf("single-worker completion order = %v, want FIFO", order)
		}
	}
}

// TestCloseDrainFIFOWithWorker is the shutdown-ordering regression test:
// once CloseIntake has handed the drain to the pool, Close must not race
// the pool's worker with a second drainer on the closing goroutine, so
// completion order stays FIFO even for jobs that were still pending when
// shutdown began.
func TestCloseDrainFIFOWithWorker(t *testing.T) {
	var mu sync.Mutex
	var order []int
	q := newTestQueue(t, func(x int) (int, error) {
		mu.Lock()
		order = append(order, x)
		mu.Unlock()
		return x, nil
	}, Options[int, int]{Capacity: 256})
	p := NewPool(PoolOptions{Workers: 1})
	if err := p.Register("q", q, 1, 1); err != nil {
		t.Fatal(err)
	}
	jobs := submitN(t, p, q, "q", 50)
	// Most jobs are still pending here. With intake already closed, Close
	// must leave them to the pool; the pool's Close drains them.
	q.CloseIntake()
	q.Close()
	p.Close()
	for _, j := range jobs {
		if state, _, _ := j.Peek(); state != Done {
			t.Fatalf("job %s not done after pool Close: %v", j.ID, state)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for i, x := range order {
		if x != i {
			t.Fatalf("post-Close completion order = %v, want FIFO", order)
		}
	}
}

func TestTerminalJobEviction(t *testing.T) {
	q := newTestQueue(t, func(x int) (int, error) { return x, nil }, Options[int, int]{Retain: 3})
	var ids []string
	for i := 0; i < 8; i++ {
		j, err := q.Submit(i)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
		q.RunNext()
	}
	for i, id := range ids {
		_, ok := q.Job(id)
		if wantRetained := i >= 5; ok != wantRetained {
			t.Errorf("job %s retained = %v, want %v", id, ok, wantRetained)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options[int, int]{}); err == nil {
		t.Error("nil executor should fail")
	}
	exec := byReq(func(int) (int, error) { return 0, nil })
	for _, opts := range []Options[int, int]{
		{Exec: exec, Capacity: -1},
		{Exec: exec, Retain: -1},
		{Exec: exec, StartSeq: -1},
	} {
		if _, err := New(opts); err == nil {
			t.Errorf("negative option accepted: %+v", opts)
		}
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Queued: "queued", Running: "running", Done: "done", Failed: "failed"} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if !Done.Terminal() || !Failed.Terminal() || Queued.Terminal() || Running.Terminal() {
		t.Error("Terminal() classification wrong")
	}
	if fmt.Sprint(State(9)) != "State(9)" {
		t.Errorf("unknown state string = %q", fmt.Sprint(State(9)))
	}
}

// TestAbandonFailsBacklogWithoutHooks: Abandon fails every queued job
// with ErrCanceled — waking their waiters and firing OnFinish — without
// invoking the OnCancel durability hook, and leaves terminal jobs alone.
func TestAbandonFailsBacklogWithoutHooks(t *testing.T) {
	var finished, canceledHook int
	q := newTestQueue(t, func(x int) (int, error) { return x, nil }, Options[int, int]{
		OnFinish: func(*Job[int, int]) { finished++ },
		OnCancel: func(*Job[int, int]) error { canceledHook++; return nil },
	})
	done, err := q.Submit(1)
	if err != nil {
		t.Fatal(err)
	}
	if !q.RunNext() {
		t.Fatal("RunNext found no job")
	}
	finished = 0
	var pending []*Job[int, int]
	for i := 0; i < 3; i++ {
		j, err := q.Submit(10 + i)
		if err != nil {
			t.Fatal(err)
		}
		pending = append(pending, j)
	}
	if got := q.Abandon(); got != 3 {
		t.Fatalf("Abandon = %d, want 3", got)
	}
	for _, j := range pending {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %s still not terminal after Abandon", j.ID)
		}
		if _, err := j.Result(); !errors.Is(err, ErrCanceled) {
			t.Errorf("job %s error = %v, want ErrCanceled", j.ID, err)
		}
	}
	if canceledHook != 0 {
		t.Errorf("OnCancel hook ran %d times during Abandon", canceledHook)
	}
	if finished != 3 {
		t.Errorf("OnFinish ran %d times, want 3", finished)
	}
	if st, _, _ := done.Peek(); st != Done {
		t.Errorf("already-finished job state = %v after Abandon", st)
	}
	st := q.Stats()
	if st.Canceled != 3 || st.Pending != 0 {
		t.Errorf("stats after Abandon = %+v", st)
	}
	if q.Abandon() != 0 {
		t.Error("second Abandon found jobs")
	}
	q.Close()
}
