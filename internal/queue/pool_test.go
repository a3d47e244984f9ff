package queue

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// poolQueue builds a queue the pool drives, with an injected clock
// shared across queues so queue waits are comparable.
func poolQueue(t *testing.T, clock Clock) *Queue[int, int] {
	t.Helper()
	return newTestQueue(t, func(x int) (int, error) { return x, nil }, Options[int, int]{
		Capacity: 20000,
		Retain:   20000,
		Clock:    clock,
	})
}

// submitN submits n jobs and kicks the pool for each, returning the job
// handles in submission order.
func submitN(t *testing.T, p *Pool, q *Queue[int, int], id string, n int) []*Job[int, int] {
	t.Helper()
	jobs := make([]*Job[int, int], 0, n)
	for i := 0; i < n; i++ {
		j, err := q.Submit(i)
		if err != nil {
			t.Fatalf("%s submit %d: %v", id, i, err)
		}
		p.Kick(id)
		jobs = append(jobs, j)
	}
	return jobs
}

// TestPoolWeightedRoundRobinShares pins the smooth-WRR cadence: with
// weights 1:1:4 and every source backlogged, any window of 6 consecutive
// picks serves each source exactly its weight.
func TestPoolWeightedRoundRobinShares(t *testing.T) {
	var now int64
	clock := func() int64 { return now }
	p := NewPool(PoolOptions{Manual: true})
	qa, qb, qc := poolQueue(t, clock), poolQueue(t, clock), poolQueue(t, clock)
	if err := p.Register("a", qa, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("b", qb, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("c", qc, 4, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("a", qa, 1, 1); err == nil {
		t.Fatal("duplicate registration should fail")
	}
	submitN(t, p, qa, "a", 60)
	submitN(t, p, qb, "b", 60)
	submitN(t, p, qc, "c", 60)
	for i := 0; i < 60; i++ {
		if !p.RunOne() {
			t.Fatalf("RunOne ran dry at pick %d", i)
		}
	}
	st := p.Stats()
	got := map[string]uint64{}
	for _, s := range st.Sources {
		got[s.ID] = s.Picks
	}
	// 60 picks = 10 full WRR rounds of total weight 6.
	if got["a"] != 10 || got["b"] != 10 || got["c"] != 40 {
		t.Fatalf("picks a=%d b=%d c=%d, want 10/10/40", got["a"], got["b"], got["c"])
	}
}

// TestPoolFairnessUnderFlood is the fairness property the multi-tenant
// scheduler exists for: a tenant flooding 10k jobs cannot push another
// tenant's p50 queue wait beyond its weight share. Weights are 1:1:4;
// the logical clock ticks once per executed job, so a job's wait is the
// number of scheduling decisions made before its turn.
func TestPoolFairnessUnderFlood(t *testing.T) {
	var now int64
	clock := func() int64 { return now }
	p := NewPool(PoolOptions{Manual: true})
	flood, qb, qc := poolQueue(t, clock), poolQueue(t, clock), poolQueue(t, clock)
	if err := p.Register("flood", flood, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("b", qb, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("c", qc, 4, 1); err != nil {
		t.Fatal(err)
	}
	const floodN, smallN = 10000, 100
	// The noisy tenant floods first, so FIFO-across-tenants would make b
	// and c wait out all 10k flood jobs.
	floodJobs := submitN(t, p, flood, "flood", floodN)
	bJobs := submitN(t, p, qb, "b", smallN)
	cJobs := submitN(t, p, qc, "c", smallN)
	total := floodN + 2*smallN
	for i := 0; i < total; i++ {
		now++
		if !p.RunOne() {
			t.Fatalf("RunOne ran dry at pick %d", i)
		}
	}
	p50 := func(jobs []*Job[int, int]) int64 {
		waits := make([]int64, len(jobs))
		for i, j := range jobs {
			st := j.Snapshot()
			if st.State != Done {
				t.Fatalf("job %s not done: %v", j.ID, st.State)
			}
			waits[i] = st.StartedAt - st.EnqueuedAt
		}
		// Waits are monotone in submission order within one queue (FIFO),
		// so the median is the middle element.
		return waits[len(waits)/2]
	}
	// Weight shares: while all three tenants are backlogged, each WRR
	// round of 6 picks serves b once and c four times. b's median (50th)
	// job therefore starts by ~50 rounds = 300 ticks, c's by ~13 rounds.
	// Allow one round of slack; the point is the bound scales with the
	// weight share, not with the 10k-job flood.
	if got, bound := p50(bJobs), int64(6*(smallN/2)+6); got > bound {
		t.Errorf("tenant b p50 wait = %d ticks, weight-share bound %d", got, bound)
	}
	if got, bound := p50(cJobs), int64(6*(smallN/2)/4+6); got > bound {
		t.Errorf("tenant c p50 wait = %d ticks, weight-share bound %d", got, bound)
	}
	// The flood is not starved either: once b and c drain, every pick is
	// the flood's, and all 10k jobs complete.
	if st := floodJobs[floodN-1].Snapshot(); st.State != Done {
		t.Errorf("flood tail job state = %v, want Done", st.State)
	}
	st := p.Stats()
	for _, s := range st.Sources {
		if s.Pending != 0 || s.Inflight != 0 {
			t.Errorf("source %s left pending=%d inflight=%d", s.ID, s.Pending, s.Inflight)
		}
	}
}

// TestPoolUnkickAfterCancel keeps the scheduler's pending counts exact
// across cancellations: a canceled job's kick is taken back, so the
// scheduler doesn't spin a no-op pick.
func TestPoolUnkickAfterCancel(t *testing.T) {
	p := NewPool(PoolOptions{Manual: true})
	q := poolQueue(t, nil)
	if err := p.Register("x", q, 1, 1); err != nil {
		t.Fatal(err)
	}
	jobs := submitN(t, p, q, "x", 2)
	if _, err := q.Cancel(jobs[0].ID); err != nil {
		t.Fatal(err)
	}
	p.Unkick("x")
	if !p.RunOne() {
		t.Fatal("one job should remain schedulable")
	}
	if p.RunOne() {
		t.Fatal("pool should be drained")
	}
	if st := jobs[1].Snapshot(); st.State != Done {
		t.Fatalf("surviving job state = %v", st.State)
	}
}

// TestPoolProductionDrainAndClose exercises the background workers: a
// burst across two sources is fully drained by Close, and in-flight caps
// are never exceeded.
func TestPoolProductionDrainAndClose(t *testing.T) {
	var inflight, maxSeen atomic.Int64
	exec := func(x int) (int, error) {
		cur := inflight.Add(1)
		for {
			prev := maxSeen.Load()
			if cur <= prev || maxSeen.CompareAndSwap(prev, cur) {
				break
			}
		}
		time.Sleep(50 * time.Microsecond)
		inflight.Add(-1)
		return x, nil
	}
	newQ := func() *Queue[int, int] {
		return newTestQueue(t, exec, Options[int, int]{Capacity: 1000, Retain: 1000})
	}
	p := NewPool(PoolOptions{Workers: 4})
	qa, qb := newQ(), newQ()
	if err := p.Register("a", qa, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("b", qb, 2, 1); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var jobsMu sync.Mutex
	var jobs []*Job[int, int]
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q, id := qa, "a"
			if g%2 == 1 {
				q, id = qb, "b"
			}
			for i := 0; i < 50; i++ {
				j, err := q.Submit(i)
				if err != nil {
					t.Error(err)
					return
				}
				p.Kick(id)
				jobsMu.Lock()
				jobs = append(jobs, j)
				jobsMu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	qa.CloseIntake()
	qb.CloseIntake()
	p.Close()
	for _, j := range jobs {
		if st := j.Snapshot(); st.State != Done {
			t.Fatalf("job %s state = %v after Close", j.ID, st.State)
		}
	}
	// Two sources with cap 1 each: never more than 2 jobs in flight.
	if maxSeen.Load() > 2 {
		t.Errorf("max in-flight = %d, caps allow 2", maxSeen.Load())
	}
	p.Close() // idempotent
}

// TestPoolUnregisterWaitsForInflight: Unregister returns only after the
// source's running job finished, so tearing the source down is safe.
func TestPoolUnregisterWaitsForInflight(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	var finished atomic.Bool
	q := newTestQueue(t, func(x int) (int, error) {
		started <- struct{}{}
		<-block
		finished.Store(true)
		return x, nil
	}, Options[int, int]{})
	p := NewPool(PoolOptions{Workers: 1})
	if err := p.Register("x", q, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Submit(1); err != nil {
		t.Fatal(err)
	}
	p.Kick("x")
	<-started
	done := make(chan struct{})
	go func() {
		p.Unregister("x")
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Unregister returned while the job was still running")
	case <-time.After(10 * time.Millisecond):
	}
	close(block)
	<-done
	if !finished.Load() {
		t.Fatal("Unregister returned before the job finished")
	}
	p.Unregister("x") // unknown ID: no-op
	q.CloseIntake()
	p.Close()
}
