package notify

import (
	"container/heap"
	"math/rand"
	"sync"
	"time"

	"github.com/easeml/ci/internal/resilience"
)

// RetryPolicy tunes reliable delivery. The zero value means the defaults.
type RetryPolicy struct {
	// MaxAttempts bounds deliveries per notification (first attempt
	// included). 0 means DefaultMaxAttempts.
	MaxAttempts int
	// Backoff is the delay before the second attempt; each further retry
	// doubles it, capped at MaxBackoff, then stretched by up to 2x of
	// multiplicative jitter so a burst of failures doesn't re-fire in
	// lockstep. Zeros mean DefaultBackoff / DefaultMaxBackoff.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Breaker tunes the per-subscriber circuit breakers.
	Breaker resilience.BreakerOptions
}

// Retry defaults.
const (
	DefaultMaxAttempts = 5
	DefaultBackoff     = 250 * time.Millisecond
	DefaultMaxBackoff  = 30 * time.Second
)

// ReliableOptions configures a Reliable deliverer.
type ReliableOptions struct {
	Policy RetryPolicy
	// Clock supplies the current time (tests inject a fake); nil means
	// time.Now. Backoff scheduling and latency measurement both use it.
	Clock func() time.Time
	// Jitter returns a value in [0,1) used to stretch backoff delays;
	// nil means math/rand. Tests inject a constant for determinism.
	Jitter func() float64
	// Manual disables the background worker; delivery happens only when
	// the caller invokes RunDue. This is the deterministic test harness,
	// mirroring the commit queue's manual mode.
	Manual bool
	// OnOutcome, when set, is called once per notification that reaches a
	// terminal outcome: delivered, or failed with its attempts exhausted.
	// Notifications abandoned mid-backoff by Close do NOT get an outcome —
	// for the durable server that absence is exactly what schedules
	// redelivery after restart. Runs without the Reliable lock held.
	OnOutcome func(n Notification, delivered bool, attempts int, err error)
}

// KindRetryStats aggregates delivery work for one notification kind.
type KindRetryStats struct {
	Attempts  uint64 `json:"attempts"`
	Delivered uint64 `json:"delivered"`
	// NsTotal is cumulative wall time inside the underlying Send, so
	// NsTotal/Attempts is the per-kind delivery latency.
	NsTotal uint64 `json:"ns_total"`
}

// RetryStats is the deliverer's counter snapshot for the metrics API.
type RetryStats struct {
	Enqueued  uint64 `json:"enqueued"`
	Attempts  uint64 `json:"attempts"`
	Delivered uint64 `json:"delivered"`
	// Failed counts notifications whose attempts were exhausted.
	Failed uint64 `json:"failed"`
	// Retries counts rescheduled attempts after a failure.
	Retries uint64 `json:"retries"`
	// Abandoned counts notifications dropped by Close while waiting out a
	// backoff (a durable server redelivers them on restart).
	Abandoned uint64 `json:"abandoned"`
	// ShortCircuited counts attempts skipped because the subscriber's
	// breaker was open.
	ShortCircuited uint64 `json:"short_circuited"`
	// Pending is the point-in-time scheduled backlog.
	Pending int `json:"pending"`
	// PerKind breaks attempts and latency down by notification kind.
	PerKind map[string]KindRetryStats `json:"per_kind,omitempty"`
	// Breakers reports each subscriber's circuit breaker.
	Breakers map[string]resilience.BreakerStatus `json:"breakers,omitempty"`
}

// task is one scheduled delivery.
type task struct {
	n        Notification
	attempts int
	due      time.Time
	seq      uint64 // FIFO tie-break for equal due times
	lastErr  error
}

// taskHeap is a min-heap by due time (then submission order).
type taskHeap []*task

func (h taskHeap) Len() int { return len(h) }
func (h taskHeap) Less(i, j int) bool {
	if h[i].due.Equal(h[j].due) {
		return h[i].seq < h[j].seq
	}
	return h[i].due.Before(h[j].due)
}
func (h taskHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *taskHeap) Push(x any)   { *h = append(*h, x.(*task)) }
func (h *taskHeap) Pop() any     { old := *h; n := len(old); t := old[n-1]; *h = old[:n-1]; return t }

// Reliable wraps a Notifier with a durable-delivery discipline: every
// Send is queued, attempted, and — on failure — retried with exponential
// backoff and jitter up to a bounded attempt count, behind a
// per-subscriber circuit breaker. Safe for concurrent use.
type Reliable struct {
	base Notifier
	opts ReliableOptions

	mu       sync.Mutex
	heap     taskHeap
	breakers map[string]*resilience.Breaker
	nextSeq  uint64
	closed   bool
	stats    RetryStats
	perKind  map[string]*KindRetryStats

	wake chan struct{}
	wg   sync.WaitGroup
}

// NewReliable wraps base. Callers must Close it to drain scheduled work.
func NewReliable(base Notifier, opts ReliableOptions) *Reliable {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.Jitter == nil {
		opts.Jitter = rand.Float64
	}
	r := &Reliable{
		base:     base,
		opts:     opts,
		breakers: make(map[string]*resilience.Breaker),
		perKind:  make(map[string]*KindRetryStats),
		wake:     make(chan struct{}, 1),
	}
	if !opts.Manual {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

func (r *Reliable) maxAttempts() int {
	if n := r.opts.Policy.MaxAttempts; n > 0 {
		return n
	}
	return DefaultMaxAttempts
}

// Send implements Notifier: it schedules the notification for immediate
// delivery and returns once queued (delivery is asynchronous; terminal
// outcomes surface through OnOutcome and the stats). After Close it
// falls back to one synchronous attempt, so late senders racing shutdown
// still deliver.
func (r *Reliable) Send(n Notification) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		_, err := r.attemptWire(n)
		r.finish(n, err == nil, 1, err)
		return err
	}
	r.stats.Enqueued++
	r.pushLocked(&task{n: n, due: r.opts.Clock()})
	r.mu.Unlock()
	r.signal()
	return nil
}

func (r *Reliable) pushLocked(t *task) {
	r.nextSeq++
	t.seq = r.nextSeq
	heap.Push(&r.heap, t)
}

func (r *Reliable) signal() {
	select {
	case r.wake <- struct{}{}:
	default:
	}
}

// worker is the background delivery loop: sleep until the earliest task
// is due (or a new task arrives), then attempt it.
func (r *Reliable) worker() {
	defer r.wg.Done()
	for {
		r.mu.Lock()
		if r.closed {
			r.drainLocked()
			r.mu.Unlock()
			return
		}
		if len(r.heap) == 0 {
			r.mu.Unlock()
			<-r.wake
			continue
		}
		now := r.opts.Clock()
		next := r.heap[0]
		if wait := next.due.Sub(now); wait > 0 {
			r.mu.Unlock()
			timer := time.NewTimer(wait)
			select {
			case <-r.wake:
				timer.Stop()
			case <-timer.C:
			}
			continue
		}
		t := heap.Pop(&r.heap).(*task)
		r.mu.Unlock()
		r.attempt(t)
	}
}

// RunDue attempts the earliest task whose due time has arrived (by the
// injected clock), returning false when nothing is due. Only meaningful
// with Options.Manual — it is the deterministic harness's drive wheel.
func (r *Reliable) RunDue() bool {
	r.mu.Lock()
	if len(r.heap) == 0 || r.heap[0].due.After(r.opts.Clock()) {
		r.mu.Unlock()
		return false
	}
	t := heap.Pop(&r.heap).(*task)
	r.mu.Unlock()
	r.attempt(t)
	return true
}

// NextDue returns the earliest scheduled time and whether any task is
// pending; a manual-mode test advances its fake clock past it.
func (r *Reliable) NextDue() (time.Time, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.heap) == 0 {
		return time.Time{}, false
	}
	return r.heap[0].due, true
}

// attempt runs one delivery attempt and reschedules or finishes the task.
func (r *Reliable) attempt(t *task) {
	r.mu.Lock()
	now := r.opts.Clock()
	b := r.breakerLocked(t.n.To)
	if b != nil {
		if ok, retryAt := b.Allow(now, r.opts.Policy.Breaker); !ok {
			// Short-circuit: reschedule for the cooldown expiry without
			// consuming one of the task's attempts.
			r.stats.ShortCircuited++
			t.due = retryAt
			r.pushLocked(t)
			r.mu.Unlock()
			r.signal()
			return
		}
	}
	r.mu.Unlock()

	elapsed, err := r.attemptWire(t.n)
	t.attempts++

	r.mu.Lock()
	now = r.opts.Clock()
	if b != nil {
		b.Record(err == nil, now, r.opts.Policy.Breaker)
	}
	r.recordAttemptLocked(t.n.Kind, err == nil, elapsed)
	if err == nil {
		r.mu.Unlock()
		r.finish(t.n, true, t.attempts, nil)
		return
	}
	t.lastErr = err
	if t.attempts >= r.maxAttempts() {
		r.stats.Failed++
		r.mu.Unlock()
		r.finish(t.n, false, t.attempts, err)
		return
	}
	r.stats.Retries++
	delay := r.backoff(t.attempts)
	if ra, ok := resilience.RetryAfterFromError(err); ok {
		// The subscriber said when to come back (429/503 Retry-After):
		// honor it verbatim instead of the computed backoff — no jitter,
		// the peer picked the time.
		delay = ra
	}
	t.due = now.Add(delay)
	r.pushLocked(t)
	r.mu.Unlock()
	r.signal()
}

// attemptWire performs one underlying Send, timing it with the injected
// clock.
func (r *Reliable) attemptWire(n Notification) (time.Duration, error) {
	start := r.opts.Clock()
	err := r.base.Send(n)
	return r.opts.Clock().Sub(start), err
}

func (r *Reliable) recordAttemptLocked(k Kind, delivered bool, elapsed time.Duration) {
	r.stats.Attempts++
	ks := r.perKind[k.String()]
	if ks == nil {
		ks = &KindRetryStats{}
		r.perKind[k.String()] = ks
	}
	ks.Attempts++
	if elapsed > 0 {
		ks.NsTotal += uint64(elapsed.Nanoseconds())
	}
	if delivered {
		r.stats.Delivered++
		ks.Delivered++
	}
}

// backoff computes the delay after the given number of failed attempts:
// base * 2^(attempts-1), capped, stretched by [1,2)x jitter.
func (r *Reliable) backoff(attempts int) time.Duration {
	base := r.opts.Policy.Backoff
	if base <= 0 {
		base = DefaultBackoff
	}
	max := r.opts.Policy.MaxBackoff
	if max <= 0 {
		max = DefaultMaxBackoff
	}
	d := resilience.Backoff(base, max, attempts)
	return d + time.Duration(float64(d)*r.opts.Jitter())
}

// breakerLocked returns (creating if needed) the subscriber's breaker,
// or nil when breakers are disabled.
func (r *Reliable) breakerLocked(to string) *resilience.Breaker {
	if r.opts.Policy.Breaker.FailureThreshold < 0 {
		return nil
	}
	b := r.breakers[to]
	if b == nil {
		b = &resilience.Breaker{}
		r.breakers[to] = b
	}
	return b
}

// finish reports a terminal outcome.
func (r *Reliable) finish(n Notification, delivered bool, attempts int, err error) {
	if r.opts.OnOutcome != nil {
		r.opts.OnOutcome(n, delivered, attempts, err)
	}
}

// drainLocked empties the schedule at Close: never-attempted tasks get
// one delivery attempt (an in-memory server must not lose first-time
// callbacks at shutdown), tasks already waiting out a backoff are
// abandoned — their missing terminal outcome is what makes a durable
// server redeliver them after restart. Called with the lock held;
// releases and reacquires it around wire attempts.
func (r *Reliable) drainLocked() {
	for len(r.heap) > 0 {
		t := heap.Pop(&r.heap).(*task)
		if t.attempts > 0 {
			r.stats.Abandoned++
			continue
		}
		r.mu.Unlock()
		elapsed, err := r.attemptWire(t.n)
		r.mu.Lock()
		if b := r.breakerLocked(t.n.To); b != nil {
			b.Record(err == nil, r.opts.Clock(), r.opts.Policy.Breaker)
		}
		r.recordAttemptLocked(t.n.Kind, err == nil, elapsed)
		if err == nil {
			r.mu.Unlock()
			r.finish(t.n, true, 1, nil)
			r.mu.Lock()
		} else {
			r.stats.Abandoned++
		}
	}
}

// Close stops the deliverer: scheduled first attempts are delivered,
// pending retries are abandoned, and Close returns once in-flight work
// has finished. Idempotent.
func (r *Reliable) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		r.wg.Wait()
		return
	}
	r.closed = true
	manual := r.opts.Manual
	if manual {
		r.drainLocked()
	}
	r.mu.Unlock()
	r.signal()
	r.wg.Wait()
}

// Stats snapshots the delivery counters and breaker states.
func (r *Reliable) Stats() RetryStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.stats
	s.Pending = len(r.heap)
	s.PerKind = make(map[string]KindRetryStats, len(r.perKind))
	for k, v := range r.perKind {
		s.PerKind[k] = *v
	}
	s.Breakers = make(map[string]resilience.BreakerStatus, len(r.breakers))
	for to, b := range r.breakers {
		s.Breakers[to] = b.Status()
	}
	return s
}
