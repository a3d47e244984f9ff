package notify

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"github.com/easeml/ci/internal/resilience"
)

// fakeClock is a settable clock for the manual harness.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// flakyNotifier fails the first failN sends to each To, then succeeds.
type flakyNotifier struct {
	mu       sync.Mutex
	failN    int
	attempts map[string]int
	sent     []Notification
}

func (f *flakyNotifier) Send(n Notification) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.attempts == nil {
		f.attempts = make(map[string]int)
	}
	f.attempts[n.To]++
	if f.attempts[n.To] <= f.failN {
		return fmt.Errorf("flaky: attempt %d refused", f.attempts[n.To])
	}
	f.sent = append(f.sent, n)
	return nil
}

func (f *flakyNotifier) delivered() []Notification {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Notification, len(f.sent))
	copy(out, f.sent)
	return out
}

// manualReliable builds a deterministic manual-mode deliverer.
func manualReliable(base Notifier, clock *fakeClock, policy RetryPolicy, onOutcome func(Notification, bool, int, error)) *Reliable {
	return NewReliable(base, ReliableOptions{
		Policy:    policy,
		Clock:     clock.Now,
		Jitter:    func() float64 { return 0 }, // no jitter: exact schedule
		Manual:    true,
		OnOutcome: onOutcome,
	})
}

// drive advances the fake clock to each next-due task and runs it, up to
// maxSteps, returning how many attempts ran.
func drive(r *Reliable, clock *fakeClock, maxSteps int) int {
	steps := 0
	for steps < maxSteps {
		due, ok := r.NextDue()
		if !ok {
			return steps
		}
		if due.After(clock.Now()) {
			clock.Advance(due.Sub(clock.Now()))
		}
		if !r.RunDue() {
			return steps
		}
		steps++
	}
	return steps
}

// TestFlakyReceiverDeliveredExactlyOnce is the acceptance scenario: a
// subscriber that fails 3 times is delivered exactly once after backoff.
func TestFlakyReceiverDeliveredExactlyOnce(t *testing.T) {
	clock := newFakeClock()
	flaky := &flakyNotifier{failN: 3}
	var outcomes []bool
	r := manualReliable(flaky, clock, RetryPolicy{MaxAttempts: 5, Backoff: time.Second, MaxBackoff: time.Minute},
		func(n Notification, delivered bool, attempts int, err error) {
			outcomes = append(outcomes, delivered)
			if delivered && attempts != 4 {
				t.Errorf("delivered after %d attempts, want 4", attempts)
			}
		})
	if err := r.Send(Notification{Kind: KindWebhook, To: "http://sub", Body: "payload"}); err != nil {
		t.Fatal(err)
	}
	if got := drive(r, clock, 100); got != 4 {
		t.Fatalf("ran %d attempts, want 4", got)
	}
	if d := flaky.delivered(); len(d) != 1 || d[0].Body != "payload" {
		t.Fatalf("delivered %v, want exactly one", d)
	}
	if len(outcomes) != 1 || !outcomes[0] {
		t.Fatalf("outcomes = %v", outcomes)
	}
	st := r.Stats()
	if st.Attempts != 4 || st.Delivered != 1 || st.Retries != 3 || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	r.Close()
}

// TestBackoffScheduleExponential pins the exact (jitter-free) schedule:
// base, 2*base, 4*base, capped.
func TestBackoffScheduleExponential(t *testing.T) {
	clock := newFakeClock()
	start := clock.Now()
	flaky := &flakyNotifier{failN: 100} // never succeeds
	r := manualReliable(flaky, clock, RetryPolicy{
		MaxAttempts: 4, Backoff: time.Second, MaxBackoff: 3 * time.Second,
		Breaker: resilience.BreakerOptions{FailureThreshold: -1},
	}, nil)
	r.Send(Notification{Kind: KindWebhook, To: "http://sub"})
	wantDelays := []time.Duration{0, time.Second, 3 * time.Second, 6 * time.Second} // cumulative: 2^k capped at 3s
	for i, want := range wantDelays {
		due, ok := r.NextDue()
		if !ok {
			t.Fatalf("step %d: nothing scheduled", i)
		}
		if got := due.Sub(start); got != want {
			t.Fatalf("step %d scheduled at +%v, want +%v", i, got, want)
		}
		clock.Advance(due.Sub(clock.Now()))
		if !r.RunDue() {
			t.Fatalf("step %d: RunDue found nothing", i)
		}
	}
	if _, ok := r.NextDue(); ok {
		t.Fatal("task still scheduled after exhausting attempts")
	}
	if st := r.Stats(); st.Failed != 1 || st.Attempts != 4 {
		t.Fatalf("stats = %+v", st)
	}
	r.Close()
}

func TestJitterStretchesBackoff(t *testing.T) {
	clock := newFakeClock()
	flaky := &flakyNotifier{failN: 100}
	r := NewReliable(flaky, ReliableOptions{
		Policy: RetryPolicy{MaxAttempts: 2, Backoff: time.Second, Breaker: resilience.BreakerOptions{FailureThreshold: -1}},
		Clock:  clock.Now,
		Jitter: func() float64 { return 0.5 },
		Manual: true,
	})
	r.Send(Notification{Kind: KindWebhook, To: "http://sub"})
	r.RunDue()
	due, ok := r.NextDue()
	if !ok {
		t.Fatal("no retry scheduled")
	}
	if got := due.Sub(clock.Now()); got != 1500*time.Millisecond {
		t.Fatalf("jittered backoff = %v, want 1.5s", got)
	}
	r.Close()
}

// TestBreakerLifecycle walks closed -> open -> half-open -> closed.
func TestBreakerLifecycle(t *testing.T) {
	clock := newFakeClock()
	flaky := &flakyNotifier{failN: 3}
	policy := RetryPolicy{
		MaxAttempts: 10, Backoff: time.Second, MaxBackoff: time.Second,
		Breaker: resilience.BreakerOptions{FailureThreshold: 2, Cooldown: time.Minute},
	}
	r := manualReliable(flaky, clock, policy, nil)
	r.Send(Notification{Kind: KindWebhook, To: "http://sub"})

	// Attempts 1 and 2 fail -> breaker opens.
	drive(r, clock, 2)
	st := r.Stats()
	b := st.Breakers["http://sub"]
	if b.State != "open" || b.ConsecutiveFailures != 2 || b.Opens != 1 {
		t.Fatalf("after 2 failures: breaker = %+v", b)
	}

	// The next wakeup short-circuits (cooldown not elapsed) and
	// reschedules at the cooldown expiry without consuming an attempt.
	due, _ := r.NextDue()
	clock.Advance(due.Sub(clock.Now()))
	r.RunDue()
	st = r.Stats()
	if st.ShortCircuited != 1 || st.Attempts != 2 {
		t.Fatalf("short-circuit: stats = %+v", st)
	}

	// At cooldown expiry the breaker half-opens; the probe (attempt 3)
	// still fails -> re-opens.
	drive(r, clock, 1)
	st = r.Stats()
	if b := st.Breakers["http://sub"]; b.State != "open" || b.Opens != 2 {
		t.Fatalf("failed probe: breaker = %+v", b)
	}

	// Next probe succeeds -> breaker closes, task delivered.
	drive(r, clock, 5)
	st = r.Stats()
	if b := st.Breakers["http://sub"]; b.State != "closed" || b.ConsecutiveFailures != 0 {
		t.Fatalf("after recovery: breaker = %+v", b)
	}
	if st.Delivered != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if len(flaky.delivered()) != 1 {
		t.Fatal("not delivered exactly once")
	}
	r.Close()
}

// TestBreakerIsolatesSubscribers: one subscriber's failures must not
// block another's deliveries.
func TestBreakerIsolatesSubscribers(t *testing.T) {
	clock := newFakeClock()
	flaky := &flakyNotifier{failN: 0}
	bad := &flakyNotifier{failN: 100}
	split := notifierFunc(func(n Notification) error {
		if n.To == "http://bad" {
			return bad.Send(n)
		}
		return flaky.Send(n)
	})
	r := manualReliable(split, clock, RetryPolicy{
		MaxAttempts: 3, Backoff: time.Second,
		Breaker: resilience.BreakerOptions{FailureThreshold: 1, Cooldown: time.Hour},
	}, nil)
	r.Send(Notification{Kind: KindWebhook, To: "http://bad"})
	r.Send(Notification{Kind: KindWebhook, To: "http://good"})
	drive(r, clock, 10)
	if len(flaky.delivered()) != 1 {
		t.Fatalf("good subscriber got %d deliveries, want 1", len(flaky.delivered()))
	}
	st := r.Stats()
	if st.Breakers["http://bad"].State != "open" {
		t.Fatalf("bad breaker = %+v", st.Breakers["http://bad"])
	}
	if st.Breakers["http://good"].State != "closed" {
		t.Fatalf("good breaker = %+v", st.Breakers["http://good"])
	}
	r.Close()
}

type notifierFunc func(Notification) error

func (f notifierFunc) Send(n Notification) error { return f(n) }

// TestCloseDrainsFirstAttemptsAbandonsRetries: Close must deliver queued
// first attempts but abandon mid-backoff retries without an outcome (the
// durable server redelivers those after restart).
func TestCloseDrainsFirstAttemptsAbandonsRetries(t *testing.T) {
	clock := newFakeClock()
	flaky := &flakyNotifier{failN: 100}
	outcomes := 0
	r := manualReliable(flaky, clock, RetryPolicy{MaxAttempts: 5, Backoff: time.Hour},
		func(Notification, bool, int, error) { outcomes++ })
	r.Send(Notification{Kind: KindWebhook, To: "http://sub", Subject: "retrying"})
	r.RunDue() // first attempt fails; retry scheduled an hour out
	ok := &flakyNotifier{failN: 0}
	r2 := manualReliable(ok, clock, RetryPolicy{}, func(n Notification, d bool, a int, e error) {
		if !d {
			t.Error("first-attempt drain should deliver")
		}
		outcomes++
	})
	r2.Send(Notification{Kind: KindWebhook, To: "http://sub2", Subject: "fresh"})
	r.Close()
	r2.Close()
	if st := r.Stats(); st.Abandoned != 1 {
		t.Fatalf("retrying task: stats = %+v", st)
	}
	if len(ok.delivered()) != 1 {
		t.Fatal("fresh task not delivered at Close")
	}
	if outcomes != 1 {
		t.Fatalf("outcomes = %d, want 1 (abandoned task gets none)", outcomes)
	}
}

func TestSendAfterCloseDeliversInline(t *testing.T) {
	clock := newFakeClock()
	ok := &flakyNotifier{failN: 0}
	r := manualReliable(ok, clock, RetryPolicy{}, nil)
	r.Close()
	if err := r.Send(Notification{Kind: KindWebhook, To: "http://sub"}); err != nil {
		t.Fatal(err)
	}
	if len(ok.delivered()) != 1 {
		t.Fatal("post-Close send not delivered inline")
	}
}

// TestBackgroundFlakyDelivery runs the real background worker against a
// flaky HTTP receiver with tiny backoffs.
func TestBackgroundFlakyDelivery(t *testing.T) {
	var mu sync.Mutex
	hits := 0
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		mu.Lock()
		hits++
		n := hits
		mu.Unlock()
		if n <= 3 {
			http.Error(w, "not yet", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	done := make(chan struct{})
	r := NewReliable(NewHTTPPoster(nil), ReliableOptions{
		Policy: RetryPolicy{MaxAttempts: 6, Backoff: 2 * time.Millisecond, MaxBackoff: 10 * time.Millisecond},
		OnOutcome: func(n Notification, delivered bool, attempts int, err error) {
			if !delivered || attempts != 4 {
				t.Errorf("delivered=%v attempts=%d err=%v", delivered, attempts, err)
			}
			close(done)
		},
	})
	defer r.Close()
	if err := r.Send(Notification{Kind: KindWebhook, To: srv.URL, Body: `{"x":1}`}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for delivery")
	}
	mu.Lock()
	defer mu.Unlock()
	if hits != 4 {
		t.Fatalf("receiver saw %d posts, want 4 (3 failures + 1 success)", hits)
	}
}

func TestHTTPPosterRequestTimeout(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)
	p := NewHTTPPosterTimeout(nil, 30*time.Millisecond)
	start := time.Now()
	err := p.Send(Notification{Kind: KindWebhook, To: srv.URL, Body: "{}"})
	if err == nil {
		t.Fatal("hung subscriber did not time out")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatalf("timeout took %v", time.Since(start))
	}
}

func TestHTTPPosterSendContextCancel(t *testing.T) {
	release := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		<-release
	}))
	defer srv.Close()
	defer close(release)
	p := NewHTTPPoster(nil)
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	if err := p.SendContext(ctx, Notification{Kind: KindWebhook, To: srv.URL}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPerKindLatencyStats(t *testing.T) {
	clock := newFakeClock()
	slow := notifierFunc(func(Notification) error {
		clock.Advance(5 * time.Millisecond) // the "wire time" under the fake clock
		return nil
	})
	r := manualReliable(slow, clock, RetryPolicy{}, nil)
	r.Send(Notification{Kind: KindWebhook, To: "http://sub"})
	r.Send(Notification{Kind: KindAlarm, To: "team"})
	drive(r, clock, 10)
	st := r.Stats()
	wh := st.PerKind["webhook"]
	if wh.Attempts != 1 || wh.Delivered != 1 || wh.NsTotal != uint64(5*time.Millisecond) {
		t.Fatalf("webhook kind stats = %+v", wh)
	}
	if st.PerKind["alarm"].Attempts != 1 {
		t.Fatalf("alarm kind stats = %+v", st.PerKind["alarm"])
	}
	r.Close()
}

// hintingNotifier refuses the first failN sends with a 429 carrying a
// Retry-After hint, then succeeds.
type hintingNotifier struct {
	mu       sync.Mutex
	failN    int
	retryIn  time.Duration
	attempts int
}

func (h *hintingNotifier) Send(n Notification) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.attempts++
	if h.attempts <= h.failN {
		return &StatusError{
			URL: n.To, StatusCode: http.StatusTooManyRequests, Status: "429 Too Many Requests",
			RetryIn: h.retryIn, HasRetryIn: true,
		}
	}
	return nil
}

// TestRetryAfterOverridesBackoff: a subscriber's Retry-After hint sets
// the next attempt verbatim — no exponential backoff, no jitter; the
// peer picked the time.
func TestRetryAfterOverridesBackoff(t *testing.T) {
	clock := newFakeClock()
	start := clock.Now()
	hinting := &hintingNotifier{failN: 2, retryIn: 42 * time.Second}
	r := manualReliable(hinting, clock, RetryPolicy{
		MaxAttempts: 4, Backoff: time.Second, MaxBackoff: 3 * time.Second,
		Breaker: resilience.BreakerOptions{FailureThreshold: -1},
	}, nil)
	r.Send(Notification{Kind: KindWebhook, To: "http://sub"})
	// Backoff alone would schedule +1s then +3s; the hint says +42s both
	// times.
	wantDelays := []time.Duration{0, 42 * time.Second, 84 * time.Second}
	for i, want := range wantDelays {
		due, ok := r.NextDue()
		if !ok {
			t.Fatalf("step %d: nothing scheduled", i)
		}
		if got := due.Sub(start); got != want {
			t.Fatalf("step %d scheduled at +%v, want +%v", i, got, want)
		}
		clock.Advance(due.Sub(clock.Now()))
		if !r.RunDue() {
			t.Fatalf("step %d: RunDue found nothing", i)
		}
	}
	if st := r.Stats(); st.Delivered != 1 || st.Attempts != 3 || st.Retries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	r.Close()
}
