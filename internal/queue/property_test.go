package queue

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// refModel is the single-goroutine reference semantics of the queue:
// a FIFO list of pending IDs plus bookkeeping of what was accepted,
// canceled, and executed. The property test replays a random op sequence
// against the real queue and this model in lockstep and
// requires them to agree on every observable.
type refModel struct {
	cap      int
	closed   bool
	pending  []string
	accepted []string
	canceled map[string]bool
	executed []string
	nextSeq  int
}

func (m *refModel) submit() (string, bool) {
	if m.closed || len(m.pending) >= m.cap {
		return "", false
	}
	m.nextSeq++
	id := "job-" + itoa(m.nextSeq)
	m.pending = append(m.pending, id)
	m.accepted = append(m.accepted, id)
	return id, true
}

func (m *refModel) cancel(id string) bool {
	for i, p := range m.pending {
		if p == id {
			m.pending = append(m.pending[:i], m.pending[i+1:]...)
			m.canceled[id] = true
			return true
		}
	}
	return false
}

func (m *refModel) runNext() (string, bool) {
	if len(m.pending) == 0 {
		return "", false
	}
	id := m.pending[0]
	m.pending = m.pending[1:]
	m.executed = append(m.executed, id)
	return id, true
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestQueueMatchesReferenceModel drives random bursts of submits,
// cancels, runs, and a shutdown against the single-caller queue and the reference model: FIFO completion order, no job lost, no
// job double-executed, and byte-for-byte agreement on accept/reject
// decisions.
func TestQueueMatchesReferenceModel(t *testing.T) {
	for trial := 0; trial < 60; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		capacity := 1 + rng.Intn(8)

		execCount := map[int]int{} // request payload -> times executed
		var execOrder []int
		q := newTestQueue(t, func(x int) (int, error) {
			execCount[x]++
			execOrder = append(execOrder, x)
			return x, nil
		}, Options[int, int]{Capacity: capacity})
		model := &refModel{cap: capacity, canceled: map[string]bool{}}
		jobs := map[string]*Job[int, int]{}
		payload := 0

		ops := 150 + rng.Intn(150)
		for op := 0; op < ops; op++ {
			switch k := rng.Intn(10); {
			case k < 5: // submit
				wantID, wantOK := model.submit()
				j, err := q.Submit(payload)
				if (err == nil) != wantOK {
					t.Fatalf("trial %d op %d: submit accepted=%v, model says %v (closed=%v pending=%d cap=%d)",
						trial, op, err == nil, wantOK, model.closed, len(model.pending), capacity)
				}
				if err == nil {
					if j.ID != wantID {
						t.Fatalf("trial %d: job ID %q, model expects %q", trial, j.ID, wantID)
					}
					jobs[j.ID] = j
					payload++
				} else if model.closed && !errors.Is(err, ErrClosed) {
					t.Fatalf("trial %d: closed submit error = %v", trial, err)
				} else if !model.closed && !errors.Is(err, ErrFull) {
					t.Fatalf("trial %d: full submit error = %v", trial, err)
				}
			case k < 7: // cancel a random known job (any state)
				if len(model.accepted) == 0 {
					continue
				}
				id := model.accepted[rng.Intn(len(model.accepted))]
				wantOK := model.cancel(id)
				_, err := q.Cancel(id)
				if (err == nil) != wantOK {
					t.Fatalf("trial %d op %d: cancel(%s) err=%v, model cancelable=%v", trial, op, id, err, wantOK)
				}
			case k < 9: // run the FIFO head
				wantID, wantOK := model.runNext()
				ran := q.RunNext()
				if ran != wantOK {
					t.Fatalf("trial %d op %d: RunNext=%v, model says %v", trial, op, ran, wantOK)
				}
				if ran {
					if state, _, _ := jobs[wantID].Peek(); state != Done {
						t.Fatalf("trial %d: executed job %s state = %v", trial, wantID, state)
					}
				}
			default: // close once, mid-sequence: drains everything pending
				if model.closed {
					continue
				}
				model.closed = true
				for {
					if _, ok := model.runNext(); !ok {
						break
					}
				}
				q.Close()
			}
		}
		// Final drain so every accepted job is terminal in both worlds.
		if !model.closed {
			model.closed = true
			for {
				if _, ok := model.runNext(); !ok {
					break
				}
			}
			q.Close()
		}

		// No job lost: every accepted job reached exactly one terminal
		// state, and it is the state the model predicts.
		for _, id := range model.accepted {
			j := jobs[id]
			state, _, jerr := j.Peek()
			switch {
			case model.canceled[id]:
				if state != Failed || !errors.Is(jerr, ErrCanceled) {
					t.Fatalf("trial %d: job %s = %v %v, model says canceled", trial, id, state, jerr)
				}
			default:
				if state != Done {
					t.Fatalf("trial %d: job %s = %v, model says executed", trial, id, state)
				}
			}
		}
		// No double execution, and execution order is exactly the model's
		// FIFO order.
		for x, c := range execCount {
			if c != 1 {
				t.Fatalf("trial %d: payload %d executed %d times", trial, x, c)
			}
		}
		if len(execOrder) != len(model.executed) {
			t.Fatalf("trial %d: executed %d jobs, model executed %d", trial, len(execOrder), len(model.executed))
		}
		for i, x := range execOrder {
			if want := jobs[model.executed[i]].Req; x != want {
				t.Fatalf("trial %d: execution[%d] = payload %d, model says %d", trial, i, x, want)
			}
		}
		// Counter bookkeeping agrees with the model.
		s := q.Stats()
		if int(s.Submitted) != len(model.accepted) || int(s.Canceled) != len(model.canceled) ||
			int(s.Completed) != len(model.executed) || s.Pending != 0 || s.Running != 0 {
			t.Fatalf("trial %d: stats %+v vs model accepted=%d canceled=%d executed=%d",
				trial, s, len(model.accepted), len(model.canceled), len(model.executed))
		}
	}
}

// TestQueueConcurrentNoJobLostOrDoubled is the liveness cousin of the
// reference-model test: with pool workers and racing submitters and
// cancelers, every accepted job still reaches a terminal state exactly
// once. Run under -race this exercises the locking.
func TestQueueConcurrentNoJobLostOrDoubled(t *testing.T) {
	var execs sync.Map // payload -> *count
	// Three pool workers run the queue, up to three jobs at once, while
	// the submitters and cancelers race them. The kick and un-kick run
	// under the queue lock, as in the CI server, so the pool's pending
	// count is the backlog.
	p := NewPool(PoolOptions{Workers: 3})
	q := newTestQueue(t, func(x int) (int, error) {
		c, _ := execs.LoadOrStore(x, new(int))
		*(c.(*int))++
		return x, nil
	}, Options[int, int]{
		Capacity: 512,
		OnSubmit: func(*Job[int, int]) error { p.Kick("q"); return nil },
		OnCancel: func(*Job[int, int]) error { p.Unkick("q"); return nil },
	})
	if err := p.Register("q", q, 1, 3); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var accepted []*Job[int, int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				j, err := q.Submit(g*1000 + i)
				if err != nil {
					continue // ErrFull under pressure is legal
				}
				mu.Lock()
				accepted = append(accepted, j)
				n := len(accepted)
				mu.Unlock()
				if i%7 == 3 {
					// Cancel an arbitrary earlier job; any outcome is
					// legal, the invariant check below is what matters.
					mu.Lock()
					victim := accepted[(g+i)%n]
					mu.Unlock()
					_, _ = q.Cancel(victim.ID)
				}
			}
		}()
	}
	wg.Wait()
	q.CloseIntake()
	p.Close()
	q.Close()
	mu.Lock()
	defer mu.Unlock()
	for _, j := range accepted {
		select {
		case <-j.Done():
		case <-time.After(5 * time.Second):
			t.Fatalf("job %s not terminal after Close", j.ID)
		}
		if state, _, _ := j.Peek(); !state.Terminal() {
			t.Errorf("job %s state = %v after Close", j.ID, state)
		}
	}
	execs.Range(func(_, c any) bool {
		if *(c.(*int)) != 1 {
			t.Errorf("a payload executed %d times", *(c.(*int)))
		}
		return true
	})
	s := q.Stats()
	if got := s.Completed + s.Failed + s.Canceled; got != s.Submitted {
		t.Errorf("terminal count %d != submitted %d (%+v)", got, s.Submitted, s)
	}
}
