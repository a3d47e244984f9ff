package planner

import (
	"reflect"
	"testing"
)

func TestNextLook(t *testing.T) {
	cases := []struct {
		revealed, total int
		want            int
	}{
		{0, 600, 64},
		{64, 600, 128},
		{128, 600, 256},
		{256, 600, 512},
		{512, 600, 600}, // last geometric point capped at total
		{600, 600, 600}, // nothing left: target == revealed
		{700, 600, 700}, // already past total (over-revealed)
		{0, 40, 40},     // first look larger than the testset
		{1, 600, 64},    // mid-chunk reveal still lands on schedule
		{63, 600, 64},
		{65, 600, 128},
	}
	for _, c := range cases {
		if got := NextLook(c.revealed, c.total); got != c.want {
			t.Errorf("NextLook(%d, %d) = %d, want %d", c.revealed, c.total, got, c.want)
		}
	}
}

// schedule walks NextLook from zero to total and returns every look.
func schedule(t *testing.T, total int) []int {
	t.Helper()
	var sched []int
	for r := 0; r < total; {
		next := NextLook(r, total)
		if next <= r {
			t.Fatalf("total=%d: NextLook(%d) = %d did not advance", total, r, next)
		}
		r = next
		if sched = append(sched, r); len(sched) > 64 {
			t.Fatalf("total=%d: schedule does not terminate", total)
		}
	}
	return sched
}

func TestNextLookMonotone(t *testing.T) {
	// From any starting point the schedule strictly advances until total,
	// so the sequential loop can never spin.
	for _, total := range []int{1, 63, 64, 65, 600, 2048} {
		if sched := schedule(t, total); sched[len(sched)-1] != total {
			t.Fatalf("total=%d: schedule ends at %d", total, sched[len(sched)-1])
		}
	}
}

func TestLookSchedule(t *testing.T) {
	if got, want := schedule(t, 600), []int{64, 128, 256, 512, 600}; !reflect.DeepEqual(got, want) {
		t.Errorf("schedule(600) = %v, want %v", got, want)
	}
	if got, want := schedule(t, 64), []int{64}; !reflect.DeepEqual(got, want) {
		t.Errorf("schedule(64) = %v, want %v", got, want)
	}
	if got := schedule(t, 0); got != nil {
		t.Errorf("schedule(0) = %v, want nil", got)
	}
	for _, total := range []int{1, 65, 600, 5000} {
		if sched := schedule(t, total); sched[len(sched)-1] != total {
			t.Errorf("total=%d: schedule must end at total, got %v", total, sched)
		}
	}
}
