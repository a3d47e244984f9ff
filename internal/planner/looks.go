package planner

// Sequential evaluation reveals a commit's labels in geometrically growing
// batches instead of all at once: the engine measures after every "look"
// and stops as soon as the verdict is forced. The schedule below is the
// contract between live evaluation and durable replay: both derive their
// reveal boundaries from the same pure function, so replay reproduces the
// live look decisions — and therefore the label charges — bit for bit.

// Default geometric look schedule: the first look reveals 64 labels, every
// later look doubles the cumulative total.
const (
	DefaultFirstLook  = 64
	DefaultLookGrowth = 2
)

// NextLook returns the next cumulative reveal target after `revealed`
// labels of `total` are already revealed: the smallest schedule point
// DefaultFirstLook * DefaultLookGrowth^k that exceeds revealed, capped at
// total.
func NextLook(revealed, total int) int {
	t := DefaultFirstLook
	for t <= revealed && t < total {
		t *= DefaultLookGrowth
	}
	if t > total {
		t = total
	}
	if t <= revealed {
		// revealed already at or past every schedule point (including
		// total): nothing left to reveal.
		return revealed
	}
	return t
}
