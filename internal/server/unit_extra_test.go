package server

import (
	"errors"
	"fmt"
	"net/http"
	"testing"

	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/engine"
	"github.com/easeml/ci/internal/queue"
	"github.com/easeml/ci/internal/script"
)

// TestCommitErrorStatusMapping pins the error→status contract of the
// commit executor: 400 malformed, 409 state-moved conflicts, 503 when
// the log is poisoned, 422 for evaluation failures.
func TestCommitErrorStatusMapping(t *testing.T) {
	cases := []struct {
		err  error
		want int
	}{
		{badRequestError{"short predictions"}, http.StatusBadRequest},
		{engine.ErrNeedNewTestset, http.StatusConflict},
		{queue.ErrCanceled, http.StatusConflict},
		{fmt.Errorf("append: %w", errWALPoisoned), http.StatusServiceUnavailable},
		{errors.New("evaluation blew up"), http.StatusUnprocessableEntity},
	}
	for _, tc := range cases {
		if got := commitErrorStatus(tc.err); got != tc.want {
			t.Errorf("commitErrorStatus(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}

func TestDatasetFromLabelsRejectsBadLabels(t *testing.T) {
	if _, err := datasetFromLabels("x", []int{0, 1, 5}, 2); err == nil {
		t.Error("out-of-range label should fail")
	}
	if _, err := datasetFromLabels("x", []int{0, -1}, 2); err == nil {
		t.Error("negative label should fail")
	}
}

// TestDatasetFromLabelsSharesIndexRows: datasets built from labels share
// the index rows, row i being [i], and neither a larger dataset built
// later nor an append to one dataset's X or to one of its rows changes
// another's.
func TestDatasetFromLabelsSharesIndexRows(t *testing.T) {
	small, err := datasetFromLabels("small", []int{0, 1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := datasetFromLabels("big", make([]int, 5000), 2)
	if err != nil {
		t.Fatal(err)
	}
	again, err := datasetFromLabels("again", []int{1, 1, 0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if &again.X[0][0] != &big.X[0][0] {
		t.Error("a dataset built after the table grew does not share its rows")
	}
	if len(small.X) != 3 || cap(small.X) != 3 || len(big.X) != 5000 || cap(big.X) != 5000 {
		t.Fatalf("X has length %d, capacity %d and length %d, capacity %d", len(small.X), cap(small.X), len(big.X), cap(big.X))
	}
	_ = append(again.X, []float64{-1})
	_ = append(again.X[1], -1)
	for _, ds := range []*data.Dataset{small, big, again} {
		for i, x := range ds.X {
			if len(x) != 1 || cap(x) != 1 || x[0] != float64(i) {
				t.Fatalf("%s row %d is %v with capacity %d", ds.Name, i, x, cap(x))
			}
		}
	}
	if again.Y[0] != 1 || small.Y[0] != 0 {
		t.Fatal("labels are not copied per dataset")
	}
}

// TestMethodNotAllowed sweeps every endpoint with the wrong verb.
func TestMethodNotAllowed(t *testing.T) {
	srv, _ := newServerWith(t, script.AdaptivityFull, 3, testSize, Options{}, false)
	defer closeTestTenant(srv)
	cases := []struct{ method, path string }{
		{http.MethodPost, "/api/v1/plan"},
		{http.MethodPost, "/api/v1/status"},
		{http.MethodPost, "/api/v1/history"},
		{http.MethodPost, "/api/v1/metrics"},
		{http.MethodGet, "/api/v1/commit"},
		{http.MethodGet, "/api/v1/testset"},
	}
	for _, tc := range cases {
		rec, _ := doJSON(t, srv, tc.method, tc.path, nil)
		if rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405", tc.method, tc.path, rec.Code)
		}
	}
	m := newTestMulti(t, MultiOptions{})
	defer m.Close()
	for _, path := range []string{"/api/v1/admin/reset-caches", "/api/v1/projects/default/admin/reset-caches"} {
		if rec := doH(t, m, http.MethodGet, path, nil); rec.Code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, rec.Code)
		}
	}
}
