package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/easeml/ci/internal/bounds"
	"github.com/easeml/ci/internal/planner"
)

// routePinRoutes are the tenant API's rows as the route pins probe them:
// the path below a scope prefix, the method the row answers with its
// body, and one method it refuses.
var routePinRoutes = []struct {
	rest, method, body, refused string
}{
	{"plan", http.MethodGet, "", http.MethodPost},
	{"plan/batch", http.MethodPost, `{"queries":[{},{"steps":5}]}`, http.MethodGet},
	{"status", http.MethodGet, "", http.MethodPost},
	{"history", http.MethodGet, "", http.MethodPost},
	{"metrics", http.MethodGet, "", http.MethodPost},
	{"commit", http.MethodPost, "$COMMIT", http.MethodGet},
	{"commit/async", http.MethodPost, "$COMMIT", http.MethodGet},
	{"commit/jobs/job-1", http.MethodGet, "", http.MethodPost},
	{"commit/jobs/job-99", http.MethodDelete, "", http.MethodPut},
	{"testset", http.MethodPost, "$ROTATE", http.MethodGet},
	{"admin/reset-caches", http.MethodPost, "", http.MethodGet},
	{"admin/compact", http.MethodPost, "", http.MethodGet},
	{"admin/backup", http.MethodPost, "", http.MethodGet},
}

// evalNs matches the one wall-clock figure a metrics body carries.
var evalNs = regexp.MustCompile(`"commit_eval_ns_total":[0-9]+`)

// TestRoutePins pins the answer of every route on an in-memory control
// plane: status, Content-Type, Location and body, for each row's allowed
// method and one refused method, in the alias form (/api/v1/<rest>) and
// scoped to the default project, a registered project, that project
// suspended, and an unknown project; then the control-plane and admin
// routes, non-clean paths, the bare job prefix, and where a scoped
// async commit says to poll. The pool is manual and the queue clock a
// counter, so the transcript is the same on every run; the only
// wall-clock figure, commit_eval_ns_total, is masked. Shared caches are
// emptied at the start and after each admin reset, so one reset's scope
// cannot reach the lines after it.
func TestRoutePins(t *testing.T) {
	resetShared := func() {
		planner.Default.Reset()
		bounds.ResetExactCache()
	}
	resetShared()
	var tick atomic.Int64
	m := newTestMulti(t, MultiOptions{ManualPool: true, Tenant: Options{
		Clock: func() int64 { return tick.Add(1) },
	}})
	defer m.Close()
	_, labels := durableGenesis(t, 3, testSize)
	commit := mustMarshal(t, CommitRequest{Model: "m", Author: "dev", Message: "x",
		Predictions: goodPredictions(t, labels, 0.9, 10)}, false)
	rotate := mustMarshal(t, RotateRequest{Labels: labels,
		ActivePredictions: goodPredictions(t, labels, 0.9, 20)}, false)

	var out bytes.Buffer
	// send serves one request, driving the manual pool until the request
	// returns (a sync commit waits for its job) and then until every job
	// it queued has run.
	var send func(method, path, body string)
	send = func(method, path, body string) {
		body = strings.NewReplacer("$COMMIT", commit, "$ROTATE", rotate).Replace(body)
		done := make(chan *httptest.ResponseRecorder)
		go func() {
			rec := httptest.NewRecorder()
			m.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
			done <- rec
		}()
		var rec *httptest.ResponseRecorder
		for rec == nil {
			select {
			case rec = <-done:
			default:
				if !m.RunOne() {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}
		for m.RunOne() {
		}
		h := rec.Header()
		fmt.Fprintf(&out, "%s %s\n%d %q %q\n%s", method, path, rec.Code,
			h.Get("Content-Type"), h.Get("Location"), evalNs.ReplaceAll(rec.Body.Bytes(), []byte(`"commit_eval_ns_total":N`)))
		if !bytes.HasSuffix(rec.Body.Bytes(), []byte("\n")) {
			out.WriteByte('\n')
		}
		if strings.Contains(path, "admin/reset-caches") {
			send(http.MethodGet, "/api/v1/metrics", "")
			resetShared()
		}
	}
	probeTenant := func(prefix string) {
		for _, rt := range routePinRoutes {
			send(rt.method, prefix+rt.rest, rt.body)
			send(rt.refused, prefix+rt.rest, rt.body)
		}
	}

	create := mustMarshal(t, CreateProjectRequest{ID: "team-a", ProjectSpec: testSpec(t, 3, testSize, 7)}, false)
	send(http.MethodPost, projectsPath, create)

	probeTenant("/api/v1/")
	probeTenant("/api/v1/projects/default/")
	probeTenant("/api/v1/projects/team-a/")
	probeTenant("/api/v1/projects/nope/")
	send(http.MethodPost, "/api/v1/projects/team-a/suspend", "")
	probeTenant("/api/v1/projects/team-a/")
	send(http.MethodPost, "/api/v1/projects/team-a/resume", "")

	// Control-plane routes.
	for _, c := range []struct{ method, path, body string }{
		{http.MethodGet, projectsPath, ""},
		{http.MethodGet, projectsPath + "/", ""},
		{http.MethodPut, projectsPath, ""},
		{http.MethodPost, projectsPath, create},
		{http.MethodPost, projectsPath, `{"id":"default"}`},
		{http.MethodGet, projectsPath + "/default", ""},
		{http.MethodGet, projectsPath + "/team-a", ""},
		{http.MethodGet, projectsPath + "/team-a/", ""},
		{http.MethodGet, projectsPath + "/nope", ""},
		{http.MethodPut, projectsPath + "/team-a", ""},
		{http.MethodDelete, projectsPath + "/default", ""},
		{http.MethodDelete, projectsPath + "/nope", ""},
		{http.MethodGet, projectsPath + "/team-a/suspend", ""},
		{http.MethodPost, projectsPath + "/default/suspend", ""},
		{http.MethodPost, projectsPath + "/nope/resume", ""},
		{http.MethodGet, projectsPath + "//status", ""},
		{http.MethodGet, "/api/v1/metrics", ""},
		{http.MethodPost, "/api/v1/metrics", ""},
		{http.MethodGet, "/healthz", ""},
		{http.MethodPost, "/healthz", ""},
		{http.MethodGet, "/readyz", ""},
		{http.MethodPost, "/readyz", ""},
		{http.MethodGet, "/api/v1/nope", ""},
		{http.MethodGet, "/nope", ""},
		{http.MethodGet, "/api/v1/", ""},
	} {
		send(c.method, c.path, c.body)
	}
	// Admin routes, unscoped and scoped with ?project=.
	for _, op := range []string{"reset-caches", "compact", "backup"} {
		for _, q := range []string{"", "?project=default", "?project=team-a", "?project=nope"} {
			send(http.MethodPost, "/api/v1/admin/"+op+q, "")
			send(http.MethodGet, "/api/v1/admin/"+op+q, "")
		}
	}
	// Non-clean paths, the bare job prefix, and the scoped poll.
	for _, p := range []string{
		"/api/v1//history", "/api/v1/admin/../history", "/api/v1/./status?x=1",
		"/api/v1/projects/team-a//history", "/api/v1/projects/team-a/admin/../history",
		"/api/v1/projects/team-a/./status?x=1",
		"/api/v1/commit/jobs", "/api/v1/projects/team-a/commit/jobs",
		"/api/v1/commit/jobs/", "/api/v1/projects/team-a/commit/jobs/",
		"/api/v1/history/", "/api/v1/projects/team-a/history/",
	} {
		send(http.MethodGet, p, "")
	}
	// The probe's model name sets team-a's job-3 apart from the default
	// project's job-3.
	send(http.MethodPost, "/api/v1/projects/team-a/commit/async", strings.Replace(commit, `"m"`, `"poll-probe"`, 1))
	send(http.MethodGet, "/api/v1/commit/jobs/job-3", "")
	send(http.MethodGet, "/api/v1/projects/team-a/commit/jobs/job-3", "")
	send(http.MethodDelete, projectsPath+"/team-a", "")
	send(http.MethodGet, projectsPath, "")

	checkGolden(t, filepath.Join("testdata", "routes", "responses.txt"), out.Bytes())
}
