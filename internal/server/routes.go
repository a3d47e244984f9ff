package server

import (
	"fmt"
	"net/http"
	"net/url"
	"path"
	"strings"

	"github.com/easeml/ci/internal/registry"
)

const (
	apiPrefix    = "/api/v1/"
	projectsPath = "/api/v1/projects"
)

// scope is where a request landed: the project it addresses and the
// prefix its row was matched below.
type scope struct {
	id     string // the project; "" on an unscoped alias path
	prefix string // apiPrefix, or projectsPath + "/{id}/"
	rest   string // the path below prefix
}

// route is one row of the table: the path below a scope prefix (a
// trailing "/" matches the subtree), the methods it answers, and who
// answers it.
type route struct {
	rest    string
	methods string // "GET", "POST" or "GET or DELETE"; others answer 405
	// tenant answers the row for a project. control answers its alias
	// path, unscoped, and its scoped path when tenant is nil.
	tenant  func(*Server, http.ResponseWriter, *http.Request, scope)
	control func(*Multi, http.ResponseWriter, *http.Request, scope)
	// mutating marks rows that accept new work: a suspended project
	// answers them 409. Reads, job polls and cancellation, and admin
	// maintenance stay available — backup above all, since a suspended
	// project is exactly the one an operator wants to back up.
	mutating bool
}

var routes = []route{
	{rest: "plan", methods: "GET", tenant: (*Server).handlePlan},
	{rest: "plan/batch", methods: "POST", tenant: (*Server).handlePlanBatch},
	{rest: "status", methods: "GET", tenant: (*Server).handleStatus},
	{rest: "history", methods: "GET", tenant: (*Server).handleHistory},
	{rest: "metrics", methods: "GET", tenant: (*Server).handleMetrics, control: (*Multi).handleMetrics},
	{rest: "commit", methods: "POST", tenant: (*Server).handleCommit, mutating: true},
	{rest: "commit/async", methods: "POST", tenant: (*Server).handleCommitAsync, mutating: true},
	{rest: jobsRest, methods: "GET or DELETE", tenant: (*Server).handleCommitJob},
	{rest: "testset", methods: "POST", tenant: (*Server).handleRotate, mutating: true},
	{rest: "admin/reset-caches", methods: "POST", control: (*Multi).handleAdminReset},
	{rest: "admin/compact", methods: "POST", control: (*Multi).handleAdminCompact},
	{rest: "admin/backup", methods: "POST", control: (*Multi).handleAdminBackup},
}

// lookupRoute finds the row rest names, or nil.
func lookupRoute(rest string) *route {
	for i := range routes {
		rt := &routes[i]
		if rest == rt.rest || (strings.HasSuffix(rt.rest, "/") && strings.HasPrefix(rest, rt.rest)) {
			return rt
		}
	}
	return nil
}

// allows reports whether the row answers r's method, answering 405 when
// it does not.
func (rt *route) allows(w http.ResponseWriter, r *http.Request) bool {
	for methods := rt.methods; methods != ""; {
		var m string
		m, methods, _ = strings.Cut(methods, " or ")
		if r.Method == m {
			return true
		}
	}
	writeError(w, http.StatusMethodNotAllowed, rt.methods+" only")
	return false
}

// ServeHTTP routes every request from one table. Each row answers below
// two prefixes: /api/v1/ (the alias paths of the default project) and
// /api/v1/projects/{id}/ (any project, the default included). Rows
// marked * accept new work and answer 409 while the project is
// suspended.
//
//	GET  plan               the labeling plan; query parameters condition,
//	                        reliability, steps and adaptivity override the
//	                        script (any other parameter answers 400)
//	POST plan/batch         {"queries":[{condition?, reliability?, steps?,
//	                        adaptivity?}, ...]}, up to MaxBatchQueries
//	GET  status             testset generation/budget, active model, label cost
//	GET  history            evaluation results so far
//	GET  metrics            scoped: the project's MetricsResponse; alias: the
//	                        control plane's MultiMetricsResponse
//	POST commit *           {"model", "author", "message", "predictions":[...]},
//	                        at most 1 MiB + 32 bytes per testset example;
//	                        answers with the verdict
//	POST commit/async *     the same plus an optional "webhook"; 202 {job_id,
//	                        state, poll}, poll being the job's path below the
//	                        same prefix
//	GET  commit/jobs/{id}   poll one job (DELETE cancels it while queued)
//	POST testset *          {"labels":[...], "active_predictions":[...]}, at
//	                        most 2 MiB + 64 bytes per testset example
//	POST admin/reset-caches scoped: clear the project's counters, answering
//	                        their TenantMetrics; unscoped: also clear the
//	                        shared caches, answering MultiMetricsResponse
//	POST admin/compact      compact the project's log, or every log
//	POST admin/backup       the project's tarball, or the control plane's
//
// Bodies may use any valid JSON layout; larger ones answer 400. The
// admin alias paths are unscoped unless they carry ?project={id}, which
// scopes them as /api/v1/projects/{id}/admin/... does. The control
// plane's own routes:
//
//	POST   /api/v1/projects              register a project: {"id", ...} plus
//	                                     a ProjectSpec, at most 8 MiB
//	GET    /api/v1/projects              list projects, creation order
//	GET    /api/v1/projects/{id}         one project's info (DELETE removes
//	                                     it and its state)
//	POST   /api/v1/projects/{id}/suspend stop accepting new work (resume:
//	                                     accept it again)
//	GET    /healthz, /readyz             per-tenant health; readyz answers
//	                                     503 unless all storage is ok
//
// A path that is not clean (a "//", "." or ".." element) answers 301 to
// its cleaned form, as http.ServeMux does; any other path answers 404.
func (m *Multi) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodConnect {
		if p := cleanPath(r.URL.Path); p != r.URL.Path {
			u := url.URL{Path: p, RawQuery: r.URL.RawQuery}
			http.Redirect(w, r, u.String(), http.StatusMovedPermanently)
			return
		}
	}
	p := r.URL.Path
	switch {
	case p == projectsPath || p == projectsPath+"/":
		m.handleProjects(w, r)
	case strings.HasPrefix(p, projectsPath+"/"):
		m.handleProject(w, r, strings.TrimPrefix(p, projectsPath+"/"))
	case p == "/healthz" || p == "/readyz":
		m.handleHealth(w, r, p == "/readyz")
	default:
		var rt *route
		rest, ok := strings.CutPrefix(p, apiPrefix)
		if ok {
			rt = lookupRoute(rest)
		}
		if rt != nil && rt.control != nil {
			if rt.allows(w, r) {
				rt.control(m, w, r, scope{prefix: apiPrefix, rest: rest})
			}
			return
		}
		m.serveProject(w, r, rt, scope{id: DefaultProject, prefix: apiPrefix, rest: rest})
	}
}

// cleanPath is http.ServeMux's path canonicalization: path.Clean, with a
// trailing slash kept.
func cleanPath(p string) string {
	if p == "" {
		return "/"
	}
	if p[0] != '/' {
		p = "/" + p
	}
	np := path.Clean(p)
	if p[len(p)-1] == '/' && np != "/" {
		if len(p) == len(np)+1 && strings.HasPrefix(p, np) {
			return p
		}
		np += "/"
	}
	return np
}

// handleProject dispatches /api/v1/projects/{id}[/...]: the lifecycle
// verbs here, every other path to the project's row.
func (m *Multi) handleProject(w http.ResponseWriter, r *http.Request, rest string) {
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		writeError(w, http.StatusNotFound, "project ID required: "+projectsPath+"/{id}")
		return
	}
	switch sub {
	case "":
		switch r.Method {
		case http.MethodGet:
			m.handleProjectInfo(w, id)
		case http.MethodDelete:
			m.handleDeleteProject(w, id)
		default:
			writeError(w, http.StatusMethodNotAllowed, "GET or DELETE only")
		}
	case "suspend", "resume":
		if r.Method != http.MethodPost {
			writeError(w, http.StatusMethodNotAllowed, "POST only")
			return
		}
		m.handleProjectState(w, id, sub == "suspend")
	default:
		m.serveProject(w, r, lookupRoute(sub), scope{id: id, prefix: projectsPath + "/" + id + "/", rest: sub})
	}
}

// serveProject answers row rt (nil when no row matched) for project
// sc.id: a sick or unknown project first, then a suspended project's
// mutating rows, then the row's methods, then its handler.
func (m *Multi) serveProject(w http.ResponseWriter, r *http.Request, rt *route, sc scope) {
	srv, ok := m.openProject(w, sc.id)
	if !ok {
		return
	}
	if sc.id != DefaultProject {
		p, ok := m.reg.Get(sc.id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no project %q", sc.id))
			return
		}
		if p.State == registry.Suspended && rt != nil && rt.mutating {
			writeError(w, http.StatusConflict, fmt.Sprintf("project %q is suspended", sc.id))
			return
		}
	}
	switch {
	case rt == nil:
		http.NotFound(w, r)
	case !rt.allows(w, r):
	case rt.tenant != nil:
		rt.tenant(srv, w, r, sc)
	default:
		rt.control(m, w, r, sc)
	}
}
