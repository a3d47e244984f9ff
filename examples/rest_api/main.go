// REST API: ease.ml/ci as a service. Starts the HTTP server on a local
// port, then plays both roles over the wire: the developer pushes model
// commits as prediction vectors, the integration team watches status and
// rotates the testset when the alarm fires. The next act is the
// asynchronous flow: a commit submitted to /api/v1/commit/async comes
// back as a 202 job, is polled at /api/v1/commit/jobs/{id}, and fires a
// webhook callback with the finished status. Then early decision: a
// commit nowhere near the bar (a broken build) is rejected after a
// fraction of its labeling plan — the sequential evaluation stops as
// soon as the verdict is forced, and the savings show up in the commit
// response and /api/v1/metrics.
//
// The encore is durability: a second server runs with a data directory,
// accepts an async commit, and suffers a simulated power cut before the
// job runs. Reopening the same directory brings the job back, evaluates
// it, and delivers the webhook — the client polls the same job URL
// throughout and never learns the server died.
//
// Next, resilient label sourcing: a server pulls labels from a remote
// provider that is down when the commit arrives. The job parks in
// "awaiting_labels" instead of failing, resumes automatically once the
// provider recovers, and lands a verdict identical to a fault-free run.
//
// The final act is multi-tenancy: the same process hosts two more teams
// as registered projects, each with its own script, testset, and commit
// queue, scheduled onto one shared worker pool. Two tenants running the
// same condition warm each other through the shared plan cache, a
// label-budgeted tenant is cut off with 429 when its quota runs dry, and
// the old single-tenant paths keep answering for the default project
// throughout.
//
// Run with: go run ./examples/rest_api
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"time"

	ci "github.com/easeml/ci"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/server"
)

const (
	testsetSize = 2000
	classes     = 4
)

func main() {
	// --- integration team: stand up the service --------------------------
	labels := make([]int, testsetSize)
	for i := range labels {
		labels[i] = i % classes
	}
	srv, err := server.NewMulti(genesis("n - o > 0.02 +/- 0.05",
		ci.Adaptivity{Kind: ci.AdaptivityFirstChange}, 8, labels), server.MultiOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	base, _ := serve(srv)
	fmt.Println("serving on", base)

	// --- developer: push commits over the wire ---------------------------
	for i, acc := range []float64{0.72, 0.85} {
		preds, err := model.SimulatedPredictions(labels, classes, acc, int64(10+i))
		if err != nil {
			log.Fatal(err)
		}
		var res server.CommitResponse
		post(base+"/api/v1/commit", server.CommitRequest{
			Model: fmt.Sprintf("candidate-%d", i+1), Author: "dev",
			Message: "retrained", Predictions: preds,
		}, &res)
		fmt.Printf("commit candidate-%d: signal=%v truth=%s alarm=%v\n",
			i+1, res.Signal, res.Truth, res.NeedNewTestset)
		if res.NeedNewTestset {
			// --- integration team: the firstChange pass retired the
			// testset; rotate a fresh one in over the API.
			post(base+"/api/v1/testset", server.RotateRequest{
				Labels:            labels,
				ActivePredictions: preds,
			}, &map[string]any{})
			fmt.Println("rotated in a fresh testset")
		}
	}

	var status server.StatusResponse
	get(base+"/api/v1/status", &status)
	fmt.Printf("status: active=%s generation=%d budget=%d/%d labels=%d\n",
		status.ActiveModel, status.TestsetGeneration,
		status.BudgetUsed, status.BudgetTotal, status.LabelsSpent)

	// --- developer, asynchronously: submit, poll, and receive a webhook --
	// A tiny subscriber stands in for the developer's CI system; the
	// server POSTs the finished job status to it.
	hooks := make(chan server.JobStatusResponse, 1)
	hookLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		_ = http.Serve(hookLn, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var st server.JobStatusResponse
			if err := json.NewDecoder(r.Body).Decode(&st); err == nil {
				hooks <- st
			}
		}))
	}()

	preds, err := model.SimulatedPredictions(labels, classes, 0.9, 42)
	if err != nil {
		log.Fatal(err)
	}
	var accepted server.JobAcceptedResponse
	postStatus(base+"/api/v1/commit/async", server.AsyncCommitRequest{
		CommitRequest: server.CommitRequest{
			Model: "candidate-async", Author: "dev",
			Message: "submitted without waiting", Predictions: preds,
		},
		Webhook: "http://" + hookLn.Addr().String() + "/hook",
	}, &accepted, http.StatusAccepted)
	fmt.Printf("async submit accepted: %s (%s), polling %s\n",
		accepted.JobID, accepted.State, accepted.Poll)

	// Poll until the queue has evaluated the commit...
	var polled server.JobStatusResponse
	for {
		get(base+accepted.Poll, &polled)
		if polled.State == "done" || polled.State == "failed" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if polled.Result == nil {
		log.Fatalf("job %s %s: %s", polled.JobID, polled.State, polled.Error)
	}
	fmt.Printf("poll: job %s %s signal=%v\n", polled.JobID, polled.State, polled.Result.Signal)

	// ...and the webhook arrives with the same final status.
	select {
	case st := <-hooks:
		if st.Result == nil {
			log.Fatalf("webhook job %s %s: %s", st.JobID, st.State, st.Error)
		}
		fmt.Printf("webhook: job %s %s step=%d\n", st.JobID, st.State, st.Result.Step)
	case <-time.After(5 * time.Second):
		log.Fatal("webhook never arrived")
	}

	// --- act: early decision — a broken commit is cheap to reject --------
	// Evaluation is sequential by default: labels reveal in chunks along a
	// geometric look schedule and stop the moment the verdict is forced.
	// This commit is nowhere near the bar (a broken build at 20% accuracy
	// against "n > 0.6 +/- 0.1"), so the Fail is forced after a fraction of
	// the 700-example testset and the rest of the labeling budget is never
	// spent — with a verdict guaranteed byte-identical to the full reveal.
	small := make([]int, 700)
	for i := range small {
		small[i] = i % classes
	}
	full := ci.Adaptivity{Kind: ci.AdaptivityFull}
	eSrv, err := server.NewMulti(genesis("n > 0.6 +/- 0.1", full, 4, small), server.MultiOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer eSrv.Close()
	eBase, _ := serve(eSrv)
	fmt.Println("\nearly-decision server on", eBase)

	broken, err := model.SimulatedPredictions(small, classes, 0.20, 13)
	if err != nil {
		log.Fatal(err)
	}
	var eRes server.CommitResponse
	post(eBase+"/api/v1/commit", server.CommitRequest{
		Model: "broken-build", Author: "dev", Message: "oops", Predictions: broken,
	}, &eRes)
	fmt.Printf("broken commit: truth=%s early_exit=%v — %d labels paid, %d saved over %d looks\n",
		eRes.Truth, eRes.EarlyExit, eRes.FreshLabels, eRes.LabelsSaved, eRes.Looks)

	var eMetrics server.MultiMetricsResponse
	get(eBase+"/api/v1/metrics", &eMetrics)
	fmt.Printf("metrics: labels_saved_total=%d early_exits_total=%d\n",
		eMetrics.LabelsSavedTotal, eMetrics.EarlyExitsTotal)

	// --- encore: the durable server survives a power cut -----------------
	// Same API, but the server journals every acknowledged mutation to a
	// write-ahead log in -data-dir before answering. We submit an async
	// commit, kill the server before the job runs, reopen the directory,
	// and watch the job finish anyway.
	dataDir, err := os.MkdirTemp("", "easeml-ci-data")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)

	dGenesis := genesis("n > 0.6 +/- 0.1", full, 4, small)

	// A harness clock holds the job in "queued" so the crash lands before
	// the evaluation — the worst possible moment. With Tenant.Clock set the
	// server runs nothing time-driven on its own: its pool has no workers,
	// so the job runs only when RunOne is called, and this demo never
	// calls it. Wall time is a fine clock here; what matters is that one
	// is set.
	durable, err := server.NewMulti(dGenesis, server.MultiOptions{DataDir: dataDir, Tenant: server.Options{Clock: time.Now}})
	if err != nil {
		log.Fatal(err)
	}
	dBase, dLn := serve(durable)
	fmt.Println("\ndurable server on", dBase, "(data dir", dataDir+")")

	dPreds, err := model.SimulatedPredictions(small, classes, 0.85, 7)
	if err != nil {
		log.Fatal(err)
	}
	var dAccepted server.JobAcceptedResponse
	postStatus(dBase+"/api/v1/commit/async", server.AsyncCommitRequest{
		CommitRequest: server.CommitRequest{
			Model: "candidate-durable", Author: "dev",
			Message: "submitted moments before the power cut", Predictions: dPreds,
		},
		Webhook: "http://" + hookLn.Addr().String() + "/hook",
	}, &dAccepted, http.StatusAccepted)
	var pending server.JobStatusResponse
	get(dBase+dAccepted.Poll, &pending)
	fmt.Printf("accepted %s, state %q — pulling the plug now\n", dAccepted.JobID, pending.State)

	// Power cut: stop serving without Close(), so nothing is drained,
	// snapshotted, or flushed beyond what the WAL already holds.
	dLn.Close()

	// Reopen the same directory. Recovery replays the log, re-enqueues the
	// still-pending job, and a real worker evaluates it.
	revived, err := server.NewMulti(dGenesis, server.MultiOptions{DataDir: dataDir})
	if err != nil {
		log.Fatal(err)
	}
	defer revived.Close()
	dBase2, _ := serve(revived)
	if st := revived.Default().WALStats(); st != nil {
		fmt.Printf("recovered: %d records replayed (snapshot seq %d)\n", st.Replayed, st.SnapshotSeq)
	}

	// The same job ID, same poll path — now on the revived server.
	for {
		get(dBase2+dAccepted.Poll, &polled)
		if polled.State == "done" || polled.State == "failed" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if polled.Result == nil {
		log.Fatalf("revived job %s %s: %s", polled.JobID, polled.State, polled.Error)
	}
	fmt.Printf("after restart: job %s %s signal=%v\n", polled.JobID, polled.State, polled.Result.Signal)

	// The webhook promised at submission is honored by the revived server.
	select {
	case st := <-hooks:
		fmt.Printf("webhook after restart: job %s %s\n", st.JobID, st.State)
	case <-time.After(5 * time.Second):
		log.Fatal("post-restart webhook never arrived")
	}

	// --- act: a flaky label provider parks the job, never the verdict ----
	// Labels can come from a remote labeling team instead of in-process
	// ground truth. Their service is down when the commit arrives: the
	// resilient client retries with backoff, gives up, and the job parks
	// in "awaiting_labels" — not failed — until the release timer (paced
	// by the provider's Retry-After) re-queues it. The verdict after the
	// outage is identical to a server whose oracle never blinked.
	provider := labeling.NewProviderServer(small)
	provider.FailNext(2, http.StatusServiceUnavailable, time.Second)
	pLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(pLn, provider) }()

	fGenesis := genesis("n > 0.6 +/- 0.1", full, 4, small)

	// The control run: same commit, oracle in-process, no faults.
	control, err := server.NewMulti(fGenesis, server.MultiOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer control.Close()
	transport, err := labeling.NewHTTPOracle("http://"+pLn.Addr().String(), labeling.HTTPOracleOptions{Timeout: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	flaky, err := server.NewMulti(fGenesis, server.MultiOptions{Tenant: server.Options{
		OracleFactory: func(gen int, truth []int) labeling.Oracle {
			return labeling.NewResilient(transport, labeling.ResilientOptions{
				MaxAttempts: 2, Backoff: 50 * time.Millisecond,
			})
		},
	}})
	if err != nil {
		log.Fatal(err)
	}
	defer flaky.Close()
	cBase, _ := serve(control)
	fBase, _ := serve(flaky)
	fmt.Println("\nremote-label server on", fBase, "(provider on", pLn.Addr().String()+", currently down)")

	fPreds, err := model.SimulatedPredictions(small, classes, 0.85, 21)
	if err != nil {
		log.Fatal(err)
	}
	var controlRes server.CommitResponse
	post(cBase+"/api/v1/commit", server.CommitRequest{
		Model: "candidate-remote", Author: "dev", Message: "labels from afar", Predictions: fPreds,
	}, &controlRes)

	var fAccepted server.JobAcceptedResponse
	postStatus(fBase+"/api/v1/commit/async", server.AsyncCommitRequest{
		CommitRequest: server.CommitRequest{
			Model: "candidate-remote", Author: "dev",
			Message: "labels from afar", Predictions: fPreds,
		},
	}, &fAccepted, http.StatusAccepted)
	sawPark := false
	for {
		get(fBase+fAccepted.Poll, &polled)
		if polled.State == "awaiting_labels" && !sawPark {
			sawPark = true
			fmt.Printf("provider outage: job %s parked in %q (not failed) — resumes on its own\n",
				polled.JobID, polled.State)
		}
		if polled.State == "done" || polled.State == "failed" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawPark || polled.Result == nil {
		log.Fatalf("flaky-oracle act: parked=%v, job %s %s: %s", sawPark, polled.JobID, polled.State, polled.Error)
	}
	fmt.Printf("provider recovered: job %s %s — truth=%s labels=%d, identical to the fault-free run: %v\n",
		polled.JobID, polled.State, polled.Result.Truth, polled.Result.FreshLabels,
		polled.Result.Truth == controlRes.Truth && polled.Result.FreshLabels == controlRes.FreshLabels)
	var fMetrics server.MetricsResponse
	get(fBase+"/api/v1/projects/default/metrics", &fMetrics)
	if o := fMetrics.LabelOracle; o != nil {
		fmt.Printf("oracle health: attempts=%d retries=%d unavailable=%d breaker=%s\n",
			o.Attempts, o.Retries, o.Unavailable, o.Breaker.State)
	}

	// --- final act: one control plane, many teams ------------------------
	// NewMulti hosts the flag-defined genesis as the "default" project and
	// lets further teams register over the API, each an isolated tenant on
	// a shared worker pool and a shared plan cache.
	multi, err := server.NewMulti(dGenesis, server.MultiOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer multi.Close()
	mBase, _ := serve(multi)
	fmt.Println("\nmulti-tenant control plane on", mBase)

	// Two teams register. They run the same condition, so the second
	// project's planning is a hit on the cache the first one warmed; team-b
	// additionally carries a label budget.
	spec := server.ProjectSpec{
		Condition:   dGenesis.Condition,
		Reliability: dGenesis.Reliability,
		Steps:       dGenesis.Steps,
		Labels:      small, Classes: classes,
		ModelName: dGenesis.ModelName, ModelPredictions: dGenesis.ModelPredictions,
	}
	for _, id := range []string{"team-a", "team-b"} {
		sp := spec
		if id == "team-b" {
			sp.LabelQuota = 1 // any evaluated commit exhausts this
		}
		var info server.ProjectInfo
		postStatus(mBase+"/api/v1/projects", server.CreateProjectRequest{ID: id, ProjectSpec: sp},
			&info, http.StatusCreated)
		fmt.Printf("registered project %s (state %s, weight %d)\n", info.ID, info.State, info.Weight)
	}

	// Each team commits to its own scoped API; the default project's alias
	// paths keep working untouched.
	var teamRes server.CommitResponse
	post(mBase+"/api/v1/projects/team-a/commit", server.CommitRequest{
		Model: "team-a-v1", Author: "dev", Predictions: dPreds,
	}, &teamRes)
	fmt.Printf("team-a commit: signal=%v truth=%s\n", teamRes.Signal, teamRes.Truth)
	post(mBase+"/api/v1/commit", server.CommitRequest{
		Model: "default-v1", Author: "dev", Predictions: dPreds,
	}, &teamRes)
	fmt.Printf("default commit (alias path): signal=%v truth=%s\n", teamRes.Signal, teamRes.Truth)

	// team-b spends its one-label budget on the first commit; the second
	// is refused with 429 while every other tenant keeps working.
	post(mBase+"/api/v1/projects/team-b/commit", server.CommitRequest{
		Model: "team-b-v1", Author: "dev", Predictions: dPreds,
	}, &teamRes)
	resp, err := http.Post(mBase+"/api/v1/projects/team-b/commit", "application/json",
		bytes.NewReader(mustJSON(server.CommitRequest{Model: "team-b-v2", Author: "dev", Predictions: dPreds})))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("team-b second commit: HTTP %d (label quota spent)\n", resp.StatusCode)

	// The control-plane metrics report the shared caches once, the
	// scheduler, and every tenant.
	var metrics server.MultiMetricsResponse
	get(mBase+"/api/v1/metrics", &metrics)
	fmt.Printf("plan cache shared by all tenants: %d hits / %d misses\n",
		metrics.PlanCache.PlanHits, metrics.PlanCache.PlanMisses)
	for _, p := range metrics.Projects {
		fmt.Printf("  project %-8s state=%-9s commits_evaluated=%d\n", p.ID, p.State, p.CommitsEvaluated)
	}
}

// genesis is a project whose baseline model is 70% accurate on labels.
func genesis(condition string, adapt ci.Adaptivity, steps int, labels []int) server.Genesis {
	h0, err := model.SimulatedPredictions(labels, classes, 0.70, 1)
	if err != nil {
		log.Fatal(err)
	}
	return server.Genesis{
		Condition: condition, Reliability: 0.99, Mode: ci.FPFree, Adaptivity: adapt, Steps: steps,
		Labels: labels, Classes: classes, ModelName: "deployed-h0", ModelPredictions: h0,
	}
}

// serve serves h on a fresh local port and returns its base URL once it
// answers, and the listener.
func serve(h http.Handler) (string, net.Listener) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(ln, h) }()
	base := "http://" + ln.Addr().String()
	waitReady(base)
	return base, ln
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		log.Fatal(err)
	}
	return raw
}

// postStatus is post, but for endpoints whose success code isn't 200.
func postStatus(url string, body, out any, want int) {
	raw, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		log.Fatalf("POST %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func waitReady(base string) {
	for i := 0; i < 50; i++ {
		if resp, err := http.Get(base + "/api/v1/status"); err == nil {
			resp.Body.Close()
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	log.Fatal("server did not become ready")
}

func post(url string, body, out any) {
	raw, err := json.Marshal(body)
	if err != nil {
		log.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("POST %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}

func get(url string, out any) {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		log.Fatal(err)
	}
}
