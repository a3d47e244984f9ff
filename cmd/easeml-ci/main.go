// Command easeml-ci runs the full CI loop on a self-contained scenario:
// it parses an ease.ml/ci script, generates a synthetic labeled task,
// trains a sequence of incrementally improving models in-process, commits
// each one, and prints the signals, labeling costs, and alarms — the
// Figure 1 workflow end to end on one machine.
//
// With -server it instead plays the developer against a running
// easeml-ci-server: each commit is submitted to the asynchronous endpoint
// (POST /api/v1/commit/async), and the job is polled to its terminal
// state — the commit-hook shape of the Figure 1 workflow.
//
// Usage:
//
//	easeml-ci -script ci.yml -commits 8 -seed 1
//	easeml-ci -condition "n - o > 0.02 +/- 0.02" -reliability 0.998 \
//	          -adaptivity full -steps 8 -commits 8
//	easeml-ci -server http://localhost:8080 -commits 8 -classes 4
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	ci "github.com/easeml/ci"
	"github.com/easeml/ci/internal/data"
	"github.com/easeml/ci/internal/model"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/resilience"
	"github.com/easeml/ci/internal/server"
)

func main() {
	var (
		scriptPath  = flag.String("script", "", "path to a .travis.yml-style file with an ml section")
		condition   = flag.String("condition", "n - o > 0.02 +/- 0.02", "condition (used when -script is absent)")
		reliability = flag.Float64("reliability", 0.998, "success probability 1-delta")
		steps       = flag.Int("steps", 8, "testset budget H")
		adaptFlag   = flag.String("adaptivity", "full", "none | full | firstChange")
		modeFlag    = flag.String("mode", "fp-free", "fp-free | fn-free")
		commits     = flag.Int("commits", 8, "number of model commits to simulate")
		testN       = flag.Int("testset", 6000, "testset size")
		seed        = flag.Int64("seed", 1, "scenario seed")
		serverURL   = flag.String("server", "", "base URL of a running easeml-ci-server; commits go over the async API")
		classes     = flag.Int("classes", 4, "label alphabet size of the remote server's testset (with -server)")
		project     = flag.String("project", "", "remote project ID (with -server); empty targets the server's default project")
	)
	flag.Parse()
	var err error
	if *serverURL != "" {
		err = runRemote(*serverURL, *project, *commits, *classes, *seed)
	} else {
		err = run(*scriptPath, *condition, *reliability, *steps, *adaptFlag, *modeFlag, *commits, *testN, *seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "easeml-ci:", err)
		os.Exit(1)
	}
}

func run(scriptPath, condition string, reliability float64, steps int, adaptFlag, modeFlag string, commits, testN int, seed int64) error {
	cfg, err := loadConfig(scriptPath, condition, reliability, steps, adaptFlag, modeFlag)
	if err != nil {
		return err
	}
	fmt.Print(cfg.String())
	fmt.Println()

	// Synthetic emotion-classification task; the training pool grows with
	// every commit, so successive models improve incrementally.
	pool, err := data.EmotionCorpus(testN+8000, data.DefaultEmotionConfig(), seed)
	if err != nil {
		return err
	}
	trainPool, err := pool.Subset(8000)
	if err != nil {
		return err
	}
	testDS := &data.Dataset{Name: "testset", Classes: pool.Classes, X: pool.X[8000:], Y: pool.Y[8000:]}

	firstTrain, err := trainPool.Subset(500)
	if err != nil {
		return err
	}
	h0, err := model.TrainNaiveBayes("naive-bayes-500", firstTrain, 1)
	if err != nil {
		return err
	}
	outbox := notify.NewOutbox()
	eng, err := ci.NewEngine(cfg, testDS, ci.NewTruthOracle(testDS.Y), ci.EngineOptions{
		InitialModel: h0,
		Notifier:     outbox,
	})
	if err != nil {
		return err
	}
	plan := eng.Plan()
	fmt.Printf("plan: %s (labeled %d, unlabeled %d, per-commit labels %d)\n\n",
		plan.Kind, plan.LabeledN, plan.UnlabeledN, plan.PerCommitLabels)

	fmt.Printf("%-4s %-22s %-9s %-7s %-7s %-8s %-8s %-7s\n",
		"step", "model", "truth", "pass", "signal", "labels", "saved", "alarm")
	for k := 1; k <= commits; k++ {
		size := 500 + k*(7500/commits)
		if size > trainPool.Len() {
			size = trainPool.Len()
		}
		train, err := trainPool.Subset(size)
		if err != nil {
			return err
		}
		name := fmt.Sprintf("naive-bayes-%d", size)
		m, err := model.TrainNaiveBayes(name, train, 1)
		if err != nil {
			return err
		}
		res, err := eng.Commit(m, "developer", fmt.Sprintf("retrain on %d examples", size))
		if err != nil {
			fmt.Printf("%-4d %-22s %s\n", k, name, err)
			break
		}
		saved := fmt.Sprintf("%d", res.LabelsSaved)
		if res.EarlyExit {
			saved += "*" // verdict forced before the full reveal
		}
		fmt.Printf("%-4d %-22s %-9s %-7v %-7v %-8d %-8s %-7v\n",
			k, name, res.Truth, res.Pass, res.Signal, res.FreshLabels, saved, res.NeedNewTestset)
		if res.NeedNewTestset {
			fmt.Println("     (new testset alarm fired; stopping scenario)")
			break
		}
	}
	fmt.Printf("\nactive model : %s\n", eng.ActiveModelName())
	fmt.Printf("labels spent : %d total, %d max per commit\n",
		eng.LabelCost().Total(), eng.LabelCost().MaxPerCommit())
	totalSaved, earlyExits := 0, 0
	for _, r := range eng.History() {
		totalSaved += r.LabelsSaved
		if r.EarlyExit {
			earlyExits++
		}
	}
	fmt.Printf("labels saved : %d via %d early exits (* above)\n", totalSaved, earlyExits)
	fmt.Printf("testset      : generation %d, %d of %d evaluations used\n",
		eng.Testsets().Current().Generation,
		eng.Testsets().Budget()-eng.Testsets().Remaining(), eng.Testsets().Budget())
	for _, n := range outbox.Messages() {
		fmt.Printf("notification : [%s] to %s: %s\n", n.Kind, n.To, n.Subject)
	}
	return nil
}

// runRemote is the -server mode: submit -commits prediction vectors to a
// running server's asynchronous endpoint and poll each job to its
// terminal state. The synthetic predictions ramp in accuracy against the
// server's own synthetic testset layout (label i%classes), mirroring the
// local scenario's incrementally improving models. A non-empty project
// targets that tenant's scoped API instead of the default aliases.
func runRemote(root, project string, commits, classes int, seed int64) error {
	if commits < 1 || classes < 2 {
		return fmt.Errorf("remote mode needs -commits >= 1 and -classes >= 2")
	}
	root = strings.TrimRight(root, "/")
	base := root + "/api/v1"
	if project != "" {
		base += "/projects/" + project
	}
	var status server.StatusResponse
	if err := getJSON(base+"/status", &status); err != nil {
		return fmt.Errorf("reading server status: %w", err)
	}
	fmt.Printf("remote server: active=%s testset=%d generation=%d budget=%d/%d\n\n",
		status.ActiveModel, status.TestsetSize, status.TestsetGeneration,
		status.BudgetUsed, status.BudgetTotal)
	labels := make([]int, status.TestsetSize)
	for i := range labels {
		labels[i] = i % classes
	}

	fmt.Printf("%-4s %-10s %-9s %-8s %-7s %-8s %-8s %-8s\n",
		"k", "job", "state", "step", "signal", "labels", "saved", "alarm")
	for k := 1; k <= commits; k++ {
		acc := 0.70 + 0.25*float64(k)/float64(commits)
		preds, err := model.SimulatedPredictions(labels, classes, acc, seed+int64(k))
		if err != nil {
			return err
		}
		var accepted server.JobAcceptedResponse
		err = postJSON(base+"/commit/async", server.AsyncCommitRequest{
			CommitRequest: server.CommitRequest{
				Model:       fmt.Sprintf("remote-%d", k),
				Author:      "easeml-ci",
				Message:     fmt.Sprintf("simulated commit %d", k),
				Predictions: preds,
			},
		}, &accepted, http.StatusAccepted)
		if err != nil {
			return fmt.Errorf("submitting commit %d: %w", k, err)
		}
		st, err := pollJob(root+accepted.Poll, 30*time.Second)
		if err != nil {
			return fmt.Errorf("polling job %s: %w", accepted.JobID, err)
		}
		switch {
		case st.Result != nil:
			saved := fmt.Sprintf("%d", st.Result.LabelsSaved)
			if st.Result.EarlyExit {
				saved += "*" // verdict forced before the full reveal
			}
			fmt.Printf("%-4d %-10s %-9s %-8d %-7v %-8d %-8s %-8v\n",
				k, st.JobID, st.State, st.Result.Step, st.Result.Signal,
				st.Result.FreshLabels, saved, st.Result.NeedNewTestset)
			if st.Result.NeedNewTestset {
				fmt.Println("     (new testset alarm fired; stopping)")
				return nil
			}
		default:
			fmt.Printf("%-4d %-10s %-9s %s\n", k, st.JobID, st.State, st.Error)
		}
	}
	return nil
}

// pollJob polls a job-status URL until the job is terminal. Transient
// failures — connection refused/reset, or a 429/502/503/504 — are retried
// within the deadline rather than aborting: a durable server restarting
// mid-poll re-enqueues the job and answers the same URL once it is back.
// A Retry-After on the transient answer sets the next poll's delay; a job
// in the awaiting_labels state (the server's label provider is down and
// the job is parked, not failed) is announced once and polled through.
func pollJob(url string, timeout time.Duration) (server.JobStatusResponse, error) {
	deadline := time.Now().Add(timeout)
	lastState := ""
	for {
		delay := 50 * time.Millisecond
		var st server.JobStatusResponse
		err := getJSON(url, &st)
		switch {
		case err == nil:
			if st.State == "done" || st.State == "failed" {
				return st, nil
			}
			if st.State != lastState && st.State == "awaiting_labels" {
				fmt.Printf("     (job %s awaiting labels: provider outage on the server; it resumes automatically)\n", st.JobID)
			}
			lastState = st.State
		case isTransient(err) && time.Now().Before(deadline):
			// Server unreachable, restarting, or throttling; keep polling,
			// honoring its Retry-After when it sent one.
			if ra, ok := resilience.RetryAfterFromError(err); ok && ra > delay {
				delay = ra
			}
		default:
			return st, err
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job still %s after %s", st.State, timeout)
		}
		if rem := time.Until(deadline); delay > rem {
			delay = rem
		}
		time.Sleep(delay)
	}
}

// transientError marks a remote failure worth retrying under a deadline:
// the connection failed outright (the server is down or restarting) or
// it answered with a throttling/gateway/unavailable status — carrying the
// server's Retry-After hint when the answer had one.
type transientError struct {
	err        error
	retryIn    time.Duration
	hasRetryIn bool
}

func (e transientError) Error() string { return e.err.Error() }
func (e transientError) Unwrap() error { return e.err }
func (e transientError) RetryAfter() (time.Duration, bool) {
	return e.retryIn, e.hasRetryIn
}

func isTransient(err error) bool {
	var te transientError
	return errors.As(err, &te)
}

// remoteClient bounds every remote-mode request so a wedged server can't
// hang the CLI past pollJob's deadline.
var remoteClient = &http.Client{Timeout: 10 * time.Second}

func getJSON(url string, out any) error {
	resp, err := remoteClient.Get(url)
	if err != nil {
		return transientError{err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		statusErr := fmt.Errorf("GET %s: %s: %s", url, resp.Status, raw)
		switch resp.StatusCode {
		case http.StatusTooManyRequests, http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			te := transientError{err: statusErr}
			if ra, ok := resilience.ParseRetryAfter(resp.Header.Get("Retry-After"), time.Now()); ok {
				te.retryIn, te.hasRetryIn = ra, true
			}
			return te
		}
		return statusErr
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func postJSON(url string, body, out any, wantStatus int) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := remoteClient.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("POST %s: %s: %s", url, resp.Status, msg)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func loadConfig(path, condition string, reliability float64, steps int, adaptFlag, modeFlag string) (*ci.Config, error) {
	if path != "" {
		return ci.ParseScriptFile(path)
	}
	mode := ci.FPFree
	if modeFlag == "fn-free" {
		mode = ci.FNFree
	} else if modeFlag != "fp-free" {
		return nil, fmt.Errorf("mode must be fp-free or fn-free, got %q", modeFlag)
	}
	adapt := ci.Adaptivity{}
	switch adaptFlag {
	case "none":
		adapt.Kind = ci.AdaptivityNone
		adapt.Email = "integration@example.com"
	case "full":
		adapt.Kind = ci.AdaptivityFull
	case "firstChange":
		adapt.Kind = ci.AdaptivityFirstChange
	default:
		return nil, fmt.Errorf("adaptivity must be none, full, or firstChange, got %q", adaptFlag)
	}
	return ci.NewConfig(condition, reliability, mode, adapt, steps)
}
