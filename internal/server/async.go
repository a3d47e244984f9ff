package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"time"

	"github.com/easeml/ci/internal/engine"
	"github.com/easeml/ci/internal/labeling"
	"github.com/easeml/ci/internal/notify"
	"github.com/easeml/ci/internal/queue"
	"github.com/easeml/ci/internal/script"
)

// jobsRest is the poll/cancel row below a scope prefix; job IDs follow
// it.
const jobsRest = "commit/jobs/"

// AsyncCommitRequest is a commit submission to the asynchronous pipeline:
// the ordinary commit payload plus an optional webhook URL that receives
// the job's final JobStatusResponse as JSON when it finishes.
//
// A webhook makes the server originate an HTTP POST to a caller-chosen
// URL. Like every endpoint here (testset rotation, admin resets), this
// assumes trusted callers inside one trust boundary; an internet-facing
// deployment must put an authenticating proxy in front and restrict
// webhook targets there.
type AsyncCommitRequest struct {
	CommitRequest
	Webhook string `json:"webhook,omitempty"`
}

// JobAcceptedResponse is the 202 body of POST /api/v1/commit/async.
type JobAcceptedResponse struct {
	JobID string `json:"job_id"`
	State string `json:"state"`
	// Poll is the path to poll for the job's status.
	Poll string `json:"poll"`
}

// JobStatusResponse reports one job's state; Result is present once the
// job is done, Error once it has failed. The same shape is POSTed to the
// job's webhook on completion.
type JobStatusResponse struct {
	JobID string `json:"job_id"`
	// Seq is the job's FIFO submission position.
	Seq   int    `json:"seq"`
	State string `json:"state"`
	// Result carries the commit outcome (byte-identical to what the
	// synchronous endpoint returns for the same commit).
	Result *CommitResponse `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// badRequestError marks a commit failure as the caller's fault (HTTP 400
// rather than 422): the job executor cannot write status codes, so it
// types the error and the HTTP layer maps it.
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

// quotaError marks a commit rejected by the tenant's label budget
// (HTTP 429). Its message is a pure function of engine state and the
// configured quota, so durable replay reproduces it byte-for-byte.
type quotaError struct{ msg string }

func (e quotaError) Error() string { return e.msg }

// commitErrorStatus maps a commit-job error to the status code the
// synchronous endpoint has always used: 400 for malformed submissions,
// 409 for an exhausted testset budget or a job canceled before it ran
// (both "the engine state moved under you" conflicts, not evaluation
// failures), 422 for evaluation failures.
func commitErrorStatus(err error) int {
	var br badRequestError
	var qe quotaError
	switch {
	case errors.As(err, &br):
		return http.StatusBadRequest
	case errors.As(err, &qe):
		return http.StatusTooManyRequests
	case errors.Is(err, engine.ErrNeedNewTestset), errors.Is(err, queue.ErrCanceled):
		return http.StatusConflict
	case errors.Is(err, errWALPoisoned), errors.Is(err, labeling.ErrUnavailable):
		// Label-provider unavailability surfaces only when a shutdown
		// fails jobs that would otherwise park: a retryable outage, 503.
		return http.StatusServiceUnavailable
	default:
		return http.StatusUnprocessableEntity
	}
}

// evalCommit runs one commit through an engine and shapes the response:
// the single evaluation code path shared by live execution (under the
// engine lock) and crash-recovery replay. Validation against the current
// testset — and the tenant's label-budget quota — happens here (not at
// enqueue time) because a rotation or another commit may land between
// submission and execution, and because replay must reproduce the exact
// accept/reject decision the live run made.
func evalCommit(cfg *script.Config, eng *engine.Engine, labelQuota int, job *commitJob) (CommitResponse, error) {
	if got, want := job.predictionCount(), eng.Testsets().Current().Len(); got != want {
		return CommitResponse{}, badRequestError{fmt.Sprintf("predictions length %d != testset size %d", got, want)}
	}
	if spent := eng.LabelCost().Total(); labelQuota > 0 && spent >= labelQuota {
		return CommitResponse{}, quotaError{fmt.Sprintf("label quota exhausted: %d labels spent of %d", spent, labelQuota)}
	}
	res, err := eng.Commit(job.predictor(), job.Author, job.Message)
	if err != nil {
		return CommitResponse{}, err
	}
	return resultToResponse(cfg, res), nil
}

// executeCommitJob is the queue's executor: the one code path both the
// synchronous and asynchronous endpoints evaluate commits through, all
// serialized on the engine lock. In durable mode the commit record
// appended here is the transaction's commit point: a job whose record
// made it to disk never re-executes, a job whose record didn't is
// re-enqueued on restart — exactly-once either way.
func (s *Server) executeCommitJob(j *queue.Job[commitJob, CommitResponse]) (CommitResponse, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wlog != nil && s.walFailed.Load() {
		return CommitResponse{}, errWALPoisoned
	}
	start := time.Now()
	resp, err := evalCommit(s.cfg, s.eng, s.labelQuota, &j.Req)
	if err == nil {
		s.commitsEvaluated.Add(1)
		s.commitEvalNs.Add(uint64(time.Since(start).Nanoseconds()))
		s.recordSavings(resp)
	}
	if s.wlog == nil {
		return resp, err
	}
	if err != nil && errors.Is(err, labeling.ErrUnavailable) {
		// Provider outage: the job is about to park, not finish, so it must
		// NOT get a commit record — a recorded failure would be terminal on
		// replay, and worse, replay (which runs against the truth oracle)
		// would succeed where the live run couldn't and fail the audit
		// byte-compare. With only its submit record on disk the job
		// re-enqueues on restart: restart is itself a release path, and the
		// engine rolled back this evaluation's reveals, so the eventual
		// re-run is byte-identical to one that never saw the outage.
		return CommitResponse{}, err
	}
	if s.walFailed.Load() {
		// The engine's journal hit an append failure mid-commit; nothing
		// was logged, so the restart replays to the pre-commit state and
		// re-runs this job. Don't log a commit record for a half-applied
		// commit.
		return CommitResponse{}, errWALPoisoned
	}
	rec := recCommit{Job: j.ID}
	if err != nil {
		rec.Err = err.Error()
	} else {
		b, merr := json.Marshal(resp)
		if merr != nil {
			return CommitResponse{}, merr
		}
		rec.Res = b
	}
	s.tableMu.Lock()
	werr := s.walAppendSyncLocked(recTypeCommit, rec)
	if werr == nil {
		if e := s.table[j.ID]; e != nil {
			if err != nil {
				e.State = jobFailed
				e.Err = err.Error()
			} else {
				e.State = jobDone
				e.Res = rec.Res
			}
		}
	}
	s.tableMu.Unlock()
	if werr != nil {
		return CommitResponse{}, werr
	}
	s.maybeCompactLocked()
	return resp, err
}

// handleCommitAsync accepts a commit into the queue and returns 202 with
// the job handle; the caller polls the job or receives its webhook.
func (s *Server) handleCommitAsync(w http.ResponseWriter, r *http.Request, sc scope) {
	var req commitJob
	if err := s.readCommitRequest(w, r, &req, true); err != nil {
		writeError(w, http.StatusBadRequest, "malformed JSON: "+err.Error())
		return
	}
	if req.Model == "" {
		writeError(w, http.StatusBadRequest, "model name required")
		return
	}
	if req.Webhook != "" {
		u, err := url.Parse(req.Webhook)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("webhook %q is not an http(s) URL", req.Webhook))
			return
		}
	}
	// Submit kicks the shared scheduler itself (under the queue lock, via
	// the OnSubmit hook), so an accepted job is always a scheduled job.
	job, err := s.jobs.Submit(req)
	if err != nil {
		// Both a full backlog and a draining server are transient
		// server-side conditions; the client should retry later. A
		// poisoned WAL additionally carries the structured degraded body.
		writeStorageError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusAccepted, JobAcceptedResponse{
		JobID: job.ID,
		State: job.State().String(),
		Poll:  sc.prefix + jobsRest + job.ID,
	})
}

// handleCommitJob polls (GET) or cancels (DELETE) one queued commit job.
// Job IDs are sequential, not capability tokens: like every endpoint on
// this server (rotation, admin resets), cancellation assumes trusted
// callers — there is no per-client authorization layer.
func (s *Server) handleCommitJob(w http.ResponseWriter, r *http.Request, sc scope) {
	id := strings.TrimPrefix(sc.rest, jobsRest)
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusNotFound, "job ID required: "+sc.prefix+jobsRest+"{id}")
		return
	}
	switch r.Method {
	case http.MethodGet:
		job, ok := s.jobs.Job(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Sprintf("no job %q (unknown, or evicted after completion)", id))
			return
		}
		writeJSON(w, http.StatusOK, jobStatus(job))
	case http.MethodDelete:
		job, err := s.jobs.Cancel(id)
		switch {
		case errors.Is(err, queue.ErrNotFound):
			writeError(w, http.StatusNotFound, err.Error())
		case errors.Is(err, queue.ErrNotCancelable):
			writeError(w, http.StatusConflict, err.Error())
		case err != nil:
			writeError(w, http.StatusInternalServerError, err.Error())
		default:
			writeJSON(w, http.StatusOK, jobStatus(job))
		}
	}
}

// jobStatus shapes a job into its wire status.
func jobStatus(job *queue.Job[commitJob, CommitResponse]) JobStatusResponse {
	state, res, err := job.Peek()
	out := JobStatusResponse{JobID: job.ID, Seq: job.Seq, State: state.String()}
	switch state {
	case queue.Done:
		r := res
		out.Result = &r
	case queue.Failed:
		out.Error = err.Error()
	}
	return out
}

// deliverWebhook is the queue's OnFinish hook: jobs submitted with a
// webhook URL get their final status POSTed through the retry queue,
// which owns backoff, bounded attempts, and per-subscriber circuit
// breaking — OnFinish executes on the pool worker, and a slow or down
// subscriber must not stall the queue behind one job's callback. The
// job result itself stays pollable whatever happens to its delivery.
func (s *Server) deliverWebhook(job *queue.Job[commitJob, CommitResponse]) {
	if job.Req.Webhook == "" {
		return
	}
	payload, err := json.Marshal(jobStatus(job))
	if err != nil {
		s.webhooksFailed.Add(1)
		return
	}
	_ = s.deliver.Send(notify.Notification{
		Kind:    notify.KindWebhook,
		To:      job.Req.Webhook,
		Subject: fmt.Sprintf("easeml-ci job %s %s", job.ID, job.State()),
		Body:    string(payload),
	})
}

// onWebhookOutcome is the retry queue's terminal-outcome hook: it keeps
// the served counters, and in durable mode writes the delivery record
// that stops the next start from redelivering. Deliveries abandoned
// mid-backoff by Close never reach here — their missing record is what
// schedules redelivery after restart.
func (s *Server) onWebhookOutcome(n notify.Notification, delivered bool, attempts int, err error) {
	if delivered {
		s.webhooksSent.Add(1)
	} else {
		s.webhooksFailed.Add(1)
	}
	if s.wlog == nil {
		return
	}
	var body struct {
		JobID string `json:"job_id"`
	}
	if json.Unmarshal([]byte(n.Body), &body) != nil || body.JobID == "" {
		return
	}
	rec := recWebhook{Job: body.JobID, URL: n.To, Delivered: delivered, Attempts: attempts}
	if err != nil {
		rec.Err = err.Error()
	}
	s.tableMu.Lock()
	defer s.tableMu.Unlock()
	if s.walAppendSyncLocked(recTypeWebhook, rec) != nil {
		return
	}
	if e := s.table[body.JobID]; e != nil {
		e.WebhookDone = true
	}
}
