// Package ci is a from-scratch Go implementation of ease.ml/ci, the
// continuous integration system for machine learning models of
//
//	Renggli et al., "Continuous Integration of Machine Learning Models
//	with ease.ml/ci: Towards a Rigorous Yet Practical Treatment",
//	MLSys 2019.
//
// A CI condition such as
//
//	n - o > 0.02 +/- 0.01 /\ d < 0.1 +/- 0.01
//
// ("the new model is at least two points better than the old one, within
// one point of estimation error, and changes at most 10% of predictions")
// is evaluated after every model commit with a user-chosen reliability
// 1-delta, and the system computes how many labeled test examples that
// guarantee costs — applying the paper's optimizations (hierarchical
// testing, active labeling, implicit variance bounds) that cut the label
// complexity by up to two orders of magnitude.
//
// This package is the public façade: script parsing, sample-size planning,
// and the CI engine. The machinery lives in internal/ packages; see
// DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduction of every table and figure in the paper.
//
// # Serving performance
//
// Plan computation is built to serve heavy concurrent query traffic. All
// planning through PlanForConfig (and the engine and HTTP server on top of
// it) flows through a shared plan cache (internal/planner) keyed by the
// canonical condition formula plus every parameter that can change the
// answer. The cache — like the exact-bound memo under it — is a 16-way
// sharded LRU (internal/lru), so parallel plan queries don't serialize on
// a single mutex; the aggregated per-shard hit/miss counters are exposed
// via PlanCacheStats and the server's /api/v1/metrics endpoint, and the
// server's POST /api/v1/plan/batch endpoint (mirrored by the samplesize
// CLI's -batch mode) answers whole dashboard sweeps in one request, fanned
// across the worker pool.
//
// Underneath, the exact "tight numerical" bound of Section 4.3 runs on a
// fast engine (internal/bounds, internal/stats): mode-anchored binomial
// tail walks over a cached log-factorial table, an event-driven worst-case
// sweep over the lattice points where the failure curve's cut indices
// change (the supremum over the unknown mean computed exactly, ~15x faster
// than the grid search it replaced and free of the grid's argmax-resolution
// error), a memo over worst-case probes, and a sample-size search whose
// bracket is seeded by an inverse-normal-CDF estimate of the tight bound —
// about 165x faster per tail evaluation than the direct implementation and
// roughly half the probes per cold search versus the Hoeffding-seeded
// bracket.
//
// # Asynchronous commits
//
// Commit evaluation is asynchronous under the hood: the HTTP server
// (internal/server) drains every commit — synchronous or not — through a
// bounded FIFO job queue (internal/queue) into the engine, so a burst of
// submissions from many repositories is absorbed as 202-accepted jobs
// instead of stacking callers on the engine lock. POST /api/v1/commit/async
// returns a job ID to poll at GET /api/v1/commit/jobs/{id} (DELETE cancels
// a still-queued job), and an optional "webhook" URL in the submission
// receives the final job status as JSON (internal/notify). The synchronous
// POST /api/v1/commit is the same queue with the handler waiting, so both
// paths yield byte-identical responses and engine history for the same
// commit sequence; see examples/rest_api for the full flow, and the
// server's POST /api/v1/admin/reset-caches for the operator-facing
// cache-reset hook.
//
// # Packed commit evaluation
//
// The per-commit measurement of {n, o, d} — the one O(n) pass a commit
// cannot avoid — runs on a bit-packed columnar core (internal/evaluator):
// per-example booleans are []uint64 bitmaps, 64 examples per word, so
// disagreement and correctness are XOR/AND plus popcounts; the engine
// (internal/engine) keeps the promoted baseline's correctness bitmap
// cached across commits, narrows its label and baseline columns to bytes
// when the alphabet allows (eight examples compared per word via a
// zero-byte SWAR mask), measures the candidate on its own byte column
// when it has one (the server decodes a commit's predictions straight
// into bytes, queues and journals them that way, so a served commit
// costs one byte per example end to end), reveals labels through batched
// oracle calls
// (labeling.BatchOracle, testset.RevealFirst/RevealChunk) instead of n
// round trips, and reuses its prediction buffers — so a steady-state
// commit evaluation allocates nothing (BenchmarkCommitEval at n=1e5,
// gated at 0 allocs/op). This packed core is the engine's only
// evaluator; its element-wise reference lives in the engine's tests,
// which hold it to bit-identical verdicts, label charges and reveal sets
// on every commit. Engine.Evaluate exposes the measurement as a dry run
// ("what would this commit's verdict be?") without spending budget or
// history, and the server reports commits_evaluated and
// commit_eval_ns_total in /api/v1/metrics so served evaluation latency is
// observable.
//
// # Early decision
//
// Evaluation is sequential by default: instead of revealing every label
// of the plan up front, the engine reveals them in chunks along a
// geometric look schedule (internal/planner.NextLook,
// testset.RevealFirst/RevealChunk), re-measures the partial {n, o, d}
// with masked popcounts after each chunk, and stops the moment the
// verdict is forced — when even the worst-case assignment of every
// still-unrevealed label cannot change the three-valued truth under
// internal/interval. That exit is deterministic and no-regret: the
// verdict, the pass/fail signal, the promotion decision, and the whole
// commit history are byte-identical to the static one-shot plan (the
// property suite in internal/engine commits the same sequences to both
// and compares), and the worst-case label cost of any single evaluation
// never exceeds the static plan's. Most commits are not borderline, so
// the median cost drops well below n — the non-borderline benchmark
// workload (BenchmarkEarlyExitLabelCost) pays 768 instead of 1200
// labels at the median, and tools/benchdiff gates that metric so the
// saving cannot regress silently. An opt-in anytime-valid sequential
// bound (EarlyDecision.SequentialDelta, internal/bounds.SerflingEpsilon
// with a geometrically-spent delta) tightens the exit further at the
// price of that extra failure budget. Savings are observable end to
// end: Result.LabelsSaved/Looks/EarlyExit per commit,
// labels_saved_total, early_exits_total, and the per-look histogram in
// /api/v1/metrics (global and per project), the `saved` column of both
// easeml-ci views, and look decisions journaled in the WAL so durable
// replay reproduces the exact label charges. engine.EarlyDecision
// (ci.EarlyDecision, the server's -no-early-exit/-sequential-delta
// flags) disables or tunes the loop.
//
// # Durability
//
// The server can run durably: started with -data-dir, every acknowledged
// mutation — commit submissions, evaluation results, testset rotations,
// label reveals, webhook outcomes — is journaled to an append-only
// write-ahead log (internal/wal) before or atomically with the HTTP
// response that acknowledges it. Each record carries a CRC; on reopen a
// torn tail from a mid-write crash is truncated and the surviving prefix
// is replayed through the same deterministic evaluation path that
// produced it, with the logged label reveals, budget charges, and
// promotions verified byte-for-byte against the re-execution. Recovery
// therefore lands on an exact record boundary: the restored state is
// byte-identical to a server that never died, a commit job that was
// accepted but not yet evaluated is re-enqueued and runs exactly once
// (the logged commit record is the commit point), and a webhook promised
// at submission is delivered by the revived process. Webhook delivery
// itself retries with exponential backoff and jitter behind a
// per-subscriber circuit breaker, all visible under webhook_retry and
// wal in /api/v1/metrics; the log is compacted into a snapshot
// automatically past a size threshold (or on demand via POST
// /api/v1/admin/compact). A fresh data directory is stamped with a
// fingerprint of the server's configuration (condition, reliability,
// adaptivity, steps, testset, baseline); every restart verifies the
// supplied flags against it and refuses a mismatch, so an existing log
// can never be silently replayed under a config it was not written
// under. If an append ever fails, the server refuses further mutations
// with 503 rather than acknowledge writes it cannot persist. See
// examples/rest_api for a simulated power cut mid-job and the restart
// that makes it invisible to the polling client.
//
// # Multi-tenancy
//
// The served process is a multi-project control plane: projects are a
// first-class resource, each an isolated tenant with its own ci script,
// testset lineage, engine, commit queue, and — in durable mode — its own
// write-ahead log under -data-dir/<project-id>/. POST /api/v1/projects
// registers one at runtime (script, labels, baseline predictions, and
// optional quotas in the body); the full single-tenant API then hangs
// under /api/v1/projects/{id}/..., and every pre-projects path keeps
// working as a byte-for-byte alias for the implicit "default" project
// defined by the server's flags. The project registry is itself journaled
// to a control-plane log (internal/registry, under -data-dir/_control),
// replayed strictly on restart: registered projects reopen from their own
// logs, suspended ones come back suspended, and a directory stranded by a
// crash mid-delete is swept.
//
// Isolation is per-tenant state; the expensive read paths are shared.
// All projects plan through one process-wide sharded plan cache and one
// exact-bound memo, so tenants running the same script warm each other.
// Evaluation capacity is shared too: one worker pool drains every
// project's commit queue under smooth weighted round-robin (per-project
// weight, bounded in-flight), so a tenant flooding its queue cannot
// starve another's commits — it only spends its own share of the
// scheduler. Per-tenant quotas bound the blast radius in the other
// direction: a queue-depth cap answers 503 past the backlog bound, and a
// cumulative label budget answers 429 once spent (deterministically, so
// durable replay reproduces the refusals). GET /api/v1/metrics reports
// the shared caches once plus scheduler and per-project counters;
// /api/v1/projects/{id}/metrics is the shared caches plus that one
// project's counters, in the same shape as its row. The admin
// endpoints (reset-caches, compact, backup) act on one project under
// /api/v1/projects/{id}/admin/... or with ?project={id}, and on the whole
// control plane otherwise. A scoped async commit's poll path stays in its
// scope. One table routes every request (internal/server/routes.go).
// Shutdown closes in dependency order — intake stops everywhere, the pool
// drains every accepted job, then tenants and finally the control log
// close — so a commit racing shutdown is either fully journaled or never
// acknowledged. See examples/rest_api for a two-tenant walkthrough.
//
// # Label sourcing
//
// Labels default to in-process ground truth, but the server can source
// them from a remote provider (-oracle-url): each reveal batch becomes a
// POST against the provider, driven by a resilient client
// (internal/labeling) with per-request timeouts, bounded exponential
// backoff with jitter, Retry-After honoring, and a circuit breaker
// (internal/resilience, shared with webhook delivery). The fault-
// tolerance guarantee is that a flaky provider can delay a verdict but
// never change it: label batches are verified before anything is marked
// revealed, a failed round trip rolls the evaluation back to its
// pre-commit state, and verified labels are cached so a re-run
// re-requests only the remainder — no label is ever charged twice or
// lost. When the provider stays down past the retry budget (or the
// breaker is open), the commit job parks in the awaiting_labels state —
// distinct from failure — and is re-queued automatically on a timer
// paced by the provider's own Retry-After hint, on the next restart
// (parking journals no commit record, so the submit record re-enqueues
// the job), or never revealed to a canceled job's waiter. For any fault
// schedule that eventually succeeds, the verdict history, label ledger,
// and reveal state are byte-identical to a run that never saw a fault —
// across early-decision looks, crash/restart, and multi-tenant
// scheduling (internal/engine's chaos suite is the executable form of
// this sentence). Oracle health — attempts, retries, breaker state,
// label-fetch latency — is served under label_oracle in /api/v1/metrics,
// globally and per project, and survives an admin cache reset: it is
// delivery state, not a cache. See examples/rest_api for a provider
// outage mid-evaluation that parks, recovers, and lands the identical
// verdict.
package ci
