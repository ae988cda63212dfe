package exp

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/metrics"
	"repro/pkg/api"
)

// Job statuses, in lifecycle order (re-exported from the pkg/api wire
// contract). A job is terminal once it reaches JobDone, JobFailed, or
// JobCanceled; JobInterrupted is the non-terminal shutdown state a
// restarted server resumes from.
const (
	JobQueued      = api.JobQueued
	JobRunning     = api.JobRunning
	JobInterrupted = api.JobInterrupted
	JobDone        = api.JobDone
	JobFailed      = api.JobFailed
	JobCanceled    = api.JobCanceled
)

// JobInfo is the wire form of a job's state (see api.JobInfo).
type JobInfo = api.JobInfo

// JobsStats is the wire form of the registry counters (see api.JobsStats).
type JobsStats = api.JobsStats

// DefaultMaxJobs bounds the job registry when the caller does not choose
// a limit.
const DefaultMaxJobs = 256

// Job listing page bounds: DefaultJobPageSize applies when the client
// does not pass ?limit=, MaxJobPageSize clamps what it may ask for.
const (
	DefaultJobPageSize = 50
	MaxJobPageSize     = 500
)

// ErrTooManyJobs tags submissions rejected because the registry is full
// of jobs that are still queued or running (servers map it to 429 with a
// Retry-After hint).
var ErrTooManyJobs = errors.New("exp: job registry full (all tracked jobs still queued or running)")

// ErrJobCanceled is the terminal error of a canceled job: the sweep
// stopped scheduling runs after DELETE /v1/jobs/{id}. Runs that finished
// before the cancel remain cached.
var ErrJobCanceled = errors.New("exp: job canceled")

// ErrJobInterrupted marks a job caught mid-execution by graceful
// shutdown: its runs so far are in the store, its status record says
// interrupted, and a server restarted on the same data dir re-enqueues it
// under the same ID.
var ErrJobInterrupted = errors.New("exp: job interrupted by server shutdown; a restart on the same data dir resumes it")

// ErrShuttingDown tags submissions rejected because the registry is
// draining for shutdown (servers map it to 503).
var ErrShuttingDown = errors.New("exp: server shutting down; no new jobs accepted")

// ErrJournalUnavailable tags submissions rejected because the durable ID
// allocation write failed: handing out an ID the journal cannot cover
// would let a rebooted server reissue it to a different job.
var ErrJournalUnavailable = errors.New("exp: job journal unavailable")

// Fixed counter IDs for job statistics, in the slot order passed to
// metrics.NewSet in NewJobs.
const (
	jobsSubmitted metrics.CounterID = iota
	jobsRejected
	jobsCompleted
	jobsFailed
	jobsCanceled
	jobsRetired
	jobsResumed
	jobsRunsSkipped
)

// Job is one asynchronous sweep: a spec validated at submission and
// expanded lazily (one run at a time) while it executes in the background
// over the engine's worker pool, with per-run results observable while
// the sweep runs. The job itself retains no result bytes — only a
// per-run completion bitmap — so a tracked job costs one bit per run,
// not one report: WaitRun reconstructs any completed run on demand from
// the expansion and the engine's content-addressed cache, which is
// exactly as durable as the cache's backing store. Cancellation travels
// through the job's context into Engine.executeStream: once canceled, no
// further runs are scheduled and the job lands in the terminal canceled
// state. A graceful shutdown travels the same path but lands in the
// non-terminal interrupted state, whose journal record a restarted
// registry resumes from.
type Job struct {
	// ID names the job in the HTTP API ("job-000001", …).
	ID string

	seq     int
	x       *Expansion // nil only when a resumed spec failed to expand
	engine  *Engine
	ctx     context.Context
	cancel  context.CancelFunc
	resumed bool // re-enqueued from the journal after a restart

	mu           sync.Mutex
	notify       chan struct{} // closed and replaced on every state change
	status       string
	ready        []bool // per-run completion bitmap, indexed by run
	completed    int
	hits         int // completed runs served from cache
	misses       int // completed runs that were simulated
	specKey      string
	err          error
	userCanceled bool // Cancel was called; beats interrupted in finish
	interrupted  bool // Quiesce caught the job before it finished
}

// Total returns the number of concrete runs the job's spec expands into
// (0 for a resumed job whose spec no longer expands).
func (j *Job) Total() int {
	if j.x == nil {
		return 0
	}
	return j.x.Total()
}

// Info snapshots the job's current state.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:        j.ID,
		Status:    j.status,
		Runs:      j.Total(),
		Completed: j.completed,
		Hits:      j.hits,
		Misses:    j.misses,
		Resumed:   j.resumed,
		SpecKey:   j.specKey,
	}
	if j.err != nil {
		info.Error = j.err.Error()
	}
	return info
}

// Status returns the job's current lifecycle state.
func (j *Job) Status() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Err returns the job's failure, if any (nil while non-terminal;
// ErrJobCanceled after a cancel, ErrJobInterrupted during drain).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Cancel requests cancellation. Idempotent, and a no-op once the job is
// terminal: the context unwinds Engine.executeStream, which stops
// scheduling runs, and the job reaches the terminal canceled state when
// the sweep's in-flight runs drain. Callers observe the transition via
// Info/WaitRun.
func (j *Job) Cancel() {
	j.mu.Lock()
	j.userCanceled = true
	j.mu.Unlock()
	j.cancel()
}

// interrupt is the shutdown path's cancellation: the sweep unwinds the
// same way, but finish lands in the resumable interrupted state instead
// of the terminal canceled one. A cancel the user already requested wins
// — an acknowledged DELETE must not resurrect as a resumed job.
func (j *Job) interrupt() {
	j.mu.Lock()
	if !api.JobTerminal(j.status) && !j.userCanceled {
		j.interrupted = true
	}
	j.mu.Unlock()
	j.cancel()
}

// settled reports whether the job will produce no further results: it is
// terminal, or interrupted (owing its remaining results to the process
// that resumes it).
func settled(status string) bool {
	return api.JobTerminal(status) || status == JobInterrupted
}

// WaitRun blocks until run i's result is available and returns it; ok is
// false when the job settled without producing run i (a failed, canceled,
// or interrupted sweep) or ctx was canceled first. Results arrive in
// sweep completion order internally, so waiting index by index streams
// them in deterministic expansion order.
//
// The result is rebuilt on demand rather than retained by the job: the
// run's identity (key, scenario, params) comes from the deterministic
// expansion and its report bytes from the engine's content-addressed
// cache, which holds exactly the blob the sweep computed. With a durable
// store behind the cache the rebuild always succeeds; on a memory-only
// engine a report evicted under cache pressure makes WaitRun report the
// run unavailable, the same answer a settled-short job gives.
func (j *Job) WaitRun(ctx context.Context, i int) (RunResult, bool) {
	for {
		j.mu.Lock()
		if i < len(j.ready) && j.ready[i] {
			j.mu.Unlock()
			return j.rebuildRun(ctx, i)
		}
		if settled(j.status) {
			j.mu.Unlock()
			return RunResult{}, false
		}
		ch := j.notify
		j.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return RunResult{}, false
		}
	}
}

// rebuildRun reconstructs a completed run's result outside the job lock.
// Byte-for-byte identical to the result the engine streamed: Params
// marshal in sorted key order, and the report is the exact cached blob.
func (j *Job) rebuildRun(ctx context.Context, i int) (RunResult, bool) {
	r, err := j.x.RunAt(i)
	if err != nil {
		return RunResult{}, false
	}
	blob, ok := j.engine.cache.Peek(ctx, r.Key)
	if !ok {
		return RunResult{}, false
	}
	return RunResult{
		RunResult: api.RunResult{
			Key:      r.Key,
			Scenario: r.Scenario,
			Scale:    r.Scale.String(),
			Params:   r.Params,
			Report:   blob,
		},
	}, true
}

// signal wakes every waiter; callers must hold j.mu.
func (j *Job) signal() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// onRun records one completed run (the engine's executeStream callback;
// may be called from several worker goroutines at once). Only the
// completion bit and the counters are kept — the result itself is
// dropped and rebuilt from cache on demand by WaitRun.
func (j *Job) onRun(i int, rr RunResult) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.ready[i] = true
	j.completed++
	if rr.Cached {
		j.hits++
	} else {
		j.misses++
	}
	j.signal()
}

// finish moves the job to its settled state: done on success; canceled
// when the sweep was cut short by Cancel; interrupted when graceful
// shutdown cut it short (resumable, not terminal); failed otherwise.
func (j *Job) finish(res *SweepResult, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch {
	case err == nil:
		j.status = JobDone
		j.specKey = res.SpecKey
	case errors.Is(err, ErrSweepCanceled) && !j.userCanceled && j.interrupted:
		j.status = JobInterrupted
		j.err = ErrJobInterrupted
	case errors.Is(err, ErrSweepCanceled):
		j.status = JobCanceled
		j.err = ErrJobCanceled
	default:
		j.status = JobFailed
		j.err = err
	}
	j.signal()
}

// terminal reports whether the job has finished (done, failed, or
// canceled).
func (j *Job) terminal() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return api.JobTerminal(j.status)
}

// Jobs is a bounded registry of asynchronous sweeps over one engine.
// Submissions validate eagerly (bad specs fail synchronously, like POST
// /v1/run) but expand lazily, then execute in a background goroutine. The
// registry holds at most max jobs: when full, the oldest terminal job is
// retired FIFO to make room, and if every tracked job is still queued or
// running the submission is rejected with ErrTooManyJobs — so memory
// stays flat no matter how many sweeps a long-lived server has answered.
//
// With a Journal attached, every accepted job is durable: its spec is
// journaled at submission and its status once, when it settles, each one
// fsynced record appended to the journal's log; retiring a job writes
// nothing. Quiesce drains in-flight work into resumable interrupted
// records on shutdown, and Recover re-enqueues every job without a
// terminal record on boot — resumed sweeps consult the content-addressed
// store first, so recovery re-simulates only the runs the crash actually
// lost. Safe for concurrent use.
type Jobs struct {
	engine  *Engine
	workers int
	max     int
	journal *Journal // nil = in-memory registry only
	met     *metrics.Set
	wg      sync.WaitGroup // live job goroutines, for Quiesce

	mu          sync.Mutex
	jobs        map[string]*Job
	order       []string // submission order, for FIFO retirement
	seq         int
	seqReserved int  // highest seq the on-disk SEQ watermark covers
	quiescing   bool // draining for shutdown; reject new submissions
}

// NewJobs returns an empty registry; workers bounds each job's simulation
// pool (0 = all cores), max bounds the registry (<= 0 selects
// DefaultMaxJobs), and journal (nil for in-memory only) makes accepted
// jobs durable. With a journal, call Recover before serving to re-enqueue
// work a previous process left behind.
func NewJobs(engine *Engine, workers, max int, journal *Journal) *Jobs {
	if max <= 0 {
		max = DefaultMaxJobs
	}
	return &Jobs{
		engine:  engine,
		workers: workers,
		max:     max,
		journal: journal,
		met: metrics.NewSet("submitted", "rejected", "completed", "failed",
			"canceled", "retired", "resumed", "runs_skipped_on_resume"),
		jobs: make(map[string]*Job),
	}
}

// Submit validates and enqueues a spec, returning the queued job. The
// spec is validated synchronously so malformed submissions fail with the
// same errors as POST /v1/run, but expansion itself is lazy: the grid is
// never materialized, so a job may sweep up to MaxJobRuns runs (far past
// the synchronous endpoint's MaxRuns) without the submission allocating
// more than one run. Execution happens in the background. With a
// journal, the job's ID allocation is made durable before the ID is
// returned (a failed watermark write rejects the submission — an ID a
// rebooted server could reissue must never escape), and its spec record
// follows best-effort, also before Submit returns. No status record is
// written until the job settles: recovery resumes a job without one.
func (js *Jobs) Submit(spec Spec) (*Job, error) {
	// A draining registry refuses before it looks at the spec, so a 503
	// answers any submission once Quiesce has begun.
	js.mu.Lock()
	quiescing := js.quiescing
	js.mu.Unlock()
	if quiescing {
		js.met.Add(jobsRejected, 1)
		return nil, ErrShuttingDown
	}
	x, err := spec.Expansion(MaxJobRuns)
	if err != nil {
		return nil, err
	}

	js.mu.Lock()
	if js.quiescing {
		js.mu.Unlock()
		js.met.Add(jobsRejected, 1)
		return nil, ErrShuttingDown
	}
	for len(js.jobs) >= js.max {
		if !js.retireOldestLocked() {
			js.mu.Unlock()
			js.met.Add(jobsRejected, 1)
			return nil, ErrTooManyJobs
		}
	}
	js.seq++
	if js.journal != nil && js.seq > js.seqReserved {
		// Reserve a chunk of IDs on disk before this one escapes. Held
		// under js.mu so the watermark only ever moves forward; it is one
		// fsync per seqChunk submissions, not per submission.
		target := js.seq + seqChunk
		if err := js.journal.RecordSeq(target); err != nil {
			js.seq--
			js.mu.Unlock()
			js.met.Add(jobsRejected, 1)
			return nil, fmt.Errorf("%w: %v", ErrJournalUnavailable, err)
		}
		js.seqReserved = target
	}
	j := js.newJob(js.seq, x, false)
	js.jobs[j.ID] = j
	js.order = append(js.order, j.ID)
	js.wg.Add(1)
	js.mu.Unlock()

	if js.journal != nil {
		// Best-effort durability from here: a failed write degrades to a
		// job that may not survive a restart, counted in journal_errors,
		// never to a wrong or duplicate job.
		js.journal.RecordSpec(j.ID, spec)
	}
	js.met.Add(jobsSubmitted, 1)
	go js.run(j)
	return j, nil
}

// newJob builds a queued job with sequence number seq over x (nil only
// when a resumed spec no longer expands). Submit and Recover both build
// their jobs here; the caller registers the job.
func (js *Jobs) newJob(seq int, x *Expansion, resumed bool) *Job {
	ctx, cancel := detachedContext()
	j := &Job{
		ID:      formatJobID(seq),
		seq:     seq,
		x:       x,
		engine:  js.engine,
		ctx:     ctx,
		cancel:  cancel,
		notify:  make(chan struct{}),
		status:  JobQueued,
		resumed: resumed,
	}
	if x != nil {
		j.ready = make([]bool, x.Total())
	}
	return j
}

// detachedContext is the registry's one sanctioned escape from request
// contexts: a job outlives the HTTP request that submitted it, and
// graceful shutdown must interrupt jobs explicitly (Quiesce) so in-flight
// runs drain into the store instead of being torn mid-write — deriving
// job contexts from the server's signal context would cancel them first.
func detachedContext() (context.Context, context.CancelFunc) {
	//lint:ignore ctxplumb job lifetime is registry-scoped by design; Quiesce interrupts explicitly
	return context.WithCancel(context.Background())
}

// run executes one job to its settled state.
func (js *Jobs) run(j *Job) {
	defer js.wg.Done()
	// Release the cancel context's resources once the sweep has drained,
	// whatever the settled state.
	defer j.cancel()

	j.mu.Lock()
	j.status = JobRunning
	j.signal()
	j.mu.Unlock()

	res, err := js.engine.executeStream(j.ctx, j.x, js.workers, func(i int, rr RunResult) {
		j.onRun(i, rr)
		if j.resumed && rr.Cached {
			js.met.Add(jobsRunsSkipped, 1)
		}
	})
	j.finish(res, err)
	js.journalSettled(j)
	switch j.Status() {
	case JobDone:
		js.met.Add(jobsCompleted, 1)
	case JobCanceled:
		js.met.Add(jobsCanceled, 1)
	case JobInterrupted:
		// Not terminal: the restarted registry's resume counters pick the
		// job back up.
	default:
		js.met.Add(jobsFailed, 1)
	}
}

// journalSettled writes a settled job's one status record, if a journal
// is attached. Best-effort like the spec record: a failed write leaves
// the job without a status record, which a restart resumes.
func (js *Jobs) journalSettled(j *Job) {
	if js.journal != nil {
		js.journal.RecordStatus(j.ID, journalStatus{Status: j.Status()})
	}
}

// Quiesce drains the registry for graceful shutdown: new submissions are
// rejected, every live job is interrupted (in-flight runs finish and are
// stored; no new runs are scheduled), and Quiesce returns once every job
// goroutine has flushed its final journal record — or ctx expires first.
// Refusals begin in the same critical section that interrupts the jobs,
// so a submission refused for the drain proves every job it could have
// seen is already interrupted. After a
// clean quiesce the journal holds a complete, resumable picture of every
// job the shutdown cut short.
func (js *Jobs) Quiesce(ctx context.Context) error {
	js.mu.Lock()
	js.quiescing = true
	for _, id := range js.order {
		js.jobs[id].interrupt()
	}
	js.mu.Unlock()
	done := make(chan struct{})
	go func() {
		js.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("exp: quiesce: %w", ctx.Err())
	}
}

// Recover replays the journal into the registry: the ID-allocation
// watermark is restored (so no past ID is ever reissued), jobs with a
// terminal status record are counted as retired (their results live in
// the content-addressed store; the IDs answer 410 like any retired job),
// and every other job — one with no status record (still queued or
// running when its process died) or an interrupted one — is re-enqueued
// under its original ID with Resumed set. Resumed sweeps hit the durable
// store for every run a previous process completed, so recovery
// re-simulates only lost work. Returns the number of jobs re-enqueued.
// Call once, before the registry starts serving.
func (js *Jobs) Recover() int {
	if js.journal == nil {
		return 0
	}
	seq, entries, settled := js.journal.Recover()
	js.mu.Lock()
	if seq > js.seq {
		js.seq = seq
	}
	// Force a fresh reservation on the next submission: the new chunk
	// starts above everything recovered, so the watermark never regresses.
	js.seqReserved = 0
	js.mu.Unlock()
	js.met.Add(jobsRetired, int64(settled))

	resumed := 0
	for _, e := range entries {
		x, err := e.Spec.Expansion(MaxJobRuns)
		j := js.newJob(e.Seq, x, true)
		js.mu.Lock()
		js.jobs[j.ID] = j
		js.order = append(js.order, j.ID)
		if err == nil {
			js.wg.Add(1)
		}
		js.mu.Unlock()
		js.met.Add(jobsResumed, 1)
		if err != nil {
			// The journaled spec no longer expands (scenario registry
			// drift, config schema change): fail the job loudly under its
			// own ID rather than silently dropping accepted work.
			j.finish(nil, fmt.Errorf("exp: resumed job spec no longer expands: %w", err))
			js.journalSettled(j)
			js.met.Add(jobsFailed, 1)
			j.cancel()
			continue
		}
		resumed++
		go js.run(j)
	}
	return resumed
}

// retireOldestLocked drops the oldest terminal job, reporting whether one
// existed. Queued and running jobs are never retired: a job a client is
// still waiting on cannot disappear. The journal is not written: its
// terminal status record already retires the job at the next boot.
// Callers must hold js.mu.
func (js *Jobs) retireOldestLocked() bool {
	for i, id := range js.order {
		if !js.jobs[id].terminal() {
			continue
		}
		js.order = append(js.order[:i], js.order[i+1:]...)
		delete(js.jobs, id)
		js.met.Add(jobsRetired, 1)
		return true
	}
	return false
}

// Get returns a tracked job by ID.
func (js *Jobs) Get(id string) (*Job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.jobs[id]
	return j, ok
}

// LookupState distinguishes the three answers a job ID can have: tracked,
// retired (the ID was issued, but the bounded registry has since dropped
// the terminal record FIFO), or never issued at all. Servers map these to
// 200, 410, and 404.
type LookupState int

const (
	LookupFound LookupState = iota
	LookupRetired
	LookupUnknown
)

// Lookup resolves an ID to its job, or explains its absence. Retirement
// is detected without any per-retired-job memory: IDs are dense sequence
// numbers, so a canonical ID at or below the current sequence that is no
// longer tracked must have been retired. (After a crash recovery the
// sequence may include a small reserved gap of never-issued IDs, which
// also answer retired — conservatively harmless.)
func (js *Jobs) Lookup(id string) (*Job, LookupState) {
	js.mu.Lock()
	defer js.mu.Unlock()
	if j, ok := js.jobs[id]; ok {
		return j, LookupFound
	}
	if seq, ok := parseJobID(id); ok && seq >= 1 && seq <= js.seq {
		return nil, LookupRetired
	}
	return nil, LookupUnknown
}

// List returns up to limit tracked jobs newest-first, starting strictly
// after pageToken (a job ID from a previous page; empty starts at the
// newest). The returned token is empty when the listing is exhausted.
// A malformed token is an error; a token whose job has since been retired
// still works, because position is derived from the ID's sequence number,
// not the record.
func (js *Jobs) List(limit int, pageToken string) ([]JobInfo, string, error) {
	if limit <= 0 {
		limit = DefaultJobPageSize
	}
	if limit > MaxJobPageSize {
		limit = MaxJobPageSize
	}
	after := int(^uint(0) >> 1) // no token: start above every sequence
	if pageToken != "" {
		seq, ok := parseJobID(pageToken)
		if !ok {
			return nil, "", fmt.Errorf("exp: malformed page token %q (want a job ID)", pageToken)
		}
		after = seq
	}

	js.mu.Lock()
	defer js.mu.Unlock()
	infos := make([]JobInfo, 0, limit)
	next := ""
	// order is submission order, so walking it backwards yields newest
	// first; sequence numbers are strictly increasing with position.
	for i := len(js.order) - 1; i >= 0; i-- {
		j := js.jobs[js.order[i]]
		if j.seq >= after {
			continue
		}
		if len(infos) == limit {
			next = infos[limit-1].ID
			break
		}
		infos = append(infos, j.Info())
	}
	return infos, next, nil
}

// formatJobID renders a sequence number in the canonical wire form
// ("job-000001"; wider, without padding, past a million submissions).
func formatJobID(seq int) string {
	return fmt.Sprintf("job-%06d", seq)
}

// parseJobID inverts formatJobID, accepting only the canonical form —
// "job-1" is not an alias for "job-000001", it is an unknown ID.
func parseJobID(id string) (int, bool) {
	const prefix = "job-"
	if !strings.HasPrefix(id, prefix) {
		return 0, false
	}
	seq, err := strconv.Atoi(id[len(prefix):])
	if err != nil || seq < 1 || formatJobID(seq) != id {
		return 0, false
	}
	return seq, true
}

// Stats snapshots all counters, including the attached journal's.
func (js *Jobs) Stats() JobsStats {
	js.mu.Lock()
	tracked := int64(len(js.jobs))
	js.mu.Unlock()
	st := JobsStats{
		Submitted:           js.met.Value(jobsSubmitted),
		Rejected:            js.met.Value(jobsRejected),
		Completed:           js.met.Value(jobsCompleted),
		Failed:              js.met.Value(jobsFailed),
		Canceled:            js.met.Value(jobsCanceled),
		Retired:             js.met.Value(jobsRetired),
		Tracked:             tracked,
		Resumed:             js.met.Value(jobsResumed),
		RunsSkippedOnResume: js.met.Value(jobsRunsSkipped),
	}
	if js.journal != nil {
		st.JournalErrors = js.journal.errorCount()
		st.JournalCorruptDropped = js.journal.corruptCount()
	}
	return st
}
