package serve

import (
	"container/heap"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"gnsslna/internal/jsonl"
)

// ErrQueueFull is returned by Submit when the queue is at depth and the new
// job's priority does not beat the lowest queued work (load shedding only
// ever evicts strictly lower-priority jobs).
var ErrQueueFull = errors.New("serve: queue full")

// ErrUnknownJob is returned for operations on job IDs the queue has never
// seen (or has compacted away).
var ErrUnknownJob = errors.New("serve: unknown job")

// ErrNotCancelable is returned by Cancel for jobs already terminal.
var ErrNotCancelable = errors.New("serve: job already terminal")

// QueueOptions configures OpenQueue.
type QueueOptions struct {
	// MaxDepth bounds the queued (not running) jobs; 0 defaults to 1024.
	MaxDepth int
	// KeepTerminal bounds the terminal jobs retained for status queries
	// across compactions; 0 defaults to 512.
	KeepTerminal int
	// MaxSegBytes triggers journal compaction; 0 defaults to 4 MiB.
	MaxSegBytes int64
	// NoSync skips the per-append fsync (tests and load benchmarks; the
	// durability proof runs with sync on).
	NoSync bool
	// Now overrides the lifecycle clock (tests).
	Now func() time.Time
}

// RecoveryReport summarizes what OpenQueue reconstructed from the journal.
type RecoveryReport struct {
	// Queued and Resumed count jobs recovered into the pending queue:
	// Resumed were running at the crash and will restart from their
	// checkpoints; Queued never started.
	Queued, Resumed int
	// Terminal counts completed jobs whose state (and dedupe key) was
	// retained.
	Terminal int
	// TailLosses names each journal segment whose torn tail dropped
	// records, in segment order. Losses are bounded to unacknowledged
	// appends: an acknowledged record was flushed before the client saw
	// its job ID.
	TailLosses []*jsonl.TailError
}

// Queue is the durable job queue: every transition is journaled before it
// is acknowledged, and the in-memory index (jobs by ID, pending heap,
// dedupe map) is a pure function of the journal, which is what makes
// crash recovery a replay.
type Queue struct {
	mu      sync.Mutex
	wal     *wal
	jobs    map[string]*Job
	dedupe  map[string]string
	pending pendingHeap
	running int
	seq     uint64
	opts    QueueOptions
	notify  chan struct{}
	report  RecoveryReport
	closed  bool
}

// pendingHeap orders queued jobs: highest priority first, FIFO within a
// priority.
type pendingHeap []*Job

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(i, j int) bool {
	if h[i].Spec.Priority != h[j].Spec.Priority {
		return h[i].Spec.Priority > h[j].Spec.Priority
	}
	return h[i].Seq < h[j].Seq
}
func (h pendingHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *pendingHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *pendingHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h pendingHeap) lowest() (int, bool) {
	// The heap root is the best job; the worst is any leaf — scan.
	if len(h) == 0 {
		return 0, false
	}
	worst := 0
	for i := 1; i < len(h); i++ {
		if h[i].Spec.Priority < h[worst].Spec.Priority ||
			(h[i].Spec.Priority == h[worst].Spec.Priority && h[i].Seq > h[worst].Seq) {
			worst = i
		}
	}
	return worst, true
}

// OpenQueue opens (or creates) the durable queue under dir and recovers its
// state from the journal: queued jobs re-enter the pending heap, jobs that
// were running at the crash are re-queued with Resumed set (their artifact
// checkpoints make the rerun bit-identical), and terminal jobs — with their
// dedupe keys — are retained so no acknowledged completion ever re-runs.
func OpenQueue(dir string, opts QueueOptions) (*Queue, error) {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = 1024
	}
	if opts.KeepTerminal <= 0 {
		opts.KeepTerminal = 512
	}
	w, recs, losses, err := openWAL(dir, opts.MaxSegBytes, opts.NoSync)
	if err != nil {
		return nil, err
	}
	q := &Queue{
		wal:    w,
		jobs:   make(map[string]*Job),
		dedupe: make(map[string]string),
		opts:   opts,
		notify: make(chan struct{}, 1),
		report: RecoveryReport{TailLosses: losses},
	}
	for _, rec := range recs {
		q.replay(rec)
	}
	// Rebuild the derived structures from the replayed job set.
	for _, j := range q.jobs {
		if j.Seq > q.seq {
			q.seq = j.Seq
		}
		if j.Spec.DedupeKey != "" {
			q.dedupe[j.Spec.DedupeKey] = j.ID
		}
		switch {
		case j.State.Terminal():
			q.report.Terminal++
		case j.State == StateRunning:
			// The worker died with the job; resume it.
			j.State = StateQueued
			j.Resumed = true
			heap.Push(&q.pending, j)
			q.report.Resumed++
		default:
			j.State = StateQueued
			heap.Push(&q.pending, j)
			q.report.Queued++
		}
	}
	return q, nil
}

// replay applies one journal record to the in-memory state (no journaling,
// no notifications — recovery only).
func (q *Queue) replay(rec walRecord) {
	switch rec.Op {
	case "snapshot":
		q.jobs = make(map[string]*Job)
	case "submit":
		if rec.Job != nil && rec.Job.ID != "" {
			j := rec.Job.clone()
			q.jobs[j.ID] = j
		}
	case "state":
		j := q.jobs[rec.ID]
		if j == nil || j.State.Terminal() {
			return // a terminal state never transitions, even on replay
		}
		j.State = rec.State
		if rec.Attempt > 0 {
			j.Attempt = rec.Attempt
		}
		if rec.Error != "" {
			j.Error = rec.Error
		}
		if rec.Result != nil {
			j.Result = rec.Result
		}
		switch rec.State {
		case StateQueued:
			j.QueuedMS = rec.TMS
		case StateRunning:
			j.StartedMS = rec.TMS
		case StateSucceeded, StateFailed, StateQuarantined, StateCanceled, StateShed:
			j.DoneMS = rec.TMS
		}
	}
}

// Recovery returns the report of the open-time journal replay.
func (q *Queue) Recovery() RecoveryReport {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.report
}

// SubmitResult reports what Submit did.
type SubmitResult struct {
	// Job is the accepted (or deduplicated) job snapshot.
	Job *Job
	// Deduped is true when an existing job with the same dedupe key was
	// returned instead of enqueuing a new one.
	Deduped bool
	// Shed is the lower-priority job evicted to make room, when load
	// shedding fired (nil otherwise).
	Shed *Job
}

// Submit journals and enqueues a job. The returned job ID is the
// acknowledgment: once Submit returns nil, the job survives any crash.
// A full queue either sheds the lowest-priority queued job (when the new
// job outranks it) or rejects with ErrQueueFull.
func (q *Queue) Submit(spec JobSpec) (SubmitResult, error) {
	if err := spec.Validate(); err != nil {
		return SubmitResult{}, err
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return SubmitResult{}, errors.New("serve: queue closed")
	}
	if spec.DedupeKey != "" {
		if id, ok := q.dedupe[spec.DedupeKey]; ok {
			if j := q.jobs[id]; j != nil {
				return SubmitResult{Job: j.clone(), Deduped: true}, nil
			}
		}
	}
	var shed *Job
	if len(q.pending) >= q.opts.MaxDepth {
		worst, ok := q.pending.lowest()
		if !ok || q.pending[worst].Spec.Priority >= spec.Priority {
			return SubmitResult{}, fmt.Errorf("%w (depth %d)", ErrQueueFull, len(q.pending))
		}
		victim := q.pending[worst]
		heap.Remove(&q.pending, worst)
		if err := q.transitionLocked(victim, StateShed, 0, "shed: queue full, preempted by higher priority", nil); err != nil {
			// Journaling the shed failed; put the victim back and refuse.
			heap.Push(&q.pending, victim)
			return SubmitResult{}, err
		}
		shed = victim.clone()
	}
	q.seq++
	now := nowMS(q.opts.Now)
	j := &Job{
		ID:          fmt.Sprintf("j%08d", q.seq),
		Spec:        spec,
		State:       StateQueued,
		Seq:         q.seq,
		SubmittedMS: now,
		QueuedMS:    now,
	}
	j.Trace = assignTrace(j)
	if err := q.wal.append(walRecord{Op: "submit", Job: j}); err != nil {
		q.seq--
		return SubmitResult{}, err
	}
	q.jobs[j.ID] = j
	if spec.DedupeKey != "" {
		q.dedupe[spec.DedupeKey] = j.ID
	}
	heap.Push(&q.pending, j)
	q.maybeRotateLocked()
	q.wake()
	return SubmitResult{Job: j.clone(), Shed: shed}, nil
}

// wake nudges one Claim waiter without blocking (callers hold the lock).
func (q *Queue) wake() {
	if q.closed {
		return
	}
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// Claim blocks until a queued job is available (or ctx ends), marks it
// running, journals the transition and returns a snapshot for the worker.
func (q *Queue) Claim(ctx context.Context) (*Job, error) {
	for {
		// A dead context never claims: a draining worker that just re-queued
		// its job must not immediately claim it back.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		q.mu.Lock()
		if q.closed {
			q.mu.Unlock()
			return nil, errors.New("serve: queue closed")
		}
		if len(q.pending) > 0 {
			j := heap.Pop(&q.pending).(*Job)
			if err := q.transitionLocked(j, StateRunning, j.Attempt+1, "", nil); err != nil {
				heap.Push(&q.pending, j)
				q.mu.Unlock()
				return nil, err
			}
			q.running++
			snap := j.clone()
			if len(q.pending) > 0 {
				q.wake() // more work: pass the baton to the next waiter
			}
			q.mu.Unlock()
			return snap, nil
		}
		q.mu.Unlock()
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-q.notify:
		}
	}
}

// transitionLocked journals and applies one state transition. Attempt 0
// leaves the attempt count unchanged.
func (q *Queue) transitionLocked(j *Job, to JobState, attempt int, errMsg string, result []byte) error {
	rec := walRecord{Op: "state", ID: j.ID, State: to, Attempt: attempt, Error: errMsg, Result: result, TMS: nowMS(q.opts.Now)}
	if err := q.wal.append(rec); err != nil {
		return err
	}
	j.State = to
	if attempt > 0 {
		j.Attempt = attempt
	}
	if errMsg != "" {
		j.Error = errMsg
	}
	if result != nil {
		j.Result = result
	}
	switch to {
	case StateQueued:
		j.QueuedMS = rec.TMS
	case StateRunning:
		j.StartedMS = rec.TMS
	case StateSucceeded, StateFailed, StateQuarantined, StateCanceled, StateShed:
		j.DoneMS = rec.TMS
	}
	return nil
}

// finish moves a running job to a terminal state.
func (q *Queue) finish(id string, to JobState, errMsg string, result []byte) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[id]
	if j == nil {
		return nil, ErrUnknownJob
	}
	if j.State.Terminal() {
		return j.clone(), nil // idempotent: replays and races settle on the first terminal
	}
	wasRunning := j.State == StateRunning
	if err := q.transitionLocked(j, to, 0, errMsg, result); err != nil {
		return nil, err
	}
	if wasRunning {
		q.running--
	}
	q.maybeRotateLocked()
	return j.clone(), nil
}

// Complete marks a running job succeeded with its result document. The
// queue keeps the result in the form the WAL restores it (compacted,
// HTML-escaped JSON), so it reads back the same bytes after a restart.
func (q *Queue) Complete(id string, result []byte) (*Job, error) {
	canon, err := json.Marshal(json.RawMessage(result))
	if err != nil {
		return nil, fmt.Errorf("serve: job %s result: %w", id, err)
	}
	return q.finish(id, StateSucceeded, "", canon)
}

// Fail marks a job failed (retries exhausted or permanent error).
func (q *Queue) Fail(id, errMsg string) (*Job, error) {
	return q.finish(id, StateFailed, errMsg, nil)
}

// Quarantine marks a job poisoned; the worker moves its artifacts to the
// dead-letter directory.
func (q *Queue) Quarantine(id, errMsg string) (*Job, error) {
	return q.finish(id, StateQuarantined, errMsg, nil)
}

// Cancel terminates a queued or running job. A running job's worker
// observes the cancellation through its context; the state is final either
// way.
func (q *Queue) Cancel(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[id]
	if j == nil {
		return nil, ErrUnknownJob
	}
	if j.State.Terminal() {
		return nil, ErrNotCancelable
	}
	wasRunning := j.State == StateRunning
	if j.State == StateQueued {
		for i, p := range q.pending {
			if p.ID == id {
				heap.Remove(&q.pending, i)
				break
			}
		}
	}
	if err := q.transitionLocked(j, StateCanceled, 0, "canceled by client", nil); err != nil {
		return nil, err
	}
	if wasRunning {
		q.running--
	}
	return j.clone(), nil
}

// Requeue returns a running job to the pending queue (graceful worker
// shutdown): the next claim resumes it from its checkpoints.
func (q *Queue) Requeue(id string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[id]
	if j == nil {
		return ErrUnknownJob
	}
	if j.State != StateRunning {
		return nil
	}
	j.Resumed = true
	if err := q.transitionLocked(j, StateQueued, 0, "", nil); err != nil {
		return err
	}
	q.running--
	heap.Push(&q.pending, j)
	q.wake()
	return nil
}

// Get returns a snapshot of the job, or ErrUnknownJob.
func (q *Queue) Get(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j := q.jobs[id]
	if j == nil {
		return nil, ErrUnknownJob
	}
	return j.clone(), nil
}

// List snapshots every retained job, optionally filtered by tenant, newest
// submission first.
func (q *Queue) List(tenant string) []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		if tenant != "" && j.Spec.tenant() != tenant {
			continue
		}
		out = append(out, j.clone())
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq > out[k].Seq })
	return out
}

// Depth returns the queued (not running) job count.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// RunningCount returns the jobs currently claimed by workers.
func (q *Queue) RunningCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.running
}

// OldestQueuedMS returns the queue-entry timestamp of the longest-waiting
// pending job (unix milliseconds), or 0 when nothing is queued. The metrics
// plane turns it into the jobs.queue.oldest_age_ms gauge — the first signal
// of backlog growth, visible well before load shedding fires.
func (q *Queue) OldestQueuedMS() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	var oldest int64
	for _, j := range q.pending {
		at := j.QueuedMS
		if at == 0 {
			at = j.SubmittedMS // jobs journaled before QueuedMS existed
		}
		if at != 0 && (oldest == 0 || at < oldest) {
			oldest = at
		}
	}
	return oldest
}

// InFlight counts a tenant's non-terminal jobs (queued + running), the
// quantity the admission concurrent-job quota bounds.
func (q *Queue) InFlight(tenant string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, j := range q.jobs {
		if !j.State.Terminal() && j.Spec.tenant() == tenant {
			n++
		}
	}
	return n
}

// maybeRotateLocked compacts the journal when the active segment outgrew
// its cap: live jobs plus the most recent KeepTerminal terminal jobs are
// snapshotted; older terminal jobs (and their dedupe keys) age out.
func (q *Queue) maybeRotateLocked() {
	if !q.wal.shouldRotate() {
		return
	}
	var live, terminal []*Job
	for _, j := range q.jobs {
		if j.State.Terminal() {
			terminal = append(terminal, j)
		} else {
			live = append(live, j)
		}
	}
	sort.Slice(terminal, func(i, k int) bool { return terminal[i].Seq > terminal[k].Seq })
	if len(terminal) > q.opts.KeepTerminal {
		for _, j := range terminal[q.opts.KeepTerminal:] {
			delete(q.jobs, j.ID)
			if j.Spec.DedupeKey != "" && q.dedupe[j.Spec.DedupeKey] == j.ID {
				delete(q.dedupe, j.Spec.DedupeKey)
			}
		}
		terminal = terminal[:q.opts.KeepTerminal]
	}
	keep := append(live, terminal...)
	sort.Slice(keep, func(i, k int) bool { return keep[i].Seq < keep[k].Seq })
	_ = q.wal.rotate(keep) // best effort: rotation failure never loses state
}

// Close flushes and closes the journal. Pending and running jobs stay
// durable; a later OpenQueue resumes them.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	close(q.notify)
	return q.wal.close()
}
