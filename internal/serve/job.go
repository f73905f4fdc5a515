package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/plasma-hpc/dsmcpic/internal/core"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// JobState is the lifecycle of a job. Transitions are one-way:
// queued → running → {done, failed, canceled}, with queued → canceled when
// a job is canceled before a worker picks it up.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether a state admits no further transitions.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ProgressEvent is one step's progress report, streamed on the events
// endpoint. Particles is the global (allreduced) particle count; phase
// seconds are rank 0's measured wall-clock timers for the step.
type ProgressEvent struct {
	Step         int                `json:"step"`
	Particles    int64              `json:"particles"`
	PhaseSeconds map[string]float64 `json:"phase_seconds,omitempty"`
}

// Result is the serialized outcome of a completed run: the aggregate view
// a client polls for, not the full per-rank statistics dump.
type Result struct {
	Key   string `json:"key"`
	Ranks int    `json:"ranks"`
	Steps int    `json:"steps"`

	// ModeledSeconds is the cost-model wall time of the run (per-step max
	// over ranks, summed); ComponentSeconds breaks it down by Table IV row.
	ModeledSeconds   float64            `json:"modeled_seconds"`
	ComponentSeconds map[string]float64 `json:"component_seconds,omitempty"`

	FinalParticles int     `json:"final_particles"`
	Collisions     int64   `json:"collisions"`
	Reactions      int64   `json:"reactions"`
	PoissonIters   int64   `json:"poisson_iters"`
	Rebalances     int     `json:"rebalances"`
	MaxLII         float64 `json:"max_lii,omitempty"`
}

// buildResult condenses RunStats into the cacheable Result.
func buildResult(key string, spec JobSpec, stats *core.RunStats) Result {
	res := Result{
		Key:            key,
		Ranks:          spec.Ranks,
		Steps:          spec.Steps,
		ModeledSeconds: stats.TotalTime(),
	}
	comp := make(map[string]float64)
	for r := range stats.Ranks {
		rk := &stats.Ranks[r]
		for name, t := range rk.Times {
			if t > comp[name] {
				comp[name] = t // critical path: max over ranks
			}
		}
		res.FinalParticles += rk.FinalParticles
		res.Collisions += rk.Collisions
		res.Reactions += rk.Reactions
		res.Rebalances += rk.Rebalances
		for _, lii := range rk.LIIHistory {
			if lii > res.MaxLII {
				res.MaxLII = lii
			}
		}
	}
	if len(stats.Ranks) > 0 {
		// PoissonIters is replicated across ranks (it comes off an
		// allreduce); take rank 0's rather than a world-size multiple.
		res.PoissonIters = stats.Ranks[0].PoissonIters
		res.Rebalances = stats.Ranks[0].Rebalances
	}
	if len(comp) > 0 {
		res.ComponentSeconds = comp
	}
	return res
}

// Job is both the queue entry and the unit of caching: coalesced
// submissions share one *Job (and therefore one ID, one execution, one
// result). The zero lifecycle is driven by the Server; all mutable state
// is guarded by mu except the channels, which are only ever closed once.
type Job struct {
	ID       string
	Key      string
	Spec     JobSpec // normalized
	Priority int

	cancel     chan struct{} // closed by Cancel; wired to core.Config.Cancel
	cancelOnce sync.Once
	done       chan struct{} // closed when the job reaches a terminal state

	mu        sync.Mutex
	state     JobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	submits   int // total submissions resolved to this job (1 + coalesced)
	curStep   int
	events    []ProgressEvent
	// deadline is set when the per-job wall-clock timeout fired; the
	// cancellation it triggered then classifies as "timeout", not
	// "canceled".
	deadline time.Duration

	// resultJSON is marshaled exactly once, at completion; cached and
	// repeated fetches serve these bytes verbatim, which is what makes the
	// "byte-identical cached result" guarantee checkable.
	resultJSON []byte
	errMsg     string
	errClass   string

	// Field-snapshot frames: each entry is one marshaled core.FieldFrame
	// NDJSON line (trailing newline included), appended by the capture
	// callback and served verbatim — the marshal happens once, so live
	// streams, replays, and the persisted blob are all byte-identical.
	// The ring is bounded by frameCap: when full the oldest line is
	// dropped and frameBase advances, so frame indices stay absolute.
	frameCap      int
	frames        [][]byte
	frameBase     int
	framesDropped int
}

func newJob(id string, spec JobSpec, now time.Time) *Job {
	return &Job{
		ID:        id,
		Key:       spec.Key(),
		Spec:      spec,
		Priority:  spec.Priority,
		cancel:    make(chan struct{}),
		done:      make(chan struct{}),
		state:     StateQueued,
		submitted: now,
		submits:   1,
	}
}

// recoveredJob rebuilds a job from the persistent store at startup. A
// terminal state arrives with its outcome already decided (resultJSON for
// done, errMsg/errClass otherwise) and a closed done channel; a queued
// state yields a job ready for the worker pool, exactly as if it had
// just been admitted.
func recoveredJob(id string, spec JobSpec, state JobState, resultJSON []byte, errMsg, errClass string, now time.Time) *Job {
	j := newJob(id, spec, now)
	j.state = state
	j.resultJSON = resultJSON
	j.errMsg = errMsg
	j.errClass = errClass
	if state.terminal() {
		close(j.done)
	}
	return j
}

// markDeadlineExceeded records that the per-job wall-clock timeout fired,
// before the associated Cancel lands.
func (j *Job) markDeadlineExceeded(after time.Duration) {
	j.mu.Lock()
	j.deadline = after
	j.mu.Unlock()
}

// Cancel requests cooperative cancellation. Idempotent; a no-op once the
// job is terminal (the worker's finish wins the race harmlessly — closing
// cancel after completion wakes nobody).
func (j *Job) Cancel() {
	j.cancelOnce.Do(func() { close(j.cancel) })
}

// canceled reports whether cancellation has been requested.
func (j *Job) canceledRequested() bool {
	select {
	case <-j.cancel:
		return true
	default:
		return false
	}
}

// markRunning transitions queued → running; returns false when the job was
// canceled while queued (the worker must then finalize it as canceled
// without building a world).
func (j *Job) markRunning(now time.Time) bool {
	if j.canceledRequested() {
		return false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = now
	return true
}

// outcome is a job's terminal state as decided from its run, before it is
// persisted and published.
type outcome struct {
	state      JobState
	resultJSON []byte
	errMsg     string
	errClass   string
}

// decide classifies a run's result into the job's terminal outcome without
// publishing it. err == nil stores the result; otherwise the error is
// classified for clients (canceled / timeout / rank_failure / deadlock /
// error).
func (j *Job) decide(res *Result, err error) outcome {
	switch {
	case err == nil:
		blob, merr := json.Marshal(res)
		if merr != nil {
			return outcome{state: StateFailed, errMsg: fmt.Sprintf("marshal result: %v", merr), errClass: "error"}
		}
		return outcome{state: StateDone, resultJSON: blob}
	case errors.Is(err, simmpi.ErrCanceled):
		j.mu.Lock()
		deadline := j.deadline
		j.mu.Unlock()
		if deadline > 0 {
			return outcome{state: StateCanceled, errMsg: fmt.Sprintf("job deadline exceeded (%s): %v", deadline, err), errClass: "timeout"}
		}
		return outcome{state: StateCanceled, errMsg: err.Error(), errClass: "canceled"}
	default:
		return outcome{state: StateFailed, errMsg: err.Error(), errClass: classifyError(err)}
	}
}

// finish publishes a terminal outcome and releases done-waiters. The
// server calls it only once the outcome is durable.
func (j *Job) finish(o outcome, now time.Time) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.finished = now
	j.state = o.state
	j.resultJSON = o.resultJSON
	j.errMsg = o.errMsg
	j.errClass = o.errClass
	j.mu.Unlock()
	close(j.done)
}

// classifyError maps run errors onto the client-facing failure classes,
// reusing the simmpi sentinel taxonomy from the fault-tolerance layer.
func classifyError(err error) string {
	switch {
	case errors.Is(err, simmpi.ErrRankFailed):
		return "rank_failure"
	case errors.Is(err, simmpi.ErrDeadlock):
		return "deadlock"
	default:
		return "error"
	}
}

// recordProgress appends one step's event under the job lock.
func (j *Job) recordProgress(ev ProgressEvent) {
	j.mu.Lock()
	j.curStep = ev.Step
	j.events = append(j.events, ev)
	j.mu.Unlock()
}

// eventsSince returns events with index ≥ from and whether the job is
// terminal — the polling primitive behind the streaming endpoint.
func (j *Job) eventsSince(from int) (evs []ProgressEvent, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < len(j.events) {
		evs = append(evs, j.events[from:]...)
	}
	return evs, j.state.terminal()
}

// recordFrame appends one marshaled frame line to the bounded ring,
// dropping the oldest beyond frameCap (cap <= 0 means unbounded — only
// tests use that).
func (j *Job) recordFrame(line []byte) {
	j.mu.Lock()
	j.frames = append(j.frames, line)
	if j.frameCap > 0 && len(j.frames) > j.frameCap {
		drop := len(j.frames) - j.frameCap
		j.frames = append([][]byte(nil), j.frames[drop:]...)
		j.frameBase += drop
		j.framesDropped += drop
	}
	j.mu.Unlock()
}

// framesSince returns the retained frame lines with absolute index ≥ from
// (clamped up to frameBase when the ring already dropped them), the next
// absolute index to poll from, the total dropped count, and whether the
// job is terminal — the polling primitive behind the frames endpoint.
func (j *Job) framesSince(from int) (lines [][]byte, next int, dropped int, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if from < j.frameBase {
		from = j.frameBase
	}
	if rel := from - j.frameBase; rel < len(j.frames) {
		lines = append(lines, j.frames[rel:]...)
	}
	return lines, from + len(lines), j.framesDropped, j.state.terminal()
}

// framesBlob concatenates the retained frame lines — what the store
// persists so a cache hit replays the animation byte-identically. For a
// fixed (spec, ring cap) the blob is deterministic even when the ring
// dropped early frames: the same frames are dropped on every run.
func (j *Job) framesBlob() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	var n int
	for _, l := range j.frames {
		n += len(l)
	}
	if n == 0 {
		return nil
	}
	blob := make([]byte, 0, n)
	for _, l := range j.frames {
		blob = append(blob, l...)
	}
	return blob
}

// setFramesBlob splits a persisted frames blob back into ring lines —
// the recovery / shared-cache-hit path. The lines land with frameBase 0;
// a replayed stream therefore starts at the first *retained* frame,
// exactly as the original stream did once the ring wrapped.
func (j *Job) setFramesBlob(blob []byte) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.frames = nil
	for len(blob) > 0 {
		nl := bytes.IndexByte(blob, '\n')
		if nl < 0 {
			j.frames = append(j.frames, append(append([]byte(nil), blob...), '\n'))
			break
		}
		j.frames = append(j.frames, append([]byte(nil), blob[:nl+1]...))
		blob = blob[nl+1:]
	}
}

// addSubmit counts a coalesced or cache-hit submission.
func (j *Job) addSubmit() {
	j.mu.Lock()
	j.submits++
	j.mu.Unlock()
}

// Status is the JSON status view of a job.
type Status struct {
	ID        string   `json:"id"`
	Key       string   `json:"key"`
	State     JobState `json:"state"`
	Priority  int      `json:"priority,omitempty"`
	Submits   int      `json:"submits"`
	Step      int      `json:"step"`
	Steps     int      `json:"steps"`
	Submitted string   `json:"submitted,omitempty"`
	Started   string   `json:"started,omitempty"`
	Finished  string   `json:"finished,omitempty"`
	Error     string   `json:"error,omitempty"`
	ErrClass  string   `json:"error_class,omitempty"`
}

// status snapshots the job for the API.
func (j *Job) status() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:       j.ID,
		Key:      j.Key,
		State:    j.state,
		Priority: j.Priority,
		Submits:  j.submits,
		Step:     j.curStep,
		Steps:    j.Spec.Steps,
		Error:    j.errMsg,
		ErrClass: j.errClass,
	}
	if !j.submitted.IsZero() {
		st.Submitted = j.submitted.UTC().Format(time.RFC3339Nano)
	}
	if !j.started.IsZero() {
		st.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		st.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	return st
}

// result returns the stored result bytes, or nil when not done.
func (j *Job) result() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resultJSON
}

// stateNow returns the current state.
func (j *Job) stateNow() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// runSeconds returns the job's run duration (0 if it never started or has
// not finished) — feeds the Retry-After estimate.
func (j *Job) runSeconds() float64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.started.IsZero() || j.finished.IsZero() {
		return 0
	}
	return j.finished.Sub(j.started).Seconds()
}
