// Package lrm implements the local resource managers that sit behind each
// site's Gatekeeper in Figure 1 — the "Site Job Scheduler (PBS, Condor,
// LSF, LoadLeveler, NQE, etc.)". A Cluster owns a fixed number of CPUs and
// a queue; a pluggable Policy decides which queued jobs start as CPUs free
// up. Three policies model the schedulers named by the paper: FIFO
// (PBS-like), fair-share (LSF-like), and conservative backfill.
//
// Jobs carry a Go function as their payload in the live system; the
// discrete-event simulator reuses the same Policy implementations against
// virtual-duration jobs (see internal/sim).
package lrm

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// State is a job's lifecycle stage inside the LRM.
type State int

const (
	Queued State = iota
	Running
	Completed
	Failed
	Cancelled
	TimedOut
)

// String names the state as the schedulers' logs do.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	case Cancelled:
		return "cancelled"
	case TimedOut:
		return "timed-out"
	}
	return "unknown"
}

// Terminal reports whether no further transitions can occur.
func (s State) Terminal() bool { return s >= Completed }

// Job is a unit of work submitted to a cluster.
type Job struct {
	ID        string
	Owner     string
	Cpus      int           // CPUs required (>=1)
	WallLimit time.Duration // 0 = unlimited
	// Run is the payload; its context is cancelled on Cancel or walltime
	// expiry. A nil Run completes immediately (useful in tests).
	Run func(ctx context.Context) error
}

// QueuedJob is the scheduling view of a waiting job, shared with the
// simulator's queue model.
type QueuedJob struct {
	ID       string
	Owner    string
	Cpus     int
	Estimate time.Duration // user-supplied runtime estimate (for backfill)
	Submit   time.Time
}

// Policy selects which queued jobs to start. queue is in submission order;
// free is the number of idle CPUs; running lists the owners of running
// jobs (for fair share). Implementations must not mutate queue.
type Policy interface {
	Name() string
	Select(queue []*QueuedJob, free int, runningOwners []string) []*QueuedJob
}

// --- FIFO: strict head-of-line order, as a default PBS queue. ---

// FIFO starts jobs strictly in arrival order; a big job at the head blocks
// everything behind it.
type FIFO struct{}

// Name returns "fifo".
func (FIFO) Name() string { return "fifo" }

// Select takes jobs from the head of the queue until one does not fit.
func (FIFO) Select(queue []*QueuedJob, free int, _ []string) []*QueuedJob {
	var out []*QueuedJob
	for _, j := range queue {
		if j.Cpus > free {
			break // head-of-line blocking
		}
		out = append(out, j)
		free -= j.Cpus
	}
	return out
}

// --- Backfill: FIFO head plus smaller jobs that fit around it. ---

// Backfill is conservative backfill: the head job reserves capacity, but
// any later job that fits in the remaining CPUs may run ahead.
type Backfill struct{}

// Name returns "backfill".
func (Backfill) Name() string { return "backfill" }

// Select takes every queued job that fits, in queue order.
func (Backfill) Select(queue []*QueuedJob, free int, _ []string) []*QueuedJob {
	var out []*QueuedJob
	for _, j := range queue {
		if j.Cpus <= free {
			out = append(out, j)
			free -= j.Cpus
		}
	}
	return out
}

// --- FairShare: start jobs from the owner with the fewest running. ---

// FairShare balances running jobs across owners, like an LSF fairshare
// queue.
type FairShare struct{}

// Name returns "fairshare".
func (FairShare) Name() string { return "fairshare" }

// Select takes fitting jobs one at a time from the least-loaded owner.
func (FairShare) Select(queue []*QueuedJob, free int, runningOwners []string) []*QueuedJob {
	counts := make(map[string]int)
	for _, o := range runningOwners {
		counts[o]++
	}
	// Repeatedly pick the earliest queued job of the least-loaded owner
	// that fits.
	remaining := append([]*QueuedJob(nil), queue...)
	var out []*QueuedJob
	for {
		bestIdx := -1
		for i, j := range remaining {
			if j == nil || j.Cpus > free {
				continue
			}
			if bestIdx == -1 || counts[j.Owner] < counts[remaining[bestIdx].Owner] {
				bestIdx = i
			}
		}
		if bestIdx == -1 {
			return out
		}
		j := remaining[bestIdx]
		remaining[bestIdx] = nil
		out = append(out, j)
		counts[j.Owner]++
		free -= j.Cpus
	}
}

// PolicyByName returns a policy implementation for a config string.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "fifo":
		return FIFO{}, nil
	case "backfill":
		return Backfill{}, nil
	case "fairshare":
		return FairShare{}, nil
	}
	return nil, fmt.Errorf("lrm: unknown policy %q", name)
}

// JobStatus is the externally visible status of a job.
type JobStatus struct {
	ID       string
	Owner    string
	State    State
	Error    string
	Queued   time.Time
	Started  time.Time
	Finished time.Time
}

// StatusCallback observes every state transition.
type StatusCallback func(JobStatus)

// Cluster is a running LRM instance.
type Cluster struct {
	name    string
	cpus    int
	policy  Policy
	onEvent StatusCallback

	mu     sync.Mutex
	free   int
	queue  []*QueuedJob
	jobs   map[string]*jobRec
	closed bool
	serial int
	wg     sync.WaitGroup
}

type jobRec struct {
	job    Job
	status JobStatus
	cancel context.CancelFunc
	// changed is closed and replaced on every state transition and by
	// Close, waking the job's WaitChange callers to look again.
	changed chan struct{}
}

// wake releases the job's WaitChange callers. Caller holds the cluster lock.
func (rec *jobRec) wake() {
	close(rec.changed)
	rec.changed = make(chan struct{})
}

// transition moves rec to state and wakes its waiters. Caller holds c.mu.
func (c *Cluster) transition(rec *jobRec, state State) {
	rec.status.State = state
	rec.wake()
}

// Config configures a cluster.
type Config struct {
	Name   string
	Cpus   int
	Policy Policy
	// OnEvent, if set, receives every job status transition. Callbacks
	// run without the cluster lock held.
	OnEvent StatusCallback
}

// NewCluster creates an LRM with the given capacity.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Cpus <= 0 {
		return nil, errors.New("lrm: cluster needs at least one CPU")
	}
	if cfg.Policy == nil {
		cfg.Policy = FIFO{}
	}
	return &Cluster{
		name:    cfg.Name,
		cpus:    cfg.Cpus,
		policy:  cfg.Policy,
		onEvent: cfg.OnEvent,
		free:    cfg.Cpus,
		jobs:    make(map[string]*jobRec),
	}, nil
}

// Name returns the cluster's name.
func (c *Cluster) Name() string { return c.name }

// Cpus returns total capacity.
func (c *Cluster) Cpus() int { return c.cpus }

// FreeCpus returns currently idle CPUs.
func (c *Cluster) FreeCpus() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.free
}

// QueueDepth returns the number of waiting jobs.
func (c *Cluster) QueueDepth() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.queue)
}

// PolicyName names the active scheduling policy.
func (c *Cluster) PolicyName() string { return c.policy.Name() }

// Submit enqueues a job and returns its (possibly generated) ID.
func (c *Cluster) Submit(job Job, estimate time.Duration) (string, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return "", ErrClosed
	}
	if job.Cpus <= 0 {
		job.Cpus = 1
	}
	if job.Cpus > c.cpus {
		c.mu.Unlock()
		return "", fmt.Errorf("lrm: job wants %d CPUs, cluster has %d", job.Cpus, c.cpus)
	}
	if job.ID == "" {
		c.serial++
		job.ID = fmt.Sprintf("%s.%d", c.name, c.serial)
	}
	if _, dup := c.jobs[job.ID]; dup {
		c.mu.Unlock()
		return "", fmt.Errorf("lrm: duplicate job id %q", job.ID)
	}
	rec := &jobRec{
		job: job,
		status: JobStatus{
			ID: job.ID, Owner: job.Owner, State: Queued, Queued: time.Now(),
		},
		changed: make(chan struct{}),
	}
	c.jobs[job.ID] = rec
	c.queue = append(c.queue, &QueuedJob{
		ID: job.ID, Owner: job.Owner, Cpus: job.Cpus, Estimate: estimate, Submit: rec.status.Queued,
	})
	// Copy under the lock: a concurrent Submit's schedule() may already be
	// starting this job.
	status := rec.status
	c.mu.Unlock()
	c.emit(status)
	c.schedule()
	return job.ID, nil
}

// Status returns the current status of a job.
func (c *Cluster) Status(id string) (JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rec, ok := c.jobs[id]
	if !ok {
		return JobStatus{}, fmt.Errorf("lrm: no such job %q", id)
	}
	return rec.status, nil
}

// ErrClosed is returned by operations on a cluster that has been closed.
var ErrClosed = errors.New("lrm: cluster closed")

// WaitChange blocks until job id is in a state other than seen and returns
// its status — the event-driven form of polling Status. It returns at once
// when the job has already moved on. On a closed cluster a job that can no
// longer move yields ErrClosed; one Close is still killing is waited out.
func (c *Cluster) WaitChange(id string, seen State) (JobStatus, error) {
	c.mu.Lock()
	for {
		rec, ok := c.jobs[id]
		if !ok {
			c.mu.Unlock()
			return JobStatus{}, fmt.Errorf("lrm: no such job %q", id)
		}
		if rec.status.State != seen {
			status := rec.status
			c.mu.Unlock()
			return status, nil
		}
		if c.closed && seen != Running {
			c.mu.Unlock()
			return JobStatus{}, ErrClosed
		}
		changed := rec.changed
		c.mu.Unlock()
		<-changed
		c.mu.Lock()
	}
}

// Cancel removes a queued job or kills a running one.
func (c *Cluster) Cancel(id string) error {
	c.mu.Lock()
	rec, ok := c.jobs[id]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("lrm: no such job %q", id)
	}
	switch rec.status.State {
	case Queued:
		for i, q := range c.queue {
			if q.ID == id {
				c.queue = append(c.queue[:i], c.queue[i+1:]...)
				break
			}
		}
		c.transition(rec, Cancelled)
		rec.status.Finished = time.Now()
		rec.job.Run = nil // as finish does: the payload never runs now
		status := rec.status
		c.mu.Unlock()
		c.emit(status)
		return nil
	case Running:
		cancel := rec.cancel
		c.mu.Unlock()
		cancel() // completion path marks it Cancelled
		return nil
	default:
		c.mu.Unlock()
		return nil // already terminal: cancel is idempotent
	}
}

// schedule starts every job the policy picks. Called after any capacity or
// queue change.
func (c *Cluster) schedule() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	var runningOwners []string
	for _, rec := range c.jobs {
		if rec.status.State == Running {
			runningOwners = append(runningOwners, rec.status.Owner)
		}
	}
	picks := c.policy.Select(c.queue, c.free, runningOwners)
	picked := make(map[string]bool, len(picks))
	for _, p := range picks {
		picked[p.ID] = true
	}
	var keep []*QueuedJob
	var started []*jobRec
	for _, q := range c.queue {
		if !picked[q.ID] {
			keep = append(keep, q)
			continue
		}
		rec := c.jobs[q.ID]
		c.transition(rec, Running)
		rec.status.Started = time.Now()
		c.free -= rec.job.Cpus
		started = append(started, rec)
	}
	c.queue = keep
	statuses := make([]JobStatus, len(started))
	for i, rec := range started {
		statuses[i] = rec.status
	}
	c.mu.Unlock()
	for i, rec := range started {
		c.emit(statuses[i])
		c.launch(rec)
	}
}

func (c *Cluster) launch(rec *jobRec) {
	var ctx context.Context
	var cancel context.CancelFunc
	if rec.job.WallLimit > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), rec.job.WallLimit)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	c.mu.Lock()
	rec.cancel = cancel
	c.mu.Unlock()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		defer cancel()
		var err error
		if rec.job.Run != nil {
			err = rec.job.Run(ctx)
		}
		c.finish(rec, ctx, err)
	}()
}

func (c *Cluster) finish(rec *jobRec, ctx context.Context, err error) {
	c.mu.Lock()
	rec.status.Finished = time.Now()
	switch {
	case errors.Is(ctx.Err(), context.DeadlineExceeded):
		rec.status.Error = "walltime limit exceeded"
		c.transition(rec, TimedOut)
	case errors.Is(ctx.Err(), context.Canceled):
		c.transition(rec, Cancelled)
	case err != nil:
		rec.status.Error = err.Error()
		c.transition(rec, Failed)
	default:
		c.transition(rec, Completed)
	}
	c.free += rec.job.Cpus
	// The record outlives the job (status queries); its payload must not:
	// the closure holds whatever the submitter staged for the run.
	rec.job.Run = nil
	status := rec.status
	c.mu.Unlock()
	c.emit(status)
	c.schedule()
}

func (c *Cluster) emit(s JobStatus) {
	if c.onEvent != nil {
		c.onEvent(s)
	}
}

// Jobs returns a snapshot of all job statuses, sorted by ID.
func (c *Cluster) Jobs() []JobStatus {
	c.mu.Lock()
	out := make([]JobStatus, 0, len(c.jobs))
	for _, rec := range c.jobs {
		out = append(out, rec.status)
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Close cancels everything and waits for running payloads to exit.
func (c *Cluster) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	var cancels []context.CancelFunc
	for _, rec := range c.jobs {
		if rec.status.State == Running && rec.cancel != nil {
			cancels = append(cancels, rec.cancel)
		}
	}
	var cancelled []JobStatus
	for _, q := range c.queue {
		rec := c.jobs[q.ID]
		c.transition(rec, Cancelled)
		rec.status.Finished = time.Now()
		rec.job.Run = nil
		cancelled = append(cancelled, rec.status)
	}
	c.queue = nil
	// Wake every waiter: those on jobs that will not move again must not
	// outlive the cluster (running jobs' waiters go back to sleep until the
	// kill below lands).
	for _, rec := range c.jobs {
		rec.wake()
	}
	c.mu.Unlock()
	for _, s := range cancelled {
		c.emit(s)
	}
	for _, cancel := range cancels {
		cancel()
	}
	c.wg.Wait()
}
