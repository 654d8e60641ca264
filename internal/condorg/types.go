// Package condorg implements the computation management agent of §4 — the
// paper's primary contribution. The Agent is the personal-desktop Scheduler
// with a persistent job queue; it spawns one GridManager per user to
// submit, monitor, and recover jobs on remote Grid resources through GRAM,
// GASS, and GSI, while preserving "the look and feel of a local resource
// manager": submit, query, cancel, hold/release, user logs, and
// notification callbacks, with exactly-once execution guaranteed across
// the four failure types of §4.2.
package condorg

import (
	"fmt"
	"sync"
	"time"

	"condorg/internal/gram"
	"condorg/internal/obs"
)

// JobState is the queue state shown to the user (condor_q vocabulary).
type JobState int

const (
	// Idle: queued locally or at the remote site, not yet executing.
	Idle JobState = iota
	// Running: executing on a remote resource.
	Running
	// Completed: finished successfully.
	Completed
	// Failed: finished unsuccessfully (after exhausting resubmissions).
	Failed
	// Held: parked by the user or by the credential monitor; will not
	// run until released.
	Held
	// Removed: cancelled by the user.
	Removed
)

// String returns the state's lower-case name, the one ParseJobState reads.
func (s JobState) String() string {
	switch s {
	case Idle:
		return "idle"
	case Running:
		return "running"
	case Completed:
		return "completed"
	case Failed:
		return "failed"
	case Held:
		return "held"
	case Removed:
		return "removed"
	}
	return "unknown"
}

// Terminal reports whether no further transitions can occur.
func (s JobState) Terminal() bool {
	return s == Completed || s == Failed || s == Removed
}

// ParseJobState parses a state name as printed by JobState.String.
func ParseJobState(s string) (JobState, error) {
	switch s {
	case "idle":
		return Idle, nil
	case "running":
		return Running, nil
	case "completed":
		return Completed, nil
	case "failed":
		return Failed, nil
	case "held":
		return Held, nil
	case "removed":
		return Removed, nil
	}
	return 0, fmt.Errorf("condorg: unknown job state %q", s)
}

// SubmitRequest describes a job handed to the agent.
type SubmitRequest struct {
	// Owner is the submitting user (one GridManager runs per owner).
	Owner string
	// Executable is the program blob staged to the site through GASS
	// (use gram.Program(name) for registered programs).
	Executable []byte
	// Args are program arguments.
	Args []string
	// Stdin, when non-nil, is staged as standard input.
	Stdin []byte
	// Site pins the job to one Gatekeeper address. Leave empty to let
	// the agent's Selector choose.
	Site string
	// Cpus, WallLimit, Estimate pass through to the site scheduler.
	Cpus      int
	WallLimit time.Duration
	Estimate  time.Duration
	// Env is the job environment.
	Env map[string]string
}

// LogEvent is one line of the job's user log — "a complete history of
// their jobs' execution" (§4.1).
type LogEvent struct {
	Time time.Time `json:"time"`
	Code string    `json:"code"` // SUBMIT, EXECUTE, TERMINATED, ...
	Text string    `json:"text"`
}

// JobInfo is the externally visible job record.
type JobInfo struct {
	ID           string   `json:"id"`
	Owner        string   `json:"owner"`
	State        JobState `json:"state"`
	Site         string   `json:"site"`
	HoldReason   string   `json:"hold_reason,omitempty"`
	Error        string   `json:"error,omitempty"`
	ExitOK       bool     `json:"exit_ok"`
	Resubmits    int      `json:"resubmits"`
	Disconnected bool     `json:"disconnected"` // waiting out a partition
	Migrations   int      `json:"migrations"`
	// SubmitRetries counts failed submission attempts (SUBMIT_RETRY in
	// the log) since the job was last enqueued; once it reaches
	// MaxSubmitRetries the job is held and the owner notified.
	SubmitRetries int `json:"submit_retries,omitempty"`
	// CancelPending lists old remote incarnations (from migration,
	// hold, or remove) whose cancel has not yet been acknowledged by
	// the site. The GridManager retries these until each old copy is
	// provably unable to run — closing the double-execution window a
	// partition would otherwise open.
	CancelPending []gram.JobContact `json:"cancel_pending,omitempty"`
	SubmittedAt   time.Time         `json:"submitted_at"`
	FinishedAt    time.Time         `json:"finished_at,omitempty"`
	PendingSince  time.Time         `json:"pending_since,omitempty"`
	Contact       gram.JobContact   `json:"contact"`
	// Stage is the executable pre-staging progress for the job's current
	// remote incarnation. Journaled with the record, so an agent crash
	// mid-transfer resumes from the last acked offset instead of byte zero.
	Stage StageInfo  `json:"stage,omitempty"`
	Log   []LogEvent `json:"log"`
}

// StageInfo tracks chunked executable pre-staging to the job's site.
type StageInfo struct {
	// Hash is the executable's sha256 content address (also in
	// Spec.ExecutableHash); empty when pre-staging is disabled.
	Hash string `json:"hash,omitempty"`
	// Total is the executable size in bytes.
	Total int64 `json:"total,omitempty"`
	// Offset is the site-acked contiguous prefix already transferred.
	Offset int64 `json:"offset,omitempty"`
	// Attempts counts staging tasks that failed before pushing the whole
	// file; once it reaches the budget, pre-staging is abandoned and the
	// job proceeds to submit (the site pulls the executable itself).
	Attempts int `json:"attempts,omitempty"`
	// Done means the site has the verified bytes (pushed or cache hit).
	Done bool `json:"done,omitempty"`
	// CacheHit records that the site already held the bytes, so no
	// transfer happened for this incarnation.
	CacheHit bool `json:"cache_hit,omitempty"`
}

// jobRecord is the internal, persisted job state.
type jobRecord struct {
	mu sync.Mutex
	JobInfo
	SubmissionID string       `json:"submission_id"`
	Spec         gram.JobSpec `json:"spec"`
	// remote mirrors the last GRAM state seen, to detect transitions.
	Remote gram.JobState `json:"remote"`
	// Trace is the job's lifecycle timeline, persisted with the record
	// (guarded by mu like the rest; the Timeline itself is not locked).
	Trace obs.Timeline `json:"trace"`

	// gen counts observable state changes; waitCh (lazily created) is
	// closed at each one so waiters block on events instead of polling.
	gen    uint64
	waitCh chan struct{}

	// opBusy marks a pipeline task (submit/recover/probe) in flight for
	// this job, so per-site workers never run two operations on the same
	// job concurrently. Guarded by mu; cancels of OLD incarnations are
	// tracked separately (they touch disjoint remote state).
	opBusy bool
	// credRefresh marks an in-band credential re-delegation owed to this
	// job's remote incarnation; credRefreshTries counts the site's refusals
	// (frames the site never heard do not count). Guarded by mu but
	// deliberately not persisted:
	// after an agent crash the credential monitor's next scan re-issues the
	// obligation, so journaling it would only add write amplification.
	credRefresh      bool
	credRefreshTries int
	// persistMu serializes snapshot+journal-write pairs for this record:
	// without it two workers could persist the same record with the older
	// snapshot landing after the newer one. Taken around mu, never inside.
	persistMu sync.Mutex
}

func (j *jobRecord) snapshot() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *jobRecord) snapshotLocked() JobInfo {
	info := j.JobInfo
	info.Log = append([]LogEvent(nil), j.Log...)
	return info
}

// bumpLocked marks an observable state change: the generation advances and
// every goroutine blocked on the current wait channel wakes. Caller holds mu.
func (j *jobRecord) bumpLocked() {
	j.gen++
	if j.waitCh != nil {
		close(j.waitCh)
		j.waitCh = nil
	}
}

// changedLocked returns a channel that closes at the next state change.
// Caller holds mu.
func (j *jobRecord) changedLocked() <-chan struct{} {
	if j.waitCh == nil {
		j.waitCh = make(chan struct{})
	}
	return j.waitCh
}

// stateBroadcast is an agent-wide, generation-counted change signal: any
// job-state change closes the current channel. Its mutex is a leaf — safe
// to take under any other agent lock.
type stateBroadcast struct {
	mu  sync.Mutex
	gen uint64
	ch  chan struct{}
}

// C returns a channel that closes at the next change.
func (b *stateBroadcast) C() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ch == nil {
		b.ch = make(chan struct{})
	}
	return b.ch
}

// Notify wakes every waiter and advances the generation.
func (b *stateBroadcast) Notify() {
	b.mu.Lock()
	b.gen++
	if b.ch != nil {
		close(b.ch)
		b.ch = nil
	}
	b.mu.Unlock()
}

// Gen returns the current change generation.
func (b *stateBroadcast) Gen() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gen
}

// Notifier delivers the user-facing notifications of §4.3 (the paper uses
// e-mail; the agent only needs the abstraction).
type Notifier interface {
	Notify(user, subject, body string)
}

// Mailbox is an in-memory Notifier for tests, examples, and benches.
type Mailbox struct {
	mu   sync.Mutex
	msgs []Mail
}

// Mail is one delivered notification.
type Mail struct {
	User    string
	Subject string
	Body    string
	At      time.Time
}

// NewMailbox creates an empty mailbox.
func NewMailbox() *Mailbox { return &Mailbox{} }

// Notify implements Notifier.
func (m *Mailbox) Notify(user, subject, body string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.msgs = append(m.msgs, Mail{User: user, Subject: subject, Body: body, At: time.Now()})
}

// Messages returns all mail for user ("" = everyone).
func (m *Mailbox) Messages(user string) []Mail {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Mail
	for _, msg := range m.msgs {
		if user == "" || msg.User == user {
			out = append(out, msg)
		}
	}
	return out
}

// Selector chooses an execution site for a job — the pluggable resource
// brokering of §4.4. The broker package provides the paper's strategies.
type Selector interface {
	// Select returns the Gatekeeper address for the request.
	Select(req SubmitRequest) (string, error)
}

// HealthView answers "is this gatekeeper address currently worth
// submitting to?" — false for breaker-open sites. Selectors consult it
// so a dead site in the rotation stops receiving jobs whose submissions
// are guaranteed to fail.
type HealthView func(addr string) bool

// ErrAllSitesUnhealthy reports that every candidate site a selector
// considered is breaker-open. Callers usually fall back to a health-blind
// choice: the job queues and the breaker paces the attempts.
var ErrAllSitesUnhealthy = fmt.Errorf("all candidate sites are breaker-open")

// HealthAwareSelector is an optional Selector extension: SelectHealthy
// skips sites the view reports unhealthy, returning ErrAllSitesUnhealthy
// (wrapped) when no candidate passes.
type HealthAwareSelector interface {
	Selector
	SelectHealthy(req SubmitRequest, healthy HealthView) (string, error)
}

// selectSite routes through SelectHealthy when the selector supports it
// and a view is available, falling back to plain Select.
func selectSite(sel Selector, req SubmitRequest, healthy HealthView) (string, error) {
	if ha, ok := sel.(HealthAwareSelector); ok && healthy != nil {
		return ha.SelectHealthy(req, healthy)
	}
	return sel.Select(req)
}

// StaticSelector always routes to one site (the paper's "user-supplied
// list of GRAM servers" starting point, with a list of one).
type StaticSelector string

// Select implements Selector.
func (s StaticSelector) Select(SubmitRequest) (string, error) {
	if s == "" {
		return "", fmt.Errorf("condorg: no site configured")
	}
	return string(s), nil
}

// RoundRobinSelector rotates through a fixed site list.
type RoundRobinSelector struct {
	mu    sync.Mutex
	Sites []string
	next  int
}

// Select implements Selector.
func (r *RoundRobinSelector) Select(req SubmitRequest) (string, error) {
	return r.SelectHealthy(req, nil)
}

// SelectHealthy implements HealthAwareSelector: the rotation advances
// past breaker-open sites, wrapping ErrAllSitesUnhealthy when a full turn
// finds no healthy candidate.
func (r *RoundRobinSelector) SelectHealthy(_ SubmitRequest, healthy HealthView) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.Sites) == 0 {
		return "", fmt.Errorf("condorg: empty site list")
	}
	for i := 0; i < len(r.Sites); i++ {
		site := r.Sites[r.next%len(r.Sites)]
		r.next++
		if healthy == nil || healthy(site) {
			return site, nil
		}
	}
	return "", fmt.Errorf("condorg: %w (%d candidates)", ErrAllSitesUnhealthy, len(r.Sites))
}
