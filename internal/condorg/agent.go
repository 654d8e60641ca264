package condorg

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gass"
	"condorg/internal/gram"
	"condorg/internal/gsi"
	"condorg/internal/journal"
	"condorg/internal/obs"
	"condorg/internal/wire"
)

// Sentinel errors for control-plane and API callers; wrap sites add the
// job ID and state prose. The control server maps these to stable typed
// error codes (see CtlError).
var (
	// ErrNoSuchJob reports an unknown job ID.
	ErrNoSuchJob = errors.New("no such job")
	// ErrBadJobState reports an operation invalid in the job's state
	// (e.g. releasing a job that is not held).
	ErrBadJobState = errors.New("wrong job state")
	// ErrAgentClosed reports an operation on a closed agent.
	ErrAgentClosed = errors.New("agent closed")
)

// ProbeOptions paces the GridManager's §4.2 failure detector.
type ProbeOptions struct {
	// Interval is the JobManager liveness probe period (default 500ms).
	Interval time.Duration
}

// RetryOptions bounds the agent's automatic retry machinery.
type RetryOptions struct {
	// MaxResubmits bounds automatic resubmission of site-lost jobs
	// (default 3).
	MaxResubmits int
	// MaxSubmitRetries bounds failed submission attempts before the job
	// is held with a notification (default 50). Breaker fast-fails do
	// not count: only attempts that actually reached the network burn
	// the budget.
	MaxSubmitRetries int
	// MigrateAfter, when positive, moves a job that has sat in a remote
	// site's queue for that long to a different site chosen by the
	// Selector — §4.4's "migrate queued jobs". Zero disables migration.
	MigrateAfter time.Duration
	// MaxMigrations bounds queue migrations per job (default 5).
	MaxMigrations int
}

// PipelineOptions sizes the GridManager's per-site submission pipelines.
// Remote operations (submits, probes, recovery re-verifications, cancel
// retries) run on per-gatekeeper workers instead of one serial loop, so a
// slow or partitioned site only stalls its own pipeline.
type PipelineOptions struct {
	// PerSiteInFlight caps concurrent remote operations per gatekeeper
	// address within one owner's GridManager (default 4).
	PerSiteInFlight int
	// MaxInFlight caps concurrent remote operations agent-wide, across
	// all owners and sites (default 64). Workers blocked on this cap are
	// counted in gm_worker_stalls_total.
	MaxInFlight int
}

// FaultOptions injects failures for tests and chaos runs.
type FaultOptions struct {
	// Callback injects failures into the agent's callback server (lost
	// or delayed JobManager status callbacks — §4.2 experiments).
	Callback *wire.Faults
	// GASS injects failures into the agent's spool server, which sites
	// pull staging data from — mid-transfer resets and WAN delay for the
	// staging experiments.
	GASS *wire.Faults
}

// StageOptions selects the executable pre-staging data plane. When enabled
// (the default), the GridManager pushes each job's executable to its site
// through the gatekeeper's content-addressed cache before the GRAM submit,
// over at most four streams per site in chunks sized so that an executable
// of up to 4 MiB moves in one window (stage.go): shared
// binaries transfer once per site, and interrupted transfers resume from
// the last site-acked offset journaled in the job record.
type StageOptions struct {
	// Disabled turns pre-staging off: sites pull the whole executable
	// through GASS at commit time, serially, as before.
	Disabled bool
}

// ObsOptions configures the observability layer.
type ObsOptions struct {
	// Disabled turns the metrics registry off: every instrument becomes
	// a nil-handle no-op. A job's trace is a view of its history and
	// stays.
	Disabled bool
}

// AgentConfig configures the agent. The zero value (plus StateDir) works:
// NewAgent fills every zero tunable from DefaultAgentConfig.
type AgentConfig struct {
	// StateDir holds the persistent queue, the GASS spool, and user logs.
	// Reopening an agent on the same StateDir recovers every job.
	StateDir string
	// Credential is the user's proxy (nil on an unauthenticated grid).
	Credential *gsi.Credential
	// Clock for credential decisions; defaults to wall time.
	Clock gsi.Clock
	// Selector picks sites for jobs without an explicit Site.
	Selector Selector
	// DeferBinding accepts jobs even when the Selector currently has no
	// candidate (e.g. an elastic pool that has scaled to zero): the job
	// queues unbound and the dispatcher binds it once a site appears.
	// The dispatcher also re-binds still-unsubmitted jobs away from
	// breaker-open or vanished sites — safe because a job without a
	// remote contact can have left at most an uncommitted (never-run)
	// incarnation behind.
	DeferBinding bool
	// Notifier receives user notifications; defaults to a Mailbox.
	Notifier Notifier
	// Delegate forwards a proxy of this lifetime with each submission.
	Delegate time.Duration
	// Probe paces the failure detector.
	Probe ProbeOptions
	// Retry bounds resubmission, submit retries, and migration.
	Retry RetryOptions
	// Pipeline sizes the per-site submission pipelines.
	Pipeline PipelineOptions
	// Stage tunes chunked executable pre-staging.
	Stage StageOptions
	// Breaker tunes the per-site circuit breakers inside each
	// GridManager's GRAM client (zero value = faultclass defaults).
	Breaker faultclass.BreakerConfig
	// Tenancy configures owner sharding and fair-share admission: how
	// many journal partitions the queue is striped across, per-owner
	// quotas, and the per-owner submit rate limit (see tenancy.go).
	Tenancy TenancyOptions
	// Faults injects failures for chaos tests.
	Faults FaultOptions
	// Journal configures the persistent queue's durability (the §4.2
	// "stable storage"). The zero value journals asynchronously — fast,
	// survives an agent crash, but a host power failure may lose the last
	// events. Set Journal.Sync to make every job-state transition durable
	// before it is acknowledged; concurrent jobs share fsyncs through
	// group commit, so the cost amortizes under load.
	Journal journal.StoreOptions
	// HA configures hot-standby failover (see Standby).
	HA HAOptions
	// Obs configures metrics and tracing.
	Obs ObsOptions
}

// DefaultAgentConfig returns a config with every tunable at its default,
// ready for flag wiring to override; it is the one place those defaults are
// written. StateDir, Selector, and Credential must still be supplied by the
// caller.
func DefaultAgentConfig() AgentConfig {
	return AgentConfig{
		Clock: gsi.WallClock,
		Probe: ProbeOptions{
			Interval: 500 * time.Millisecond,
		},
		Retry: RetryOptions{
			MaxResubmits:     3,
			MaxSubmitRetries: 50,
			MaxMigrations:    5,
		},
		Pipeline: PipelineOptions{
			PerSiteInFlight: 4,
			MaxInFlight:     64,
		},
	}
}

// HAOptions configures hot-standby support on the primary agent.
type HAOptions struct {
	// Enabled journals job payloads (executable, stdin) into the queue
	// store alongside the job record — so a standby tailing the journal
	// stream can re-stage them after takeover — and turns on synchronous
	// replication: once a standby has acknowledged progress, acknowledged
	// submissions additionally wait (after local durability) until the
	// standby holds them.
	Enabled bool
	// SyncTimeout bounds how long an acknowledged write waits for a
	// lagging standby before disarming the sync wait (default 1s;
	// availability beats replication — the wait re-arms on the standby's
	// next acknowledgement).
	SyncTimeout time.Duration
}

// formatFile stamps a state directory with the one on-disk format this
// agent reads and writes (DESIGN.md §10); a change of shape bumps the number.
const formatFile, stateFormat = "FORMAT", "1"

// CheckStateFormat applies the state-directory rule to dir, writing
// nothing. A directory stamped with this agent's format opens (nil); one
// that is missing or holds no agent files (queue/, spool/, logs/) is fresh,
// for openQueue to stamp; any other is refused with a Permanent error that
// says what it lacks and what to do. Nothing is migrated.
func CheckStateFormat(dir string) (fresh bool, err error) {
	refuse := func(format string, args ...any) (bool, error) {
		lacks := fmt.Sprintf(format, args...)
		return false, faultclass.New(faultclass.Permanent, fmt.Errorf(
			"condorg: state directory %s %s; start on a fresh state directory, or drain this one with the release that wrote it", dir, lacks))
	}
	raw, err := os.ReadFile(filepath.Join(dir, formatFile))
	if got := strings.TrimSpace(string(raw)); err == nil && got != stateFormat {
		return refuse("is stamped %s %q, but this agent reads only format %s", formatFile, got, stateFormat)
	} else if !errors.Is(err, os.ErrNotExist) {
		return false, err // nil: stamped with this agent's format
	}
	for _, name := range []string{"queue", "spool", "logs"} {
		if _, err := os.Lstat(filepath.Join(dir, name)); err == nil {
			return refuse("holds %s/ but no %s stamp: it predates state-dir format %s, the only one this agent reads", name, formatFile, stateFormat)
		}
	}
	return true, nil
}

// openQueue opens the job queue of an agent or standby state directory,
// the owner-partitioned store set under queue/parts, once the directory
// passes CheckStateFormat; a fresh directory is stamped first.
func openQueue(stateDir string, partitions int, opts journal.StoreOptions) (*journal.PartitionSet, error) {
	fresh, err := CheckStateFormat(stateDir)
	if err != nil {
		return nil, err
	}
	if fresh {
		if err := os.MkdirAll(stateDir, 0o700); err != nil {
			return nil, err
		}
		if err := journal.WriteFileAtomic(filepath.Join(stateDir, formatFile), []byte(stateFormat+"\n")); err != nil {
			return nil, err
		}
	}
	return journal.OpenPartitionSet(filepath.Join(stateDir, "queue", "parts"), partitions, opts)
}

// maxOpenUserLogs bounds the user-log file handles kept open, one per
// owner that logged an event; past it a kept handle is closed and its
// owner's file reopened on that owner's next event.
const maxOpenUserLogs = 128

// Agent is the Condor-G Scheduler: persistent queue plus per-user
// GridManagers.
type Agent struct {
	cfg   AgentConfig
	gassS *gass.Server
	cbSrv *wire.Server

	logMu    sync.Mutex          // guards logFiles and on-disk user-log appends
	logFiles map[string]*os.File // by owner

	// spoolLocks are the per-path locks of the spool (paths hash onto
	// stripes). The write side serializes the writers of one object and
	// finishJob's check and Delete of a replicated key; the read side
	// holds an HA submit's Put and indexing of that key.
	spoolLocks [spoolStripes]sync.RWMutex

	// changed wakes WaitAll and other whole-queue watchers on any
	// job-state change; its lock is a leaf taken under no other.
	changed stateBroadcast

	// stageKnown remembers which sites hold which executables (stage.go).
	stageKnown stageKnown

	// pipeSem is the agent-wide remote-operation cap shared by every
	// GridManager's site workers (AgentConfig.Pipeline.MaxInFlight),
	// granted round-robin across owners when saturated (fairsem.go).
	pipeSem *fairSem

	// parts is the persistent job queue (DESIGN.md §11): each owner's
	// records live in a hash bucket with its own chain, snapshot, and
	// group-commit window; a standby tails each partition's chain.
	parts *journal.PartitionSet

	// shards stripes the job table per owner; each shard has its own
	// lock, so one owner's burst never contends on another's.
	shardMu sync.RWMutex
	shards  map[string]*ownerShard

	// ids is the global job-ID index (reads take only the RLock).
	idMu sync.RWMutex
	ids  map[string]*jobRecord

	// serial mints job IDs; atomic so submits don't serialize on a.mu.
	serial atomic.Int64

	mu         sync.Mutex
	bySiteJob  map[string]string     // site job ID -> agent job ID
	tombstoned map[string]*jobRecord // jobs with unacked cancels
	managers   map[string]*GridManager
	// sessions holds one gatekeeper connection per (gatekeeper,
	// credential), shared by the managers of every owner using that
	// credential, so it outlives any one of them.
	sessions *gram.Sessions
	// creds holds per-owner refreshed proxies; owners without an entry
	// use cfg.Credential (the agent-wide default).
	creds   map[string]*gsi.Credential
	closed  bool
	mailbox *Mailbox

	// obs is nil when metrics are disabled (every handle below is then a
	// nil no-op).
	obs      *obs.Registry
	mSubmit  *obs.Histogram // agent_submit_seconds
	mWait    *obs.Histogram // agent_wait_seconds
	mPersist *obs.Histogram // agent_persist_seconds

	// lazy lists, per journal partition, the records with lazy changes
	// waiting to ride the partition's next commit (persist.go).
	lazyMu sync.Mutex
	lazy   map[*journal.Store][]*jobRecord

	// testPersistHook, when set (by tests, before any job exists), runs in
	// persist just before each journal write, with the record's persistMu
	// held: a test blocks or counts writes there.
	testPersistHook func(rec *jobRecord, d durability)
}

// NewAgent opens (or recovers) an agent rooted at cfg.StateDir.
func NewAgent(cfg AgentConfig) (*Agent, error) {
	if cfg.StateDir == "" {
		return nil, errors.New("condorg: StateDir required")
	}
	def := DefaultAgentConfig()
	if cfg.Clock == nil {
		cfg.Clock = def.Clock
	}
	if cfg.Probe.Interval == 0 {
		cfg.Probe.Interval = def.Probe.Interval
	}
	if cfg.Retry.MaxResubmits == 0 {
		cfg.Retry.MaxResubmits = def.Retry.MaxResubmits
	}
	if cfg.Retry.MaxMigrations == 0 {
		cfg.Retry.MaxMigrations = def.Retry.MaxMigrations
	}
	if cfg.Retry.MaxSubmitRetries == 0 {
		cfg.Retry.MaxSubmitRetries = def.Retry.MaxSubmitRetries
	}
	if cfg.Pipeline.PerSiteInFlight <= 0 {
		cfg.Pipeline.PerSiteInFlight = def.Pipeline.PerSiteInFlight
	}
	if cfg.Pipeline.MaxInFlight <= 0 {
		cfg.Pipeline.MaxInFlight = def.Pipeline.MaxInFlight
	}
	a := &Agent{
		cfg:        cfg,
		creds:      make(map[string]*gsi.Credential),
		shards:     make(map[string]*ownerShard),
		ids:        make(map[string]*jobRecord),
		bySiteJob:  make(map[string]string),
		tombstoned: make(map[string]*jobRecord),
		managers:   make(map[string]*GridManager),
		sessions:   gram.NewSessions(cfg.Clock),
		logFiles:   make(map[string]*os.File),
		lazy:       make(map[*journal.Store][]*jobRecord),
		pipeSem:    newFairSem(cfg.Pipeline.MaxInFlight),
	}
	if !cfg.Obs.Disabled {
		a.obs = obs.NewRegistry()
		a.mSubmit = a.obs.Histogram("agent_submit_seconds")
		a.mWait = a.obs.Histogram("agent_wait_seconds")
		a.mPersist = a.obs.Histogram("agent_persist_seconds")
		a.obs.AddCollector(a.collectGauges)
	}
	if cfg.Notifier == nil {
		a.mailbox = NewMailbox()
		a.cfg.Notifier = a.mailbox
	}
	jopts := cfg.Journal
	jopts.Obs = a.obs
	parts, err := openQueue(cfg.StateDir, cfg.Tenancy.Partitions, jopts)
	if err != nil {
		return nil, err
	}
	a.parts = parts
	if err := os.MkdirAll(filepath.Join(cfg.StateDir, "logs"), 0o700); err != nil {
		parts.Close()
		return nil, err
	}
	if cfg.HA.Enabled {
		parts.SyncReplication(cfg.HA.SyncTimeout)
	}
	gassS, err := gass.NewServer(filepath.Join(cfg.StateDir, "spool"), gass.ServerOptions{Faults: cfg.Faults.GASS})
	if err != nil {
		parts.Close()
		return nil, err
	}
	a.gassS = gassS
	if err := a.initSpool(); err != nil {
		gassS.Close()
		parts.Close()
		return nil, err
	}
	cbSrv, err := wire.NewServer(wire.ServerConfig{Name: gram.CallbackService, Faults: cfg.Faults.Callback})
	if err != nil {
		gassS.Close()
		parts.Close()
		return nil, err
	}
	cbSrv.Handle("gram.callback", a.handleCallback)
	a.cbSrv = cbSrv
	if err := a.recover(); err != nil {
		a.Close()
		return nil, err
	}
	return a, nil
}

// Mailbox returns the default in-memory notifier (nil when a custom
// Notifier was supplied).
func (a *Agent) Mailbox() *Mailbox { return a.mailbox }

// collectGauges is the registry collector: queue and site gauges computed
// from live structures at snapshot time. Breaker gauges exist only while
// the owner has a live GridManager (managers retire when their user's
// work drains).
func (a *Agent) collectGauges(set func(name string, v float64)) {
	activeTotal := 0
	bySite := make(map[string]int)
	for _, sh := range a.allShards() {
		recs := a.activeJobs(sh.owner)
		for _, rec := range recs {
			activeTotal++
			rec.mu.Lock()
			site := rec.Site
			rec.mu.Unlock()
			if site != "" {
				bySite[site]++
			}
		}
		if len(recs) > 0 {
			set(obs.Key("owner_active_jobs", "owner", sh.owner), float64(len(recs)))
		}
	}
	a.mu.Lock()
	tombs := 0
	for _, rec := range a.tombstoned {
		rec.mu.Lock()
		tombs += len(rec.CancelPending)
		rec.mu.Unlock()
	}
	type mgr struct {
		owner string
		gm    *GridManager
	}
	var managers []mgr
	for owner, gm := range a.managers {
		if !gm.done() {
			managers = append(managers, mgr{owner, gm})
		}
	}
	a.mu.Unlock()
	set("agent_jobs_active", float64(activeTotal))
	set("agent_cancel_tombstones_pending", float64(tombs))
	set("agent_gridmanagers_active", float64(len(managers)))
	for site, n := range bySite {
		set(obs.Key("site_active_jobs", "site", site), float64(n))
	}
	for _, m := range managers {
		for addr, bi := range m.gm.gram.HealthSnapshot() {
			set(obs.Key("site_breaker_state", "owner", m.owner, "site", addr), float64(bi.State))
			set(obs.Key("site_breaker_fails", "owner", m.owner, "site", addr), float64(bi.Fails))
			set(obs.Key("site_breaker_backoff_seconds", "owner", m.owner, "site", addr), bi.Delay.Seconds())
		}
		queued, inflight, backlog := m.gm.pipelineStats()
		set(obs.Key("gm_dispatch_queue_depth", "owner", m.owner), float64(backlog))
		for addr, n := range queued {
			set(obs.Key("gm_site_queue_depth", "owner", m.owner, "site", addr), float64(n))
			set(obs.Key("gm_site_inflight", "owner", m.owner, "site", addr), float64(inflight[addr]))
		}
	}
}

// MetricsSnapshot returns the agent's metric registry snapshot (nil when
// metrics are disabled).
func (a *Agent) MetricsSnapshot() []obs.Metric { return a.obs.Snapshot() }

// Obs exposes the agent's metric registry (nil when disabled) so
// companion services can register their own instruments.
func (a *Agent) Obs() *obs.Registry { return a.obs }

// Trace returns the job's lifecycle timeline: its whole history, which is
// persisted with the job record, so it survives agent crash and recovery.
func (a *Agent) Trace(id string) (obs.Timeline, error) {
	rec, ok := a.job(id)
	if !ok {
		return obs.Timeline{}, fmt.Errorf("condorg: %w: %q", ErrNoSuchJob, id)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	return traceOf(rec.Events), nil
}

// recover reloads the queue and restarts GridManagers for unfinished work.
// For jobs whose GASS URLs reference the agent's previous address, the URLs
// are rewritten and pushed to the JobManagers — the §4.2 restart path.
func (a *Agent) recover() error {
	// Each partition's entries fold in a goroutine of their own — the
	// partitions share nothing — and are indexed one partition after
	// another below.
	stores := a.parts.Stores()
	folded := make([]foldedPartition, len(stores))
	var wg sync.WaitGroup
	for i, st := range stores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			folded[i] = foldPartition(st)
		}()
	}
	wg.Wait()
	var recovered []*jobRecord
	tombOwners := make(map[string]bool)
	spool := make(map[string][]byte)
	for _, part := range folded {
		if part.err != nil {
			return part.err
		}
		for rel, data := range part.spool {
			spool[rel] = data
		}
		for _, rec := range part.recs {
			sh, err := a.shard(rec.Owner)
			if err != nil {
				return err
			}
			a.indexJob(sh, rec)
			a.mu.Lock()
			if rec.Contact.JobID != "" {
				a.bySiteJob[rec.Contact.JobID] = rec.ID
			}
			if len(rec.CancelPending) > 0 {
				// An old incarnation's cancel never got acknowledged; a
				// GridManager must keep chasing it even if this job is
				// otherwise finished.
				a.tombstoned[rec.ID] = rec
				tombOwners[rec.Owner] = true
			}
			a.mu.Unlock()
			if n := int64(parseAgentSerial(rec.ID)); n > a.serial.Load() {
				a.serial.Store(n)
			}
			if !rec.State.Terminal() {
				recovered = append(recovered, rec)
			}
		}
	}
	// Re-stage replicated payloads before any job restarts: a recovered
	// submission's JobManager will fetch the executable from these URLs.
	// Each key names its own path, whatever layout wrote it.
	for rel, data := range spool {
		if err := a.commitSpool(rel, data); err != nil {
			return fmt.Errorf("condorg: re-stage %s: %w", rel, err)
		}
	}
	byOwner := make(map[string][]*jobRecord)
	for _, rec := range recovered {
		// The GASS server restarted on a new port: rewrite the job's
		// staging and output URLs before the GridManager touches it. Held
		// jobs get the rewrite too — a later Release resubmits from this
		// spec, and the old address is gone for them just the same.
		rec.mu.Lock()
		a.rewriteSpecURLs(&rec.Spec)
		held := rec.State == Held
		a.emit(rec, evRecover, "", "agent restarted; job reloaded from the queue")
		rec.mu.Unlock()
		// Lazy: the next restart rewrites the URLs again.
		a.persist(rec, lazy)
		if !held {
			byOwner[rec.Owner] = append(byOwner[rec.Owner], rec)
		}
	}
	for owner, recs := range byOwner {
		a.managerFor(owner).enqueueRecovery(recs)
	}
	// Owners whose only remaining business is unacknowledged cancels
	// (terminal or held jobs with tombstones) still need a manager.
	for owner := range tombOwners {
		a.managerFor(owner)
	}
	return nil
}

// foldedPartition is what one journal partition holds: its job records,
// folded, and its replicated job payloads by spool path.
type foldedPartition struct {
	recs  []*jobRecord
	spool map[string][]byte
	err   error
}

// foldPartition folds every entry of one journal partition.
func foldPartition(st *journal.Store) foldedPartition {
	out := foldedPartition{spool: make(map[string][]byte)}
	out.err = st.ForEachEntry(func(key string, image json.RawMessage, patches []json.RawMessage) error {
		if rel, ok := strings.CutPrefix(key, spoolKeyPrefix); ok {
			// A replicated job payload, not a job record: collected for
			// materialization into the GASS spool (the standby's disk has
			// the journal but not the staged files).
			var data []byte
			if err := json.Unmarshal(image, &data); err != nil {
				return fmt.Errorf("condorg: spool entry %s: %w", key, err)
			}
			out.spool[rel] = data
			return nil
		}
		rec, err := foldJob(key, image, patches)
		if err != nil {
			return err
		}
		out.recs = append(out.recs, rec)
		return nil
	})
	return out
}

// addCancelTombstone records that the remote copy at contact must be
// cancelled before this job's story is over. The caller journals it —
// must-wait, in the write of the change that orphaned the copy — so the
// obligation survives agent restarts; the owner's GridManager retries
// until the site acknowledges (cancelBatch).
func (a *Agent) addCancelTombstone(rec *jobRecord, contact gram.JobContact) {
	if contact.JobID == "" {
		return
	}
	rec.mu.Lock()
	rec.CancelPending = append(rec.CancelPending, contact)
	rec.mu.Unlock()
	a.mu.Lock()
	a.tombstoned[rec.ID] = rec
	a.mu.Unlock()
}

// ackCancelTombstone drops an acknowledged cancel obligation; the caller
// journals it.
func (a *Agent) ackCancelTombstone(rec *jobRecord, contact gram.JobContact) {
	rec.mu.Lock()
	// A fresh slice: a journal write may hold the old one (persist.go).
	rec.CancelPending = slices.DeleteFunc(slices.Clone(rec.CancelPending),
		func(c gram.JobContact) bool { return c == contact })
	empty := len(rec.CancelPending) == 0
	rec.mu.Unlock()
	if empty {
		a.mu.Lock()
		delete(a.tombstoned, rec.ID)
		a.mu.Unlock()
	}
}

// pendingCancels returns owner's jobs that still carry cancel
// tombstones (Owner is immutable, so reading it without rec.mu is safe).
func (a *Agent) pendingCancels(owner string) []*jobRecord {
	a.mu.Lock()
	defer a.mu.Unlock()
	var out []*jobRecord
	for _, rec := range a.tombstoned {
		if rec.Owner == owner {
			out = append(out, rec)
		}
	}
	return out
}

// unindexSiteJob removes the site-job-ID mapping for a dead incarnation —
// but only if it still points at this job. A restarted site may have
// re-issued the same ID to this job's (or another job's) newer
// incarnation, and a stale delete would orphan that live mapping.
func (a *Agent) unindexSiteJob(siteJobID, jobID string) {
	if siteJobID == "" {
		return
	}
	a.mu.Lock()
	if a.bySiteJob[siteJobID] == jobID {
		delete(a.bySiteJob, siteJobID)
	}
	a.mu.Unlock()
}

// finishJob retires a job that reached a terminal state once the state's
// must-wait write has returned: durably (ok), the job settles, its waiters
// wake, it leaves the non-terminal index and, under HA, releases its
// replicated payloads. A failed write leaves the job unsettled in the
// index, so neither Wait nor WaitAll reports it: journal errors are sticky,
// the partition takes no further write, and after a restart recovery
// re-probes the job from its last durable state.
func (a *Agent) finishJob(rec *jobRecord, ok bool) {
	rec.release(ok)
	if !ok {
		return
	}
	// Every job record is created through shard(owner), so the shard exists.
	sh := a.shardIfPresent(rec.Owner)
	sh.mu.Lock()
	delete(sh.active, rec.ID)
	sh.mu.Unlock()
	if a.cfg.HA.Enabled {
		rec.mu.Lock()
		paths := spoolPaths(rec.Spec)
		rec.mu.Unlock()
		for _, p := range paths {
			a.releaseSpoolKey(sh.store, p)
		}
	}
}

// noteJobChange wakes whole-queue watchers (WaitAll) and the owner's
// GridManager after a job-state change. Per-job waiters are woken by
// bumpLocked at the mutation site, or by release once the change's
// must-wait write has returned.
func (a *Agent) noteJobChange(owner string) {
	a.changed.Notify()
	a.mu.Lock()
	gm := a.managers[owner]
	a.mu.Unlock()
	if gm != nil {
		gm.poke()
	}
}

// activeJobs returns the owner's non-terminal jobs (unordered).
func (a *Agent) activeJobs(owner string) []*jobRecord {
	sh := a.shardIfPresent(owner)
	if sh == nil {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	out := make([]*jobRecord, 0, len(sh.active))
	for _, rec := range sh.active {
		out = append(out, rec)
	}
	return out
}

// activeJobsSorted returns the owner's non-terminal jobs in queue order.
func (a *Agent) activeJobsSorted(owner string) []*jobRecord {
	recs := a.activeJobs(owner)
	sort.Slice(recs, func(i, j int) bool { return lessJobID(recs[i].ID, recs[j].ID) })
	return recs
}

func parseAgentSerial(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "gj%d", &n); err != nil {
		return 0
	}
	return n
}

// lessJobID orders job IDs by agent serial, falling back to lexicographic
// order for IDs that carry no gjN serial (e.g. future sharded IDs) so the
// sort stays deterministic.
func lessJobID(a, b string) bool {
	na, nb := parseAgentSerial(a), parseAgentSerial(b)
	if na != nb {
		return na < nb
	}
	return a < b
}

// rewriteSpecURLs repoints every gass:// URL in the spec at the agent's
// current GASS address.
func (a *Agent) rewriteSpecURLs(spec *gram.JobSpec) {
	fix := func(s string) string {
		u, err := gass.ParseURL(s)
		if err != nil {
			return s
		}
		u.Addr = a.gassS.Addr()
		return u.String()
	}
	if spec.Executable != "" {
		spec.Executable = fix(spec.Executable)
	}
	if spec.Stdin != "" {
		spec.Stdin = fix(spec.Stdin)
	}
	if spec.StdoutURL != "" {
		spec.StdoutURL = fix(spec.StdoutURL)
	}
	if spec.StderrURL != "" {
		spec.StderrURL = fix(spec.StderrURL)
	}
}

// appendUserLog writes one event line, tagged with the job's ID, to its
// owner's user log through a kept per-owner handle: one append-only file
// shared by all of the owner's jobs, as Condor's user log is shared by the
// jobs of a cluster. No handle belongs to a job, so none outlives one. A
// handle that fails a write is dropped, so the retry opens the file anew.
func (a *Agent) appendUserLog(rec *jobRecord, ev *Event) error {
	// ID and Owner are immutable, so they are read without rec.mu.
	a.logMu.Lock()
	defer a.logMu.Unlock()
	f := a.logFiles[rec.Owner]
	if f == nil {
		var err error
		f, err = os.OpenFile(a.userLogPath(rec.Owner), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			return err
		}
		if len(a.logFiles) >= maxOpenUserLogs {
			for victim, vf := range a.logFiles {
				vf.Close()
				delete(a.logFiles, victim)
				break
			}
		}
		a.logFiles[rec.Owner] = f
	}
	if _, err := fmt.Fprintf(f, "%s %s %-16s %s\n", ev.At.Format(time.RFC3339Nano), rec.ID, ev.Code, ev.Text); err != nil {
		f.Close()
		delete(a.logFiles, rec.Owner)
		return err
	}
	return nil
}

// UserLogPath returns the on-disk user log that holds job id's events: its
// owner's file, in which every line names the job it belongs to ("" for an
// unknown job).
func (a *Agent) UserLogPath(id string) string {
	rec, ok := a.job(id)
	if !ok {
		return ""
	}
	return a.userLogPath(rec.Owner)
}

func (a *Agent) userLogPath(owner string) string {
	return filepath.Join(a.cfg.StateDir, "logs", url.PathEscape(owner)+".log")
}

// managerFor returns (starting if needed) the owner's GridManager.
// "The Scheduler responds to a user request to submit jobs ... by creating
// a new GridManager daemon."
func (a *Agent) managerFor(owner string) *GridManager {
	a.mu.Lock()
	defer a.mu.Unlock()
	if gm, ok := a.managers[owner]; ok && !gm.done() {
		return gm
	}
	gm := newGridManager(a, owner, a.ownerCredLocked(owner))
	a.managers[owner] = gm
	return gm
}

// enqueueSubmit hands rec to its owner's GridManager, starting a new one if
// the current manager retires before taking it. On a closed agent the job
// stays in the journal for the next NewAgent to recover.
func (a *Agent) enqueueSubmit(rec *jobRecord) {
	for {
		a.mu.Lock()
		closed := a.closed
		a.mu.Unlock()
		if closed || a.managerFor(rec.Owner).enqueueSubmit(rec) {
			return
		}
	}
}

// SiteHealth reports the circuit-breaker state of one remote address as
// seen by the owner's GridManager. Closed (healthy) is returned when the
// owner has no live manager.
func (a *Agent) SiteHealth(owner, addr string) faultclass.BreakerState {
	a.mu.Lock()
	gm := a.managers[owner]
	a.mu.Unlock()
	if gm == nil {
		return faultclass.Closed
	}
	return gm.gram.SiteHealth(addr)
}

// PipelineHealth reports the per-owner, per-site pipeline and breaker
// view: breaker state, queued tasks, and in-flight tasks for every site a
// live GridManager is talking to. Sorted by owner then site.
func (a *Agent) PipelineHealth() []CtlSiteHealth {
	a.mu.Lock()
	type mgr struct {
		owner string
		gm    *GridManager
	}
	var managers []mgr
	for owner, gm := range a.managers {
		if !gm.done() {
			managers = append(managers, mgr{owner, gm})
		}
	}
	a.mu.Unlock()
	var out []CtlSiteHealth
	for _, m := range managers {
		queued, inflight, _ := m.gm.pipelineStats()
		stageHits, stageMisses := m.gm.stageStats()
		for addr, bi := range m.gm.gram.HealthSnapshot() {
			out = append(out, CtlSiteHealth{
				Owner:       m.owner,
				Site:        addr,
				Breaker:     bi.State.String(),
				Fails:       bi.Fails,
				Queued:      queued[addr],
				InFlight:    inflight[addr],
				StageHits:   stageHits[addr],
				StageMisses: stageMisses[addr],
			})
			delete(queued, addr)
		}
		// Sites with queued work the client has never successfully
		// dialed (e.g. parked behind an open breaker) still show up.
		for addr, n := range queued {
			out = append(out, CtlSiteHealth{
				Owner: m.owner, Site: addr,
				Breaker: m.gm.gram.SiteHealth(addr).String(),
				Queued:  n, InFlight: inflight[addr],
				StageHits: stageHits[addr], StageMisses: stageMisses[addr],
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Owner != out[j].Owner {
			return out[i].Owner < out[j].Owner
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// ActiveGridManagers counts live per-user managers (they terminate when
// their user has no unfinished jobs).
func (a *Agent) ActiveGridManagers() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, gm := range a.managers {
		if !gm.done() {
			n++
		}
	}
	return n
}

// Submit stages the executable into the agent's GASS spool and enqueues the
// job; the owner's GridManager drives it from there.
func (a *Agent) Submit(req SubmitRequest) (string, error) {
	start := time.Now()
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return "", fmt.Errorf("condorg: %w", ErrAgentClosed)
	}
	a.mu.Unlock()
	if req.Owner == "" {
		req.Owner = "user"
	}
	// Admission before any work: quotas and the token bucket gate the
	// queue itself, so an over-quota owner costs neither journal writes
	// nor pipeline slots.
	sh, err := a.shard(req.Owner)
	if err != nil {
		return "", faultclass.New(faultclass.Transient, fmt.Errorf("condorg: open journal partition: %w", err))
	}
	if err := a.admit(sh, len(req.Executable)+len(req.Stdin)); err != nil {
		return "", err
	}
	id := fmt.Sprintf("gj%d", a.serial.Add(1))
	site := req.Site
	if site == "" {
		if a.cfg.Selector == nil {
			return "", errors.New("condorg: no Site given and no Selector configured")
		}
		// Health-aware selection: skip breaker-open sites so a dead site
		// in the rotation does not absorb jobs whose submissions are
		// guaranteed to fail. When EVERY candidate is open, fall back to a
		// blind choice — the job queues and the breaker paces attempts,
		// which preserves submit-during-total-outage semantics.
		healthy := func(addr string) bool {
			return a.SiteHealth(req.Owner, addr) != faultclass.Open
		}
		var err error
		site, err = selectSite(a.cfg.Selector, req, healthy)
		if errors.Is(err, ErrAllSitesUnhealthy) {
			site, err = a.cfg.Selector.Select(req)
		}
		if err != nil {
			if !a.cfg.DeferBinding {
				return "", fmt.Errorf("condorg: selector: %w", err)
			}
			// Deferred binding: queue the job unbound; dispatchPending
			// binds it once the selector has a candidate.
			site = ""
		}
	}

	// One hash per payload: it names the spooled object and, with staging
	// on, keys the site's cache.
	execHash := gram.HashExecutable(req.Executable)
	execRel, err := a.spool(execHash, req.Executable)
	if err != nil {
		return "", err
	}
	spec := gram.JobSpec{
		Executable: a.gassS.URLFor(execRel).String(),
		Args:       req.Args,
		Cpus:       req.Cpus,
		WallLimit:  req.WallLimit,
		Estimate:   req.Estimate,
		Env:        req.Env,
		StdoutURL:  a.gassS.URLFor("out/" + id + ".stdout").String(),
		StderrURL:  a.gassS.URLFor("out/" + id + ".stderr").String(),
	}
	payloads := map[string][]byte{execRel: req.Executable}
	if req.Stdin != nil {
		stdinRel, err := a.spool(gram.HashExecutable(req.Stdin), req.Stdin)
		if err != nil {
			return "", err
		}
		spec.Stdin = a.gassS.URLFor(stdinRel).String()
		payloads[stdinRel] = req.Stdin
	}

	rec := &jobRecord{jobDoc: jobDoc{
		JobInfo:      JobInfo{ID: id, Owner: req.Owner, State: Idle, Site: site, SubmittedAt: time.Now()},
		SubmissionID: gram.NewSubmissionID(),
		Spec:         spec,
	}}
	if !a.cfg.Stage.Disabled {
		// Content-address the executable: the hash keys the per-site cache
		// and drives the pre-stage task (resume offsets journal in Stage).
		rec.Spec.ExecutableHash = execHash
		rec.Stage = StageInfo{Hash: execHash, Total: int64(len(req.Executable))}
	}
	dest := site
	if dest == "" {
		dest = "a deferred-binding site"
	}
	a.emit(rec, evSubmit, "", "job submitted to agent, destined for "+dest) // rec is not shared yet
	// The admit image is journaled (must-wait) BEFORE the job is queued or
	// acknowledged (§3.2), and so before the network submission: if we
	// crash between the journal write and the site's reply, recovery
	// resubmits with the same SubmissionID and the site deduplicates —
	// exactly-once. A job whose image never reached the journal was never
	// queued.
	admit := func() error {
		if err := a.persist(rec, mustWait); err != nil {
			return faultclass.New(faultclass.Transient, fmt.Errorf("condorg: journal job %s: %w", id, err))
		}
		a.indexJob(sh, rec)
		return nil
	}
	if a.cfg.HA.Enabled {
		err = a.replicateSpool(sh, payloads, admit)
	} else {
		err = admit()
	}
	if err != nil {
		return "", err
	}
	a.enqueueSubmit(rec)
	a.changed.Notify()
	elapsed := time.Since(start).Seconds()
	a.mSubmit.Observe(elapsed)
	a.obs.Histogram(obs.Key("agent_owner_submit_seconds", "owner", req.Owner)).Observe(elapsed)
	return id, nil
}

// Status returns a job snapshot.
func (a *Agent) Status(id string) (JobInfo, error) {
	rec, ok := a.job(id)
	if !ok {
		return JobInfo{}, fmt.Errorf("condorg: %w: %q", ErrNoSuchJob, id)
	}
	return rec.snapshot(), nil
}

// Jobs lists all jobs sorted by ID.
func (a *Agent) Jobs() []JobInfo {
	jobs, _ := a.JobsFiltered(JobFilter{})
	return jobs
}

// JobFilter selects and pages Jobs output. The zero value matches
// everything in one page.
type JobFilter struct {
	// Owner restricts to one user's jobs ("" = all owners).
	Owner string
	// States restricts to the listed states (empty = all states).
	States []JobState
	// Limit caps the page size (0 = unlimited).
	Limit int
	// After is an exclusive cursor: the last job ID of the previous page.
	After string
}

// JobsFiltered lists jobs matching f in queue order. When Limit truncates
// the result, next is the cursor for the following page ("" otherwise).
func (a *Agent) JobsFiltered(f JobFilter) (jobs []JobInfo, next string) {
	var recs []*jobRecord
	if f.Owner != "" {
		if sh := a.shardIfPresent(f.Owner); sh != nil {
			sh.mu.Lock()
			recs = make([]*jobRecord, 0, len(sh.jobs))
			for _, rec := range sh.jobs {
				recs = append(recs, rec)
			}
			sh.mu.Unlock()
		}
	} else {
		a.idMu.RLock()
		recs = make([]*jobRecord, 0, len(a.ids))
		for _, rec := range a.ids {
			recs = append(recs, rec)
		}
		a.idMu.RUnlock()
	}
	// IDs are immutable, so sorting without rec.mu is safe.
	sort.Slice(recs, func(i, j int) bool { return lessJobID(recs[i].ID, recs[j].ID) })
	for _, rec := range recs {
		if f.After != "" && !lessJobID(f.After, rec.ID) {
			continue // at or before the cursor
		}
		info := rec.snapshot()
		if len(f.States) > 0 && !slices.Contains(f.States, info.State) {
			continue
		}
		if f.Limit > 0 && len(jobs) >= f.Limit {
			next = jobs[len(jobs)-1].ID
			break
		}
		jobs = append(jobs, info)
	}
	return jobs, next
}

// Hold parks a job: a held job is cancelled remotely (if running) and will
// not run again until Release. The credential monitor uses this for
// expired proxies (§4.3).
func (a *Agent) Hold(id, reason string) error {
	rec, ok := a.job(id)
	if !ok {
		return fmt.Errorf("condorg: %w: %q", ErrNoSuchJob, id)
	}
	if held, err := a.hold(rec, reason); held {
		return journalErr(id, "hold", err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.State.Terminal() {
		return fmt.Errorf("condorg: %w: job %s is %v", ErrBadJobState, id, rec.State)
	}
	return nil
}

// hold parks a job Held for reason and journals it must-wait. The remote
// copy, if any, is tombstone-cancelled, not cancelled best-effort: a lost
// cancel would let it run after a later Release resubmits the job. It
// reports false, changing nothing, for a job already held or finished.
func (a *Agent) hold(rec *jobRecord, reason string) (bool, error) {
	rec.mu.Lock()
	if rec.State.Terminal() || rec.State == Held {
		rec.mu.Unlock()
		return false, nil
	}
	rec.State = Held
	rec.HoldReason = reason
	contact := rec.Contact
	a.emit(rec, evHold, "", "job held: "+reason)
	rec.mu.Unlock()
	a.addCancelTombstone(rec, contact)
	err := a.persist(rec, mustWait)
	rec.release(err == nil)
	a.noteJobChange(rec.Owner)
	if contact.JobID != "" {
		a.managerFor(rec.Owner).dispatchCancelsFor(rec)
	}
	return true, err
}

// Release returns a held job to Idle; it will be (re)submitted.
func (a *Agent) Release(id string) error {
	rec, ok := a.job(id)
	if !ok {
		return fmt.Errorf("condorg: %w: %q", ErrNoSuchJob, id)
	}
	rec.mu.Lock()
	if rec.State != Held {
		rec.mu.Unlock()
		return fmt.Errorf("condorg: %w: job %s is %v, not held", ErrBadJobState, id, rec.State)
	}
	rec.State = Idle
	rec.HoldReason = ""
	// A fresh submission identity: the old remote job (if any) was
	// tombstone-cancelled at hold time. The submit-retry budget starts
	// over — the release is an explicit user decision to try again.
	rec.SubmissionID = gram.NewSubmissionID()
	rec.Contact = gram.JobContact{}
	rec.Remote = gram.StateUnsubmitted
	rec.SubmitRetries = 0
	a.emit(rec, evRelease, "", "job released from hold")
	rec.mu.Unlock()
	err := a.persist(rec, mustWait)
	rec.release(err == nil)
	if err != nil {
		return journalErr(id, "release", err)
	}
	a.enqueueSubmit(rec)
	a.changed.Notify()
	return nil
}

// Remove cancels a job. The remote copy of a held job was tombstoned when
// it was held; it is not cancelled a second time.
func (a *Agent) Remove(id string) error {
	rec, ok := a.job(id)
	if !ok {
		return fmt.Errorf("condorg: %w: %q", ErrNoSuchJob, id)
	}
	rec.mu.Lock()
	if rec.State.Terminal() {
		rec.mu.Unlock()
		return nil
	}
	contact := rec.Contact
	if rec.State == Held {
		contact = gram.JobContact{}
	}
	rec.State = Removed
	rec.FinishedAt = time.Now()
	a.emit(rec, evRemove, "", "job removed by user")
	rec.mu.Unlock()
	a.addCancelTombstone(rec, contact)
	err := a.persist(rec, mustWait)
	a.finishJob(rec, err == nil)
	a.noteJobChange(rec.Owner)
	if contact.JobID != "" {
		a.managerFor(rec.Owner).dispatchCancelsFor(rec)
	}
	return journalErr(id, "removal", err)
}

// journalErr wraps a failed must-wait write of a user operation on job id
// (nil stays nil): Transient, since the operation may succeed once the
// journal can be written.
func journalErr(id, op string, err error) error {
	if err == nil {
		return nil
	}
	return faultclass.New(faultclass.Transient, fmt.Errorf("condorg: journal %s of %s: %w", op, id, err))
}

// Wait blocks until the job is terminal — and that state durable in the
// journal — or ctx expires. It wakes on the job's state-change broadcast,
// so completion latency is bounded by the event, not by a poll interval.
func (a *Agent) Wait(ctx context.Context, id string) (JobInfo, error) {
	start := time.Now()
	rec, ok := a.job(id)
	if !ok {
		return JobInfo{}, fmt.Errorf("condorg: %w: %q", ErrNoSuchJob, id)
	}
	for {
		rec.mu.Lock()
		info := rec.snapshotLocked()
		ch := rec.changedLocked()
		settled := rec.settled
		rec.mu.Unlock()
		if settled {
			a.mWait.Observe(time.Since(start).Seconds())
			return info, nil
		}
		select {
		case <-ctx.Done():
			return info, ctx.Err()
		case <-ch:
		}
	}
}

// WaitAll blocks until every job is held or terminal — that state durable
// in the journal, as for Wait — or ctx expires.
func (a *Agent) WaitAll(ctx context.Context) error {
	for {
		// Grab the broadcast channel BEFORE scanning so a change that
		// lands between the scan and the wait is not missed.
		ch := a.changed.C()
		if !a.hasRunnableJobs() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
}

// hasRunnableJobs reports whether any job is neither held nor terminal
// with that state durable.
func (a *Agent) hasRunnableJobs() bool {
	for _, sh := range a.allShards() {
		for _, rec := range a.activeJobs(sh.owner) {
			rec.mu.Lock()
			runnable := !rec.settled && rec.State != Held
			rec.mu.Unlock()
			if runnable {
				return true
			}
		}
	}
	return false
}

// Stdout returns the job's streamed standard output so far (empty when
// nothing has arrived yet).
func (a *Agent) Stdout(id string) ([]byte, error) {
	return a.readStream(id, func(spec *gram.JobSpec) string { return spec.StdoutURL })
}

// Stderr returns the job's streamed standard error.
func (a *Agent) Stderr(id string) ([]byte, error) {
	return a.readStream(id, func(spec *gram.JobSpec) string { return spec.StderrURL })
}

// readStream reads the output file the job's own spec URL names, so a
// record journaled under any spool layout reads back the same way.
func (a *Agent) readStream(id string, stream func(*gram.JobSpec) string) ([]byte, error) {
	rec, ok := a.job(id)
	if !ok {
		return nil, fmt.Errorf("condorg: %w: %q", ErrNoSuchJob, id)
	}
	rec.mu.Lock()
	ref := stream(&rec.Spec)
	rec.mu.Unlock()
	data, err := a.readSpool(ref)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil // no output streamed yet
	}
	return data, err
}

// UserLog returns the job's event history.
func (a *Agent) UserLog(id string) ([]LogEvent, error) {
	info, err := a.Status(id)
	if err != nil {
		return nil, err
	}
	return info.Log, nil
}

// handleCallback receives JobManager status pushes.
func (a *Agent) handleCallback(_ string, body json.RawMessage) (any, error) {
	var st gram.StatusInfo
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	a.mu.Lock()
	agentID, ok := a.bySiteJob[st.JobID]
	a.mu.Unlock()
	var rec *jobRecord
	if ok {
		rec, _ = a.job(agentID)
	}
	a.obs.Counter("agent_callbacks_total").Inc()
	if rec != nil {
		a.applyRemoteStatus(rec, st)
	} else {
		a.obs.Counter("agent_callbacks_unmatched_total").Inc()
	}
	return struct{}{}, nil
}

// remoteRank orders GRAM states along the job lifecycle (Unsubmitted is 0)
// so stale, out-of-order status deliveries (callbacks are asynchronous)
// cannot move a job backwards.
var remoteRank = map[gram.JobState]int{
	gram.StateStageIn: 1, gram.StatePending: 2, gram.StateActive: 3,
	gram.StateDone: 4, gram.StateFailed: 4,
}

// applyRemoteStatus folds a GRAM status a callback delivered into the job
// record and journals it: a terminal state must-wait, before waiters wake
// and the owner is told, anything else lazily (the next probe re-derives
// it).
func (a *Agent) applyRemoteStatus(rec *jobRecord, st gram.StatusInfo) {
	changed, done := a.foldRemoteStatus(rec, st)
	if !changed {
		return
	}
	d := lazy
	if done {
		d = mustWait
	}
	err := a.persist(rec, d)
	a.statusApplied(rec, done, err == nil)
}

// foldRemoteStatus folds a GRAM status into the job record without
// journaling it, reporting whether the record changed and whether the job
// is now done (the caller's write must wait, and statusApplied wakes the
// waiters after it). Two staleness guards apply: the status must describe
// the job's CURRENT remote incarnation (hold/release, resubmission, and
// migration mint fresh remote jobs, and callbacks from the dead incarnation
// may still be in flight), and within an incarnation it must not move the
// lifecycle backwards (callbacks are delivered asynchronously and can
// reorder).
func (a *Agent) foldRemoteStatus(rec *jobRecord, st gram.StatusInfo) (changed, done bool) {
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if rec.State.Terminal() || rec.State == Held {
		return false, false
	}
	if st.JobID != "" && st.JobID != rec.Contact.JobID {
		return false, false // a previous incarnation's status
	}
	if st.GatekeeperAddr != "" && st.GatekeeperAddr != rec.Contact.GatekeeperAddr {
		// Job IDs are only site-unique: a late callback from a cancelled
		// incarnation at another site can collide with the live job ID.
		return false, false
	}
	if remoteRank[st.State] < remoteRank[rec.Remote] {
		return false, false // stale out-of-order delivery
	}
	transitioned := rec.Remote != st.State
	if !transitioned && !rec.Disconnected {
		return false, false // no observable change: skip the redundant persist
	}
	rec.Remote = st.State
	rec.Disconnected = false
	switch st.State {
	case gram.StatePending:
		rec.State = Idle
		if rec.PendingSince.IsZero() {
			rec.PendingSince = time.Now()
		}
		if transitioned {
			a.emit(rec, evPending, "", "queued in the site's local resource manager")
		}
	case gram.StateActive:
		rec.State = Running
		rec.PendingSince = time.Time{}
		if transitioned {
			a.emit(rec, evActive, "", "job began executing at "+rec.Site)
		}
	case gram.StateDone:
		// Always a transition: a job already Done remotely is Completed.
		rec.State = Completed
		rec.ExitOK = true
		rec.FinishedAt = time.Now()
		a.emit(rec, evDone, "", "job completed successfully")
	case gram.StateFailed:
		// Site-lost jobs are the GridManager's to resubmit; it
		// decides in its loop (maybeResubmit records the fault event
		// with its class). Mark the remote error for it.
		rec.Error = st.Error
		if transitioned {
			a.emit(rec, evRemoteFailure, st.Fault.String(), "remote failure: "+st.Error)
		}
	default:
		rec.State = Idle
	}
	done = st.State == gram.StateDone
	if !done {
		rec.bumpLocked() // only a terminal state waits for its write
	}
	return true, done
}

// statusApplied releases a folded status once its journal write has
// returned (ok: durably): a completed job's waiters wake, it leaves the
// active index, and its owner is told.
func (a *Agent) statusApplied(rec *jobRecord, done, ok bool) {
	if done {
		a.obs.Counter("agent_jobs_completed_total").Inc()
		a.finishJob(rec, ok)
		if ok {
			rec.mu.Lock()
			site := rec.Site
			rec.mu.Unlock()
			a.cfg.Notifier.Notify(rec.Owner, "job "+rec.ID+" completed",
				fmt.Sprintf("Your job %s finished successfully on %s.", rec.ID, site))
		}
	}
	a.noteJobChange(rec.Owner)
}

// Credential returns the agent's default user proxy (owners refreshed
// individually may hold a newer one — see OwnerCredential).
func (a *Agent) Credential() *gsi.Credential {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.cfg.Credential
}

// OwnerCredential returns the proxy owner's GridManager authenticates
// with: the owner's own refreshed proxy when one has been installed, the
// agent-wide default otherwise.
func (a *Agent) OwnerCredential(owner string) *gsi.Credential {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.ownerCredLocked(owner)
}

// ownerCredLocked is OwnerCredential under a.mu (managerFor calls it while
// holding the lock).
func (a *Agent) ownerCredLocked(owner string) *gsi.Credential {
	if cred, ok := a.creds[owner]; ok {
		return cred
	}
	return a.cfg.Credential
}

// SetOwnerCredential installs a refreshed proxy for one owner (§4.3): the
// owner's GridManager switches its GRAM client to it and flags every live
// remote job of the owner for in-band re-delegation — one
// gram.batch-refresh-credential frame per gatekeeper and ≤ maxBatch jobs, no
// hold/release cycle, so running jobs keep running while their remote
// proxies are replaced. Delivery is asynchronous on the per-site pipelines;
// a site that never hears the frame is retried at its breaker's pace, and
// only the site's own refusals can exhaust the retry budget and fall back to
// hold-and-notify.
func (a *Agent) SetOwnerCredential(owner string, cred *gsi.Credential) {
	a.mu.Lock()
	a.creds[owner] = cred
	gm := a.managers[owner]
	a.mu.Unlock()
	if gm != nil && !gm.done() {
		gm.gram.SetCredential(cred)
		gm.requestCredRefresh()
	}
}

// SetCredential installs a refreshed default proxy: every owner WITHOUT an
// owner-specific credential (see SetOwnerCredential) switches to it and has
// the refreshed proxy re-delegated in-band to its live remote jobs. Owners
// renewed individually keep their own, newer proxies.
func (a *Agent) SetCredential(cred *gsi.Credential) {
	a.mu.Lock()
	a.cfg.Credential = cred
	var managers []*GridManager
	for owner, gm := range a.managers {
		if _, override := a.creds[owner]; override || gm.done() {
			continue
		}
		managers = append(managers, gm)
	}
	a.mu.Unlock()
	for _, gm := range managers {
		gm.gram.SetCredential(cred)
		gm.requestCredRefresh()
	}
}

// HoldAll holds every non-terminal job of owner with the given reason and
// returns the held job IDs — the credential monitor's bulk action.
func (a *Agent) HoldAll(owner, reason string) []string {
	var held []string
	for _, rec := range a.activeJobsSorted(owner) {
		if ok, err := a.hold(rec, reason); ok && err == nil {
			held = append(held, rec.ID)
		}
	}
	return held
}

// ReleaseAll releases every held job of owner whose hold reason matches
// reasonPrefix ("" = all held jobs of that owner).
func (a *Agent) ReleaseAll(owner, reasonPrefix string) []string {
	var released []string
	for _, rec := range a.activeJobsSorted(owner) {
		rec.mu.Lock()
		match := rec.State == Held &&
			(reasonPrefix == "" || strings.HasPrefix(rec.HoldReason, reasonPrefix))
		rec.mu.Unlock()
		if !match {
			continue
		}
		if err := a.Release(rec.ID); err == nil {
			released = append(released, rec.ID)
		}
	}
	return released
}

// Owners returns users with at least one job in the queue.
func (a *Agent) Owners() []string {
	shards := a.allShards()
	out := make([]string, 0, len(shards))
	for _, sh := range shards {
		sh.mu.Lock()
		n := len(sh.jobs)
		sh.mu.Unlock()
		if n > 0 {
			out = append(out, sh.owner)
		}
	}
	sort.Strings(out)
	return out
}

// HasPendingJobs reports whether owner has non-terminal jobs (the
// credential monitor only analyzes "users with currently queued jobs").
func (a *Agent) HasPendingJobs(owner string) bool {
	for _, rec := range a.activeJobs(owner) {
		rec.mu.Lock()
		pending := !rec.State.Terminal()
		rec.mu.Unlock()
		if pending {
			return true
		}
	}
	return false
}

// Backlog counts runnable jobs: non-terminal and not held. It is the
// demand signal an elastic provisioner sizes the glidein pool to.
func (a *Agent) Backlog() int {
	a.idMu.RLock()
	recs := make([]*jobRecord, 0, len(a.ids))
	for _, rec := range a.ids {
		recs = append(recs, rec)
	}
	a.idMu.RUnlock()
	n := 0
	for _, rec := range recs {
		rec.mu.Lock()
		if !rec.State.Terminal() && rec.State != Held {
			n++
		}
		rec.mu.Unlock()
	}
	return n
}

// SiteRetired declares a gatekeeper address permanently gone. The paper's
// disconnection handling waits for a vanished site to come back — right
// for a real institution, hopeless for an elastic glidein pilot that was
// deliberately retired and will never return. The provisioner calls this
// after a pilot's GRAM job reaches a terminal state, which the pilot only
// does after closing its private gatekeeper: any incarnation still bound
// there provably cannot complete anymore, so it is classified SiteLost and
// resubmitted exactly-once through the standard ladder. Unsubmitted jobs
// bound to the address need nothing here — the deferred-binding dispatcher
// re-binds them once the breaker opens.
func (a *Agent) SiteRetired(addr string) {
	if addr == "" {
		return
	}
	a.stageKnown.forgetSite(addr)
	a.idMu.RLock()
	recs := make([]*jobRecord, 0, len(a.ids))
	for _, rec := range a.ids {
		recs = append(recs, rec)
	}
	a.idMu.RUnlock()
	for _, rec := range recs {
		rec.mu.Lock()
		match := !rec.State.Terminal() && rec.State != Held &&
			rec.Contact.JobID != "" && rec.Contact.GatekeeperAddr == addr
		owner := rec.Owner
		rec.mu.Unlock()
		if !match {
			continue
		}
		a.managerFor(owner).siteLost(rec, "glidein pilot at "+addr+" retired")
	}
}

// Notifier exposes the configured notifier for companion services.
func (a *Agent) Notifier() Notifier { return a.cfg.Notifier }

// Clock exposes the agent's clock.
func (a *Agent) Clock() gsi.Clock { return a.cfg.Clock }

// Close shuts the agent down (the submit machine powering off). Managers
// stop, servers close, the queue store is flushed. Reopen with NewAgent on
// the same StateDir to recover.
func (a *Agent) Close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	managers := make([]*GridManager, 0, len(a.managers))
	for _, gm := range a.managers {
		managers = append(managers, gm)
	}
	a.mu.Unlock()
	// Halt every manager before joining any: one still dispatching while
	// another drains a slow task would start remote work (a resubmission,
	// say) that a standby taking over from the journal might never see.
	for _, gm := range managers {
		gm.halt()
	}
	for _, gm := range managers {
		gm.join()
	}
	a.cbSrv.Close()
	a.gassS.Close()
	// Lazy changes ride the journal's final flush.
	for _, st := range a.parts.Stores() {
		a.writeLazy(st, nil)
	}
	a.parts.Close()
	a.logMu.Lock()
	for owner, f := range a.logFiles {
		f.Close()
		delete(a.logFiles, owner)
	}
	a.logMu.Unlock()
}
