package condorg

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
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
// in 64 KiB chunks over at most four streams per site (stage.go): shared
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
	// a nil-handle no-op. Trace timelines are controlled by TraceCap.
	Disabled bool
	// TraceCap bounds each job's trace timeline ring (0 = the default,
	// obs.DefaultTraceCap; negative disables tracing entirely).
	TraceCap int
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

// spoolKeyPrefix namespaces replicated job payloads inside the owner's
// queue partition, apart from the job records keyed by bare job ID.
const spoolKeyPrefix = "spool/"

// openQueue opens the job queue of an agent or standby state directory:
// the owner-partitioned store set under queue/parts. Store files in queue/
// itself (the retired single-store layout) are refused, never migrated.
func openQueue(stateDir string, partitions int, opts journal.StoreOptions) (*journal.PartitionSet, error) {
	queue := filepath.Join(stateDir, "queue")
	if files := journal.StoreFiles(queue); len(files) > 0 {
		return nil, faultclass.New(faultclass.Permanent, fmt.Errorf(
			"condorg: %s holds job-queue records outside queue/parts (the retired single-store layout); drain them with the release that wrote them, or move the file away", files[0]))
	}
	return journal.OpenPartitionSet(filepath.Join(queue, "parts"), partitions, opts)
}

// maxOpenUserLogs bounds the persistent user-log file handles kept open for
// non-terminal jobs; excess handles are closed and reopened on demand.
const maxOpenUserLogs = 128

// Agent is the Condor-G Scheduler: persistent queue plus per-user
// GridManagers.
type Agent struct {
	cfg   AgentConfig
	gassS *gass.Server
	cbSrv *wire.Server

	logMu    sync.Mutex // guards logFiles and on-disk user-log appends
	logFiles map[string]*os.File

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
	// creds holds per-owner refreshed proxies; owners without an entry
	// use cfg.Credential (the agent-wide default).
	creds   map[string]*gsi.Credential
	closed  bool
	mailbox *Mailbox

	// obs is nil when metrics are disabled (every handle below is then a
	// nil no-op). traceCap < 0 disables per-job timelines.
	obs      *obs.Registry
	traceCap int
	mSubmit  *obs.Histogram // agent_submit_seconds
	mWait    *obs.Histogram // agent_wait_seconds
	mPersist *obs.Histogram // agent_persist_seconds
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
		logFiles:   make(map[string]*os.File),
		pipeSem:    newFairSem(cfg.Pipeline.MaxInFlight),
		traceCap:   cfg.Obs.TraceCap,
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
	if err := os.MkdirAll(filepath.Join(cfg.StateDir, "logs"), 0o700); err != nil {
		return nil, err
	}
	jopts := cfg.Journal
	jopts.Obs = a.obs
	parts, err := openQueue(cfg.StateDir, cfg.Tenancy.Partitions, jopts)
	if err != nil {
		return nil, err
	}
	a.parts = parts
	if cfg.HA.Enabled {
		parts.SyncReplication(cfg.HA.SyncTimeout)
	}
	gassS, err := gass.NewServer(filepath.Join(cfg.StateDir, "spool"), gass.ServerOptions{Faults: cfg.Faults.GASS})
	if err != nil {
		parts.Close()
		return nil, err
	}
	a.gassS = gassS
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

// GassAddr returns the agent's GASS server address.
func (a *Agent) GassAddr() string { return a.gassS.Addr() }

// collectGauges is the registry collector: queue and site gauges computed
// from live structures at snapshot time. Breaker gauges exist only while
// the owner has a live GridManager (managers retire when their user's
// work drains).
func (a *Agent) collectGauges(set func(name string, v float64)) {
	activeTotal := 0
	bySite := make(map[string]int)
	for _, sh := range a.allShards() {
		sh.mu.Lock()
		recs := make([]*jobRecord, 0, len(sh.active))
		for _, rec := range sh.active {
			recs = append(recs, rec)
		}
		sh.mu.Unlock()
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

// traceLocked appends one event to the job's timeline; the caller holds
// rec.mu and is responsible for the following persist, which makes the
// event crash-durable together with the state change it describes.
func (a *Agent) traceLocked(rec *jobRecord, phase, class, detail string) {
	if a.traceCap < 0 {
		return
	}
	rec.Trace.Cap = a.traceCap
	rec.Trace.Append(time.Now(), phase, rec.Site, class, detail)
}

// trace is traceLocked plus the locking, for call sites that hold no lock.
func (a *Agent) trace(rec *jobRecord, phase, class, detail string) {
	rec.mu.Lock()
	a.traceLocked(rec, phase, class, detail)
	rec.mu.Unlock()
}

// Trace returns the job's lifecycle timeline. The timeline is persisted
// with the job record, so it survives agent crash and recovery.
func (a *Agent) Trace(id string) (obs.Timeline, error) {
	rec, ok := a.job(id)
	if !ok {
		return obs.Timeline{}, fmt.Errorf("condorg: %w: %q", ErrNoSuchJob, id)
	}
	rec.mu.Lock()
	tl := rec.Trace.Clone()
	rec.mu.Unlock()
	return tl, nil
}

// recover reloads the queue and restarts GridManagers for unfinished work.
// For jobs whose GASS URLs reference the agent's previous address, the URLs
// are rewritten and pushed to the JobManagers — the §4.2 restart path.
func (a *Agent) recover() error {
	var recovered []*jobRecord
	tombOwners := make(map[string]bool)
	spool := make(map[string][]byte)
	err := a.parts.ForEach(func(key string, raw json.RawMessage) error {
		if rel, ok := strings.CutPrefix(key, spoolKeyPrefix); ok {
			// A replicated job payload, not a job record: collect it for
			// materialization into the GASS spool below (the standby's disk
			// has the journal but not the staged files).
			var data []byte
			if err := json.Unmarshal(raw, &data); err != nil {
				return fmt.Errorf("condorg: spool entry %s: %w", key, err)
			}
			spool[rel] = data
			return nil
		}
		var rec jobRecord
		if err := json.Unmarshal(raw, &rec.JobInfo); err != nil {
			return err
		}
		var full struct {
			SubmissionID string        `json:"submission_id"`
			Spec         gram.JobSpec  `json:"spec"`
			Remote       gram.JobState `json:"remote"`
			Trace        obs.Timeline  `json:"trace"`
		}
		if err := json.Unmarshal(raw, &full); err != nil {
			return err
		}
		rec.SubmissionID = full.SubmissionID
		rec.Spec = full.Spec
		rec.Remote = full.Remote
		rec.Trace = full.Trace
		sh, err := a.shard(rec.Owner)
		if err != nil {
			return err
		}
		a.indexJob(sh, &rec)
		a.mu.Lock()
		if rec.Contact.JobID != "" {
			a.bySiteJob[rec.Contact.JobID] = rec.ID
		}
		if len(rec.CancelPending) > 0 {
			// An old incarnation's cancel never got acknowledged; a
			// GridManager must keep chasing it even if this job is
			// otherwise finished.
			a.tombstoned[rec.ID] = &rec
			tombOwners[rec.Owner] = true
		}
		a.mu.Unlock()
		if n := int64(parseAgentSerial(rec.ID)); n > a.serial.Load() {
			a.serial.Store(n)
		}
		if !rec.State.Terminal() {
			recovered = append(recovered, &rec)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// Re-stage replicated payloads before any job restarts: a recovered
	// submission's JobManager will fetch the executable from these URLs.
	for rel, data := range spool {
		if err := a.gassS.WriteFile(rel, data); err != nil {
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
		a.traceLocked(rec, obs.PhaseRecover, "", "agent restarted; job reloaded from the queue")
		rec.mu.Unlock()
		a.persist(rec)
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

// addCancelTombstone records that the remote copy at contact must be
// cancelled before this job's story is over. Persisted, so the
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
	a.persist(rec)
}

// ackCancelTombstone drops an acknowledged cancel obligation.
func (a *Agent) ackCancelTombstone(rec *jobRecord, contact gram.JobContact) {
	rec.mu.Lock()
	kept := make([]gram.JobContact, 0, len(rec.CancelPending))
	for _, c := range rec.CancelPending {
		if c != contact {
			kept = append(kept, c)
		}
	}
	rec.CancelPending = kept
	empty := len(kept) == 0
	rec.mu.Unlock()
	if empty {
		a.mu.Lock()
		delete(a.tombstoned, rec.ID)
		a.mu.Unlock()
	}
	a.persist(rec)
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

// finishJob retires a job that reached a terminal state: it leaves the
// non-terminal index and its user-log handle is released. Call after the
// final state is set and logged.
func (a *Agent) finishJob(rec *jobRecord) {
	// Every job record is created through shard(owner), so the shard exists.
	sh := a.shardIfPresent(rec.Owner)
	sh.mu.Lock()
	delete(sh.active, rec.ID)
	sh.mu.Unlock()
	a.closeUserLog(rec.ID)
	if a.cfg.HA.Enabled {
		// The replicated payload has served its purpose; drop it so the
		// journal stream and snapshots don't carry finished jobs' bytes.
		_ = sh.store.Delete(spoolKeyPrefix + filepath.Join("jobs", rec.ID, "executable"))
		_ = sh.store.Delete(spoolKeyPrefix + filepath.Join("jobs", rec.ID, "stdin"))
	}
}

// noteJobChange wakes whole-queue watchers (WaitAll) and the owner's
// GridManager after a job-state change. Per-job waiters are woken by
// bumpLocked at the mutation site.
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

func (a *Agent) persist(rec *jobRecord) {
	// persistMu orders snapshot+Put pairs per record: with per-site
	// workers, two goroutines can persist the same job back-to-back, and
	// without this lock the older snapshot could reach the journal last.
	rec.persistMu.Lock()
	defer rec.persistMu.Unlock()
	rec.mu.Lock()
	doc := struct {
		JobInfo
		SubmissionID string        `json:"submission_id"`
		Spec         gram.JobSpec  `json:"spec"`
		Remote       gram.JobState `json:"remote"`
		Trace        obs.Timeline  `json:"trace"`
	}{rec.JobInfo, rec.SubmissionID, rec.Spec, rec.Remote, rec.Trace}
	rec.mu.Unlock()
	start := time.Now()
	// Every job record is created through shard(owner), so the shard exists.
	_ = a.shardIfPresent(doc.Owner).store.Put(doc.ID, doc)
	a.mPersist.Observe(time.Since(start).Seconds())
}

func (a *Agent) log(rec *jobRecord, code, format string, args ...any) {
	ev := LogEvent{Time: time.Now(), Code: code, Text: fmt.Sprintf(format, args...)}
	rec.mu.Lock()
	rec.Log = append(rec.Log, ev)
	rec.mu.Unlock()
	a.persist(rec)
	// Mirror to the on-disk user log (§4.1: "obtain access to detailed
	// logs, providing a complete history of their jobs' execution") so
	// the history is greppable without the agent API.
	a.appendUserLog(rec, ev)
}

// appendUserLog writes one event line through a persistent per-job handle,
// avoiding an open/close syscall pair per event. A job that is already over
// (a submit's own log line can trail the Done callback of a very short job)
// gets no kept handle: finishJob has released, or is about to release, it.
// The job's state is read under logMu, which closeUserLog takes only after
// the job turned terminal, so a line racing the job's end cannot re-open a
// handle nobody will close.
func (a *Agent) appendUserLog(rec *jobRecord, ev LogEvent) {
	a.logMu.Lock()
	defer a.logMu.Unlock()
	rec.mu.Lock()
	id, keep := rec.ID, !rec.State.Terminal()
	rec.mu.Unlock()
	f := a.logFiles[id]
	if f == nil {
		var err error
		f, err = os.OpenFile(a.UserLogPath(id), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			return
		}
		if !keep {
			defer f.Close()
		} else {
			if len(a.logFiles) >= maxOpenUserLogs {
				for victim, vf := range a.logFiles {
					vf.Close()
					delete(a.logFiles, victim)
					break
				}
			}
			a.logFiles[id] = f
		}
	}
	fmt.Fprintf(f, "%s %-16s %s\n", ev.Time.Format(time.RFC3339Nano), ev.Code, ev.Text)
}

func (a *Agent) closeUserLog(id string) {
	a.logMu.Lock()
	if f := a.logFiles[id]; f != nil {
		f.Close()
		delete(a.logFiles, id)
	}
	a.logMu.Unlock()
}

// UserLogPath returns the on-disk user log file for a job.
func (a *Agent) UserLogPath(id string) string {
	return filepath.Join(a.cfg.StateDir, "logs", id+".log")
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

// spool writes one of job id's input files into the agent's own GASS tree
// (no round trip) and returns its URL. Under HA the payload also enters the
// journal stream, BEFORE the job record: a standby that holds the record
// holds the bytes it must re-stage after takeover. A failed write is a local
// hiccup, not a verdict on the job: Transient, so callers retry.
func (a *Agent) spool(sh *ownerShard, id, name string, data []byte) (string, error) {
	rel := filepath.Join("jobs", id, name)
	err := a.gassS.WriteFile(rel, data)
	if err == nil && a.cfg.HA.Enabled {
		err = sh.store.Put(spoolKeyPrefix+rel, data)
	}
	if err != nil {
		return "", faultclass.New(faultclass.Transient, fmt.Errorf("condorg: stage %s: %w", name, err))
	}
	return a.gassS.URLFor(rel).String(), nil
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

	execURL, err := a.spool(sh, id, "executable", req.Executable)
	if err != nil {
		return "", err
	}
	spec := gram.JobSpec{
		Executable: execURL,
		Args:       req.Args,
		Cpus:       req.Cpus,
		WallLimit:  req.WallLimit,
		Estimate:   req.Estimate,
		Env:        req.Env,
		StdoutURL:  a.gassS.URLFor(filepath.Join("jobs", id, "stdout")).String(),
		StderrURL:  a.gassS.URLFor(filepath.Join("jobs", id, "stderr")).String(),
	}
	if req.Stdin != nil {
		if spec.Stdin, err = a.spool(sh, id, "stdin", req.Stdin); err != nil {
			return "", err
		}
	}

	rec := &jobRecord{
		JobInfo: JobInfo{
			ID: id, Owner: req.Owner, State: Idle, Site: site, SubmittedAt: time.Now(),
		},
		SubmissionID: gram.NewSubmissionID(),
		Spec:         spec,
	}
	if !a.cfg.Stage.Disabled {
		// Content-address the executable: the hash keys the per-site cache
		// and drives the pre-stage task (resume offsets journal in Stage).
		rec.Spec.ExecutableHash = gram.HashExecutable(req.Executable)
		rec.Stage = StageInfo{Hash: rec.Spec.ExecutableHash, Total: int64(len(req.Executable))}
	}
	a.indexJob(sh, rec)
	a.trace(rec, obs.PhaseSubmit, "", "accepted into the agent queue")
	// Journal BEFORE the network submission: if we crash between the
	// journal write and the site's reply, recovery resubmits with the
	// same SubmissionID and the site deduplicates — exactly-once. log()
	// persists the record (SUBMIT event included) in a single delta.
	dest := site
	if dest == "" {
		dest = "a deferred-binding site"
	}
	a.log(rec, "SUBMIT", "job submitted to agent, destined for %s", dest)
	a.enqueueSubmit(rec)
	a.changed.Notify()
	a.obs.Counter("agent_jobs_submitted_total").Inc()
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
	a.idMu.RLock()
	out := make([]JobInfo, 0, len(a.ids))
	for _, rec := range a.ids {
		out = append(out, rec.snapshot())
	}
	a.idMu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		return lessJobID(out[i].ID, out[j].ID)
	})
	return out
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
		if len(f.States) > 0 {
			match := false
			for _, s := range f.States {
				if info.State == s {
					match = true
					break
				}
			}
			if !match {
				continue
			}
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
	rec.mu.Lock()
	if rec.State.Terminal() {
		rec.mu.Unlock()
		return fmt.Errorf("condorg: %w: job %s is %v", ErrBadJobState, id, rec.State)
	}
	if rec.State == Held {
		rec.mu.Unlock()
		return nil
	}
	rec.State = Held
	rec.HoldReason = reason
	contact := rec.Contact
	a.traceLocked(rec, obs.PhaseHold, "", reason)
	rec.bumpLocked()
	rec.mu.Unlock()
	a.obs.Counter("agent_jobs_held_total").Inc()
	a.log(rec, "HELD", "job held: %s", reason)
	a.noteJobChange(rec.Owner)
	if contact.JobID != "" {
		// Tombstoned, not best-effort: a lost cancel here would let the
		// old copy run after a later Release resubmits the job.
		a.addCancelTombstone(rec, contact)
		a.managerFor(rec.Owner).dispatchCancelsFor(rec)
	}
	return nil
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
	a.traceLocked(rec, obs.PhaseRelease, "", "released from hold")
	rec.bumpLocked()
	rec.mu.Unlock()
	a.log(rec, "RELEASED", "job released from hold")
	a.enqueueSubmit(rec)
	a.changed.Notify()
	return nil
}

// Remove cancels a job.
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
	rec.State = Removed
	rec.FinishedAt = time.Now()
	contact := rec.Contact
	a.traceLocked(rec, obs.PhaseRemove, "", "removed by user")
	rec.bumpLocked()
	rec.mu.Unlock()
	a.obs.Counter("agent_jobs_removed_total").Inc()
	a.log(rec, "REMOVED", "job removed by user")
	a.finishJob(rec)
	a.noteJobChange(rec.Owner)
	if contact.JobID != "" {
		a.addCancelTombstone(rec, contact)
		a.managerFor(rec.Owner).dispatchCancelsFor(rec)
	}
	return nil
}

// Wait blocks until the job is terminal or ctx expires. It wakes on the
// job's state-change broadcast, so completion latency is bounded by the
// event, not by a poll interval.
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
		rec.mu.Unlock()
		if info.State.Terminal() {
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

// WaitAll blocks until every job is terminal or held, or ctx expires.
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

// hasRunnableJobs reports whether any job is neither terminal nor held.
func (a *Agent) hasRunnableJobs() bool {
	for _, sh := range a.allShards() {
		sh.mu.Lock()
		recs := make([]*jobRecord, 0, len(sh.active))
		for _, rec := range sh.active {
			recs = append(recs, rec)
		}
		sh.mu.Unlock()
		for _, rec := range recs {
			rec.mu.Lock()
			runnable := !rec.State.Terminal() && rec.State != Held
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
	return a.readStream(id, "stdout")
}

// Stderr returns the job's streamed standard error.
func (a *Agent) Stderr(id string) ([]byte, error) {
	return a.readStream(id, "stderr")
}

func (a *Agent) readStream(id, stream string) ([]byte, error) {
	if _, err := a.Status(id); err != nil {
		return nil, err
	}
	data, err := a.gassS.ReadFile(filepath.Join("jobs", id, stream))
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

// remoteRank orders GRAM states along the job lifecycle so stale,
// out-of-order status deliveries (callbacks are asynchronous) cannot move
// a job backwards.
func remoteRank(s gram.JobState) int {
	switch s {
	case gram.StateUnsubmitted:
		return 0
	case gram.StateStageIn:
		return 1
	case gram.StatePending:
		return 2
	case gram.StateActive:
		return 3
	case gram.StateDone, gram.StateFailed:
		return 4
	}
	return 0
}

// applyRemoteStatus folds a GRAM status into the agent job record. Two
// staleness guards apply: the status must describe the job's CURRENT
// remote incarnation (hold/release, resubmission, and migration mint fresh
// remote jobs, and callbacks from the dead incarnation may still be in
// flight), and within an incarnation it must not move the lifecycle
// backwards (callbacks are delivered asynchronously and can reorder).
func (a *Agent) applyRemoteStatus(rec *jobRecord, st gram.StatusInfo) {
	rec.mu.Lock()
	if rec.State.Terminal() || rec.State == Held {
		rec.mu.Unlock()
		return
	}
	if st.JobID != "" && st.JobID != rec.Contact.JobID {
		rec.mu.Unlock()
		return // a previous incarnation's status
	}
	if st.GatekeeperAddr != "" && st.GatekeeperAddr != rec.Contact.GatekeeperAddr {
		// Job IDs are only site-unique: a late callback from a cancelled
		// incarnation at another site can collide with the live job ID.
		rec.mu.Unlock()
		return
	}
	if remoteRank(st.State) < remoteRank(rec.Remote) {
		rec.mu.Unlock()
		return // stale out-of-order delivery
	}
	transitioned := rec.Remote != st.State
	if !transitioned && !rec.Disconnected {
		rec.mu.Unlock()
		return // no observable change: skip the redundant persist
	}
	rec.Remote = st.State
	rec.Disconnected = false
	var code, text string
	switch st.State {
	case gram.StatePending:
		rec.State = Idle
		if rec.PendingSince.IsZero() {
			rec.PendingSince = time.Now()
		}
		if transitioned {
			a.traceLocked(rec, obs.PhasePending, "", "queued in the site's local resource manager")
		}
	case gram.StateActive:
		rec.State = Running
		rec.PendingSince = time.Time{}
		code, text = "EXECUTE", "job began executing at "+rec.Site
		if transitioned {
			a.traceLocked(rec, obs.PhaseActive, "", "")
		}
	case gram.StateDone:
		rec.State = Completed
		rec.ExitOK = true
		rec.FinishedAt = time.Now()
		code, text = "TERMINATED", "job completed successfully"
		a.traceLocked(rec, obs.PhaseDone, "", "")
	case gram.StateFailed:
		// Site-lost jobs are the GridManager's to resubmit; it
		// decides in its loop (maybeResubmit records the fault event
		// with its class). Mark the remote error for it.
		rec.Error = st.Error
		code, text = "REMOTE_FAILURE", "remote failure: "+st.Error
	default:
		rec.State = Idle
	}
	rec.bumpLocked()
	owner := rec.Owner
	rec.mu.Unlock()
	if st.State == gram.StateDone {
		a.obs.Counter("agent_jobs_completed_total").Inc()
	}
	if transitioned && code != "" {
		a.log(rec, code, "%s", text)
	} else {
		a.persist(rec)
	}
	if st.State == gram.StateDone {
		a.finishJob(rec)
		a.cfg.Notifier.Notify(owner, "job "+rec.ID+" completed",
			fmt.Sprintf("Your job %s finished successfully on %s.", rec.ID, rec.Site))
	}
	a.noteJobChange(owner)
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
		rec.mu.Lock()
		skip := rec.State.Terminal() || rec.State == Held
		rec.mu.Unlock()
		if skip {
			continue
		}
		if err := a.Hold(rec.ID, reason); err == nil {
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
	a.parts.Close()
	a.logMu.Lock()
	for id, f := range a.logFiles {
		f.Close()
		delete(a.logFiles, id)
	}
	a.logMu.Unlock()
}
