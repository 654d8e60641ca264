package condorg

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/gsi"
	"condorg/internal/obs"
	"condorg/internal/wire"
)

// GridManager is the per-user daemon of Figure 1: it submits the user's
// jobs through GRAM's two-phase commit, probes their JobManagers, restarts
// dead ones through the Gatekeeper, waits out partitions, resubmits jobs
// the site lost, and exits when the user has no unfinished work. The run
// loop is a dispatcher: remote operations execute on per-site worker
// pipelines (pipeline.go), so one slow site never stalls the others.
type GridManager struct {
	agent   *Agent
	owner   string
	gram    *gram.Client
	perSite int          // per-gatekeeper in-flight cap (AgentConfig.Pipeline)
	batch   BatchOptions // wire-layer verb coalescing (AgentConfig.Batch)

	mu          sync.Mutex
	pending     []*jobRecord // awaiting first submission (or resubmission)
	recovery    []*jobRecord // recovered with a live contact to re-verify
	workers     map[string]*siteWorker
	cancelBusy  map[string]bool // tombstone retries queued or running
	credBusy    map[string]bool // in-band credential refreshes queued or running, by job ID
	outstanding int             // tasks queued + executing across all sites
	// stageSem caps concurrent stage-chunk streams per site across all of
	// this owner's staging tasks (AgentConfig.Stage.Streams); stageHits and
	// stageMisses count executable-cache outcomes per site for health.
	stageSem    map[string]chan struct{}
	stageHits   map[string]int
	stageMisses map[string]int
	finished    bool
	stopCh      chan struct{}
	wake        chan struct{} // buffered nudge: new work or a state change
	wg          sync.WaitGroup
	workerWG    sync.WaitGroup
}

func newGridManager(a *Agent, owner string, cred *gsi.Credential) *GridManager {
	gm := &GridManager{
		agent:       a,
		owner:       owner,
		gram:        gram.NewClient(cred, a.cfg.Clock),
		perSite:     a.cfg.Pipeline.PerSiteInFlight,
		batch:       a.cfg.Batch,
		workers:     make(map[string]*siteWorker),
		cancelBusy:  make(map[string]bool),
		credBusy:    make(map[string]bool),
		stageSem:    make(map[string]chan struct{}),
		stageHits:   make(map[string]int),
		stageMisses: make(map[string]int),
		stopCh:      make(chan struct{}),
		wake:        make(chan struct{}, 1),
	}
	gm.gram.SetWire(a.cfg.Wire.Codec, a.cfg.Wire.NoSession)
	gm.gram.SetTimeouts(300*time.Millisecond, 2)
	gm.gram.SetBreakerConfig(a.cfg.Breaker)
	gm.gram.SetObs(a.obs)
	gm.wg.Add(1)
	go gm.run()
	return gm
}

func (gm *GridManager) done() bool {
	gm.mu.Lock()
	defer gm.mu.Unlock()
	return gm.finished
}

func (gm *GridManager) stop() {
	gm.mu.Lock()
	if gm.finished {
		gm.mu.Unlock()
		return
	}
	gm.finished = true
	close(gm.stopCh)
	gm.mu.Unlock()
	gm.wg.Wait()
	gm.workerWG.Wait()
	gm.gram.Close()
}

// poke nudges the run loop so new work is picked up immediately instead of
// waiting out the probe tick. Non-blocking: a pending nudge is enough.
func (gm *GridManager) poke() {
	select {
	case gm.wake <- struct{}{}:
	default:
	}
}

// enqueueSubmit hands a new or released job to the manager. It reports
// false when the manager has retired (the caller asks managerFor again).
func (gm *GridManager) enqueueSubmit(rec *jobRecord) bool {
	gm.mu.Lock()
	if gm.finished {
		gm.mu.Unlock()
		return false
	}
	gm.pending = append(gm.pending, rec)
	gm.mu.Unlock()
	gm.poke()
	return true
}

// enqueueRecovery hands a job recovered from the persistent queue: it may
// or may not have a remote contact yet. (Recovery runs before the agent
// accepts work, so the fresh manager cannot have retired.)
func (gm *GridManager) enqueueRecovery(rec *jobRecord) {
	rec.mu.Lock()
	hasContact := rec.Contact.JobID != ""
	rec.mu.Unlock()
	gm.mu.Lock()
	if hasContact {
		gm.recovery = append(gm.recovery, rec)
	} else {
		// Crashed between journaling and submission: resubmit with the
		// SAME SubmissionID; the site deduplicates.
		gm.pending = append(gm.pending, rec)
	}
	gm.mu.Unlock()
	gm.poke()
}

// run is the manager's dispatch loop. New-work passes are event-driven (the
// wake channel fires on enqueue, on job-state changes, and when a worker
// finishes a task); the §4.2 failure probe and retirement stay strictly
// ticker-paced, so a burst of events never turns into a probe storm against
// remote sites and a queue that drains and refills within one interval keeps
// its manager — GRAM sessions and breaker memory included. No remote I/O
// happens on this goroutine — every pass only partitions work onto the
// per-site pipelines, so the tick cadence (and the probe-lag metric) stays
// flat even when a site is blackholed.
func (gm *GridManager) run() {
	defer gm.wg.Done()
	interval := gm.agent.cfg.Probe.Interval
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	lag := gm.agent.obs.Histogram("gm_probe_lag_seconds")
	var lastTick time.Time
	// idleSinceTick: no pass since the previous tick found unfinished work.
	idleSinceTick := false
	for {
		gm.dispatchPending()
		gm.dispatchRecovery()
		gm.dispatchCredRefresh()
		idle := gm.idle()
		if !idle {
			idleSinceTick = false
		}
		select {
		case <-gm.stopCh:
			return
		case <-ticker.C:
			// "One GridManager process handles all jobs for a single user
			// and terminates once all jobs are complete": it retires on the
			// first tick that finds it idle since the previous one.
			if idle && idleSinceTick && gm.retire() {
				return
			}
			idleSinceTick = idle
			// Probe lag: how far behind schedule the detector is running
			// (a starved dispatcher delays the next tick delivery).
			now := time.Now()
			if !lastTick.IsZero() {
				if d := now.Sub(lastTick) - interval; d > 0 {
					lag.Observe(d.Seconds())
				}
			}
			lastTick = now
			gm.dispatchCancels()
			gm.dispatchProbes()
		case <-gm.wake:
		}
	}
}

// idle reports whether the user has no unfinished work for this manager.
func (gm *GridManager) idle() bool {
	gm.mu.Lock()
	// Outstanding pipeline tasks are live remote operations (a submit may
	// be mid-two-phase-commit); retirement must wait for the ledger to
	// drain or gram.Close would yank connections out from under them.
	busy := len(gm.pending) > 0 || len(gm.recovery) > 0 || gm.outstanding > 0
	gm.mu.Unlock()
	if busy {
		return false
	}
	// Unacknowledged cancels are unfinished work: an old copy may still
	// be runnable at a partitioned site.
	if len(gm.agent.pendingCancels(gm.owner)) > 0 {
		return false
	}
	for _, rec := range gm.agent.activeJobs(gm.owner) {
		rec.mu.Lock()
		runnable := !rec.State.Terminal() && rec.State != Held
		rec.mu.Unlock()
		if runnable {
			return false
		}
	}
	return true
}

// retire ends an idle manager. The queues are re-checked under the lock
// enqueueSubmit takes, so a job handed over since the idle check either
// lands before (and keeps the manager) or is refused and goes to a new one.
func (gm *GridManager) retire() bool {
	gm.mu.Lock()
	if gm.finished {
		gm.mu.Unlock()
		return true
	}
	if len(gm.pending) > 0 || len(gm.recovery) > 0 || gm.outstanding > 0 {
		gm.mu.Unlock()
		return false
	}
	gm.finished = true
	close(gm.stopCh)
	gm.mu.Unlock()
	gm.gram.Close()
	return true
}

// submit runs the two-phase commit for one job (a taskSubmit body).
func (gm *GridManager) submit(rec *jobRecord) {
	rec.mu.Lock()
	if rec.State.Terminal() || rec.State == Held {
		rec.mu.Unlock()
		return
	}
	site := rec.Site
	spec := rec.Spec
	subID := rec.SubmissionID
	rec.mu.Unlock()

	start := time.Now()
	contact, err := gm.gram.Submit(site, spec, gram.SubmitOptions{
		SubmissionID: subID,
		Callback:     gm.agent.cbSrv.Addr(),
		Delegate:     gm.agent.cfg.Delegate,
	})
	if err != nil {
		gm.submitFailed(rec, site, err)
		return
	}
	rec.mu.Lock()
	rec.Contact = contact
	gm.agent.traceLocked(rec, obs.PhaseGridSubmit, "", "site issued "+contact.JobID)
	rec.mu.Unlock()
	gm.agent.mu.Lock()
	gm.agent.bySiteJob[contact.JobID] = rec.ID
	gm.agent.mu.Unlock()
	// Journal the contact BEFORE committing: recovery after a crash here
	// reconnects rather than resubmits.
	gm.agent.persist(rec)
	if err := gm.gram.Commit(contact); err != nil {
		gm.commitRetry(rec, err)
		return
	}
	gm.agent.obs.Histogram("gm_two_phase_seconds").Observe(time.Since(start).Seconds())
	gm.agent.obs.Counter(obs.Key("gm_site_submits_total", "site", site)).Inc()
	gm.agent.trace(rec, obs.PhaseCommit, "", "two-phase commit complete")
	gm.agent.log(rec, "GRID_SUBMIT", "job submitted to %s as %s", site, contact.JobID)
}

// pendingLater re-queues a job for the next loop pass. Caller holds gm.mu.
func (gm *GridManager) pendingLater(rec *jobRecord) {
	gm.pending = append(gm.pending, rec)
}

// submitFailed classifies a failed submission attempt. Breaker fast-fails
// never reached the network and do not burn the retry budget; expired
// credentials hold the job immediately (§4.3); everything else counts
// toward MaxSubmitRetries, after which the job is held and the owner
// notified rather than retrying forever against a site that keeps
// refusing.
func (gm *GridManager) submitFailed(rec *jobRecord, site string, err error) {
	if errors.Is(err, faultclass.ErrBreakerOpen) {
		gm.mu.Lock()
		gm.pendingLater(rec)
		gm.mu.Unlock()
		return
	}
	if faultclass.ClassOf(err) == faultclass.AuthExpired {
		gm.holdJob(rec, "credential rejected by "+site+": "+err.Error())
		return
	}
	rec.mu.Lock()
	rec.SubmitRetries++
	n := rec.SubmitRetries
	max := gm.agent.cfg.Retry.MaxSubmitRetries
	gm.agent.traceLocked(rec, obs.PhaseSubmitRetry, faultclass.ClassOf(err).String(), err.Error())
	rec.mu.Unlock()
	if n >= max {
		gm.holdJob(rec, fmt.Sprintf("submission failed %d times (last: %v)", n, err))
		return
	}
	gm.agent.log(rec, "SUBMIT_RETRY", "submission to %s failed (%d/%d: %v); will retry", site, n, max, err)
	gm.agent.persist(rec)
	gm.mu.Lock()
	gm.pendingLater(rec)
	gm.mu.Unlock()
}

// holdJob parks a job Held with the given reason and notifies the owner —
// the paper's hold-and-notify response to conditions that need a human
// (§4.3). Held is not terminal: the user can fix the cause and release.
func (gm *GridManager) holdJob(rec *jobRecord, reason string) {
	rec.mu.Lock()
	if rec.State.Terminal() || rec.State == Held {
		rec.mu.Unlock()
		return
	}
	rec.State = Held
	rec.HoldReason = reason
	owner := rec.Owner
	id := rec.ID
	gm.agent.traceLocked(rec, obs.PhaseHold, "", reason)
	rec.bumpLocked()
	rec.mu.Unlock()
	gm.agent.obs.Counter("agent_jobs_held_total").Inc()
	gm.agent.log(rec, "HELD", "job held: %s", reason)
	gm.agent.persist(rec)
	gm.agent.noteJobChange(owner)
	gm.agent.cfg.Notifier.Notify(owner, "job "+id+" held",
		fmt.Sprintf("Your job %s was held: %s", id, reason))
}

// recoverJob re-verifies one job recovered with a contact (a taskRecover
// body): re-commit (idempotent) and refresh status; dead JobManagers go
// through the probe path.
func (gm *GridManager) recoverJob(rec *jobRecord) {
	rec.mu.Lock()
	contact := rec.Contact
	terminal := rec.State.Terminal()
	rec.mu.Unlock()
	if terminal {
		// The job finished while this task waited its turn (e.g. a commit
		// whose response was torn but whose job ran to completion); there
		// is nothing left to re-verify.
		return
	}
	if err := gm.gram.Commit(contact); err != nil {
		// Gatekeeper down or job unknown; the probe path will sort it out.
		return
	}
	// Tell the JobManager where our GASS server lives now — before asking
	// for status: a reply that carries a terminal state lets the JobManager
	// exit, and it can only drain its output first if it knows where to.
	gm.gram.UpdateURLFile(contact, gm.agent.gassS.Addr())
	if st, err := gm.gram.Status(contact); err == nil {
		gm.agent.applyRemoteStatus(rec, st)
	}
}

// probeJob is the per-job §4.2 failure detector (a taskProbe body): "The
// GridManager detects remote failures by periodically probing the
// JobManagers of all the jobs it manages."
func (gm *GridManager) probeJob(rec *jobRecord) {
	rec.mu.Lock()
	contact := rec.Contact
	rec.mu.Unlock()

	st, err := gm.gram.Status(contact)
	if err == nil {
		gm.agent.applyRemoteStatus(rec, st)
		gm.maybeResubmit(rec, st)
		gm.maybeMigrate(rec, st)
		return
	}
	// A JobManager exits once the agent has acknowledged Done; a probe that
	// was already in flight then finds nobody home, and nothing is wrong.
	rec.mu.Lock()
	settled := rec.State.Terminal() || rec.State == Held || rec.Contact != contact
	rec.mu.Unlock()
	if settled {
		// The failed call re-created what finishJob had dropped.
		gm.gram.ForgetJobManager(contact.JobManagerAddr)
		return
	}
	// "If a JobManager fails to respond, the GridManager then probes the
	// GateKeeper for that machine."
	if gkErr := gm.gram.PingGatekeeper(contact.GatekeeperAddr); gkErr != nil {
		gm.markDisconnected(rec, contact.GatekeeperAddr)
		return
	}
	// Gatekeeper lives: the JobManager alone crashed (or exited after the
	// job completed during a partition).
	gm.restartJobManagerFor(rec, contact)
}

// markDisconnected records that a job's site is unreachable. "Either the
// whole resource management machine crashed or there is a network failure
// (the GridManager cannot distinguish these two cases) ... the
// GridManager waits until it can reestablish contact."
func (gm *GridManager) markDisconnected(rec *jobRecord, gkAddr string) {
	rec.mu.Lock()
	already := rec.Disconnected
	rec.Disconnected = true
	if !already {
		gm.agent.traceLocked(rec, obs.PhaseDisconnect, "",
			"lost contact with "+gkAddr)
		rec.bumpLocked()
	}
	rec.mu.Unlock()
	if !already {
		gm.agent.log(rec, "DISCONNECTED", "lost contact with %s; waiting to reconnect", gkAddr)
	}
}

// restartJobManagerFor runs the tail of the §4.2 ladder for a job whose
// JobManager is dead but whose Gatekeeper answers: "The GridManager
// starts a new JobManager, which will resume watching the job or tell the
// GridManager that the job has completed." Shared by the per-job probe
// and the batched probe (whose JMAlive=false entries land here).
func (gm *GridManager) restartJobManagerFor(rec *jobRecord, contact gram.JobContact) {
	newContact, err := gm.gram.RestartJobManager(contact)
	if err != nil {
		if wire.IsRemote(err) && faultclass.ClassOf(err) == faultclass.SiteLost {
			// The site is alive but has no record of the job — it can
			// never finish there. Resubmit instead of probing forever.
			gm.agent.log(rec, "JM_RESTART_FAILED", "site no longer knows the job: %v", err)
			gm.maybeResubmit(rec, gram.StatusInfo{
				State: gram.StateFailed,
				Error: err.Error(),
				Fault: faultclass.SiteLost,
			})
			return
		}
		gm.agent.log(rec, "JM_RESTART_FAILED", "jobmanager restart failed: %v", err)
		return
	}
	rec.mu.Lock()
	rec.Contact = newContact
	wasDisconnected := rec.Disconnected
	rec.Disconnected = false
	if wasDisconnected {
		gm.agent.traceLocked(rec, obs.PhaseReconnect, "",
			"reestablished contact with "+contact.GatekeeperAddr)
		rec.bumpLocked()
	} else {
		gm.agent.traceLocked(rec, obs.PhaseJMRestart, "",
			"replacement jobmanager at "+newContact.JobManagerAddr)
	}
	rec.mu.Unlock()
	gm.agent.persist(rec)
	if wasDisconnected {
		gm.agent.log(rec, "RECONNECTED", "reestablished contact with %s", contact.GatekeeperAddr)
	} else {
		gm.agent.log(rec, "JM_RESTARTED", "started replacement jobmanager at %s", newContact.JobManagerAddr)
	}
	if st, err := gm.gram.Status(newContact); err == nil {
		gm.agent.applyRemoteStatus(rec, st)
		gm.maybeResubmit(rec, st)
	}
}

// maybeMigrate moves a job that has been stuck in a remote queue past the
// configured threshold to a different site — "Monitoring of actual queuing
// and execution times allows for the tuning of where to submit subsequent
// jobs and to migrate queued jobs" (§4.4).
func (gm *GridManager) maybeMigrate(rec *jobRecord, st gram.StatusInfo) {
	cfg := gm.agent.cfg
	if cfg.Retry.MigrateAfter <= 0 || cfg.Selector == nil || st.State != gram.StatePending {
		return
	}
	rec.mu.Lock()
	if rec.State.Terminal() || rec.State == Held ||
		rec.PendingSince.IsZero() || time.Since(rec.PendingSince) < cfg.Retry.MigrateAfter ||
		rec.Migrations >= cfg.Retry.MaxMigrations {
		rec.mu.Unlock()
		return
	}
	currentSite := rec.Site
	owner := rec.Owner
	rec.mu.Unlock()
	newSite, err := selectSite(cfg.Selector, SubmitRequest{Owner: owner}, gm.healthView())
	if err != nil || newSite == currentSite {
		return // nowhere better to go right now
	}
	rec.mu.Lock()
	oldContact := rec.Contact
	rec.Migrations++
	rec.Site = newSite
	rec.State = Idle
	rec.Remote = gram.StateUnsubmitted
	rec.Contact = gram.JobContact{}
	rec.SubmissionID = gram.NewSubmissionID()
	rec.PendingSince = time.Time{}
	// The new site has none of our bytes: restart staging from zero (the
	// destination's cache may still short-circuit the transfer).
	rec.Stage = StageInfo{Hash: rec.Stage.Hash, Total: rec.Stage.Total}
	n := rec.Migrations
	gm.agent.traceLocked(rec, obs.PhaseMigrate, "",
		fmt.Sprintf("queued too long at %s; migration %d", currentSite, n))
	rec.bumpLocked()
	rec.mu.Unlock()
	gm.agent.obs.Counter("agent_migrations_total").Inc()
	gm.agent.unindexSiteJob(oldContact.JobID, rec.ID)
	gm.agent.log(rec, "MIGRATED", "queued too long at %s; migrating to %s (migration %d)", currentSite, newSite, n)
	// The old queued copy must be withdrawn or the job could run twice. A
	// tombstone makes the cancel durable: the dispatcher retries it on the
	// old site's pipeline until the site acknowledges, even across agent
	// restarts.
	gm.agent.addCancelTombstone(rec, oldContact)
	gm.dispatchCancelsFor(rec)
	gm.mu.Lock()
	gm.pendingLater(rec)
	gm.mu.Unlock()
}

// maybeResubmit handles jobs the site reported as failed. Failures caused
// by the site losing the job are retried (possibly elsewhere); application
// failures are final.
func (gm *GridManager) maybeResubmit(rec *jobRecord, st gram.StatusInfo) {
	if st.State != gram.StateFailed {
		return
	}
	rec.mu.Lock()
	if rec.State.Terminal() || rec.State == Held {
		rec.mu.Unlock()
		return
	}
	// Branch on the typed fault class the site reported, not on the prose
	// of st.Error. SiteLost means the program provably never ran to
	// completion there (lost by restart, commit never finished, stage-in
	// failed before the LRM accepted it), so retrying cannot
	// double-execute. AuthExpired needs the user (§4.3). Everything else
	// — including application exit codes — is final.
	if st.Fault == faultclass.AuthExpired {
		rec.mu.Unlock()
		gm.holdJob(rec, "credential rejected by site: "+st.Error)
		return
	}
	// The fault event precedes whatever we decide to do about it, so a
	// timeline always reads fault → (resubmit | failed).
	gm.agent.traceLocked(rec, obs.PhaseFault, st.Fault.String(), st.Error)
	siteLost := st.Fault == faultclass.SiteLost
	if !siteLost || rec.Resubmits >= gm.agent.cfg.Retry.MaxResubmits {
		rec.State = Failed
		rec.Error = st.Error
		rec.FinishedAt = time.Now()
		owner := rec.Owner
		id := rec.ID
		gm.agent.traceLocked(rec, obs.PhaseFailed, st.Fault.String(), st.Error)
		rec.bumpLocked()
		rec.mu.Unlock()
		gm.agent.obs.Counter("agent_jobs_failed_total").Inc()
		gm.agent.log(rec, "FAILED", "job failed: %s", st.Error)
		gm.agent.finishJob(rec)
		gm.agent.noteJobChange(owner)
		gm.agent.cfg.Notifier.Notify(owner, "job "+id+" failed",
			fmt.Sprintf("Your job %s failed: %s", id, st.Error))
		return
	}
	// Resubmit: fresh identity, fresh site choice if a selector exists.
	rec.Resubmits++
	rec.State = Idle
	rec.Remote = gram.StateUnsubmitted
	oldContact := rec.Contact
	rec.Contact = gram.JobContact{}
	rec.SubmissionID = gram.NewSubmissionID()
	rec.Stage = StageInfo{Hash: rec.Stage.Hash, Total: rec.Stage.Total}
	if gm.agent.cfg.Selector != nil {
		if site, err := selectSite(gm.agent.cfg.Selector, SubmitRequest{Owner: rec.Owner}, gm.healthView()); err == nil {
			rec.Site = site
		}
	}
	n := rec.Resubmits
	gm.agent.traceLocked(rec, obs.PhaseResubmit, st.Fault.String(),
		fmt.Sprintf("resubmission %d", n))
	rec.bumpLocked()
	rec.mu.Unlock()
	gm.agent.obs.Counter(obs.Key("agent_resubmits_total", "class", st.Fault.String())).Inc()
	gm.agent.unindexSiteJob(oldContact.JobID, rec.ID)
	gm.agent.log(rec, "RESUBMIT", "site lost the job (%s); resubmission %d", st.Error, n)
	gm.mu.Lock()
	gm.pendingLater(rec)
	gm.mu.Unlock()
}

// healthView adapts this manager's breaker state to the selector
// interface: a site is worth submitting to unless its breaker is open.
func (gm *GridManager) healthView() HealthView {
	return func(addr string) bool {
		return gm.gram.SiteHealth(addr) != faultclass.Open
	}
}

// cancelOldCopy tries once to get the site to acknowledge the cancel of an
// old incarnation (a taskCancel body), clearing the tombstone on success.
// Retries are dispatched at probe pace on the old site's pipeline, so a
// cancel lost to a partition keeps being retried until the site confirms
// the old copy cannot run — only then is the tombstone cleared and (if
// nothing else is outstanding) the manager allowed to retire.
func (gm *GridManager) cancelOldCopy(rec *jobRecord, contact gram.JobContact) {
	if gm.cancelAcknowledged(contact) {
		gm.agent.trace(rec, obs.PhaseCancelAck, "", "old copy "+contact.JobID+" confirmed cancelled")
		gm.agent.ackCancelTombstone(rec, contact)
		gm.agent.log(rec, "CANCEL_ACKED", "old copy %s confirmed cancelled", contact.JobID)
	}
}

// cancelAcknowledged reports whether the site has confirmed that the old
// incarnation can no longer run. Any remote answer — success or an
// application-level error such as "no such job" — counts: the site is
// alive and either cancelled the job or never knew it. The exceptions are
// transport failures (the site never heard us; retry later) and
// AuthExpired (a refreshed credential might let the old copy proceed, so
// the cancel must land for real).
func (gm *GridManager) cancelAcknowledged(contact gram.JobContact) bool {
	acked := func(err error) bool {
		return err == nil ||
			(wire.IsRemote(err) && faultclass.ClassOf(err) != faultclass.AuthExpired)
	}
	err := gm.gram.Cancel(contact)
	if err == nil || wire.IsRemote(err) {
		return acked(err)
	}
	// The old JobManager is unreachable; ask its Gatekeeper to restart it
	// so the cancel has a live endpoint to land on.
	newContact, rerr := gm.gram.RestartJobManager(contact)
	if rerr != nil {
		if wire.IsRemote(rerr) {
			// Site answered "cannot restart" — the job is gone there.
			return acked(rerr)
		}
		return false // site unreachable: keep the tombstone
	}
	return acked(gm.gram.Cancel(newContact))
}

// maxCredRefreshTries bounds in-band re-delegation attempts that reached
// the network and failed; exhaustion falls back to hold-and-notify.
// Breaker fast-fails never burn the budget — the dispatcher parks the
// obligation until the site is worth talking to again.
const maxCredRefreshTries = 3

// requestCredRefresh flags every live remote incarnation of the owner's
// jobs for in-band credential re-delegation (§4.3, without the paper's
// hold/release cycle). Called after SetOwnerCredential/SetCredential
// installs a fresh proxy; the dispatcher routes the deliveries through the
// per-site pipelines.
func (gm *GridManager) requestCredRefresh() {
	for _, rec := range gm.agent.activeJobs(gm.owner) {
		rec.mu.Lock()
		if !rec.State.Terminal() && rec.State != Held && rec.Contact.JobID != "" {
			rec.credRefresh = true
			rec.credRefreshTries = 0
		}
		rec.mu.Unlock()
	}
	gm.poke()
}

// dispatchCredRefresh queues one re-delegation task per flagged job whose
// site is currently worth talking to. Breaker-open sites park the
// obligation (re-examined every pass) rather than burning the retry
// budget on attempts that cannot reach the network.
func (gm *GridManager) dispatchCredRefresh() {
	for _, rec := range gm.agent.activeJobs(gm.owner) {
		rec.mu.Lock()
		skip := rec.State.Terminal() || rec.State == Held ||
			!rec.credRefresh || rec.Contact.JobID == ""
		addr := rec.Contact.GatekeeperAddr
		rec.mu.Unlock()
		if skip || !gm.gram.SiteReady(addr) {
			continue
		}
		gm.mu.Lock()
		if gm.finished || gm.credBusy[rec.ID] {
			gm.mu.Unlock()
			continue
		}
		gm.credBusy[rec.ID] = true
		gm.mu.Unlock()
		gm.enqueueTask(addr, gmTask{kind: taskRefreshCred, rec: rec})
	}
}

// refreshJobCred pushes the owner's refreshed proxy to one job's live
// JobManager (a taskRefreshCred body) via jm.refresh-credential — the
// in-band path that replaces the remote proxy without disturbing the
// running job. Failure policy: breaker fast-fails and transient errors
// retry (the latter up to maxCredRefreshTries); an exhausted budget or a
// permanent rejection falls back to hold-and-notify, the §4.3 response
// when re-delegation needs a human.
func (gm *GridManager) refreshJobCred(rec *jobRecord) {
	rec.mu.Lock()
	if rec.State.Terminal() || rec.State == Held || !rec.credRefresh || rec.Contact.JobID == "" {
		rec.mu.Unlock()
		return
	}
	contact := rec.Contact
	rec.mu.Unlock()
	delegate := gm.agent.cfg.Delegate
	if delegate == 0 {
		delegate = 12 * time.Hour
	}
	err := gm.gram.RefreshCredential(contact, delegate)
	if err == nil {
		rec.mu.Lock()
		rec.credRefresh = false
		rec.credRefreshTries = 0
		gm.agent.traceLocked(rec, obs.PhaseCredRefresh, "",
			"refreshed credential delivered in-band to "+contact.JobManagerAddr)
		rec.mu.Unlock()
		gm.agent.obs.Counter(obs.Key("cred_redelegations_total", "outcome", "ok")).Inc()
		gm.agent.log(rec, "CRED_REFRESH", "refreshed credential delivered to %s", contact.JobManagerAddr)
		return
	}
	if errors.Is(err, faultclass.ErrBreakerOpen) {
		return // parked; the dispatcher re-queues once the site recovers
	}
	class := faultclass.ClassOf(err)
	rec.mu.Lock()
	rec.credRefreshTries++
	n := rec.credRefreshTries
	gm.agent.traceLocked(rec, obs.PhaseCredRefresh, class.String(), "re-delegation failed: "+err.Error())
	exhausted := n >= maxCredRefreshTries ||
		class == faultclass.Permanent || class == faultclass.AuthExpired
	if exhausted {
		rec.credRefresh = false
	}
	rec.mu.Unlock()
	if !exhausted {
		gm.agent.obs.Counter(obs.Key("cred_redelegations_total", "outcome", "retry")).Inc()
		return // still flagged; the next dispatch pass retries
	}
	gm.agent.obs.Counter(obs.Key("cred_redelegations_total", "outcome", "fallback")).Inc()
	gm.holdJob(rec, fmt.Sprintf("credential re-delegation to %s failed (%v)", contact.JobManagerAddr, err))
}
