package condorg

import (
	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/obs"
)

// Per-site submission pipelines. The GridManager's run loop is a pure
// dispatcher: it partitions pending submits, recovery re-verifications,
// probes, and cancel tombstones by gatekeeper address and feeds them to
// per-site workers, so one slow or partitioned site burns only its own
// worker while every other site proceeds at full rate. Two caps bound the
// parallelism: PerSiteInFlight workers per gatekeeper address within one
// owner's manager, and MaxInFlight remote operations agent-wide (a shared
// semaphore across all owners). Ordering guarantees under the
// parallelism:
//
//   - Per job, at most one submit/recover/probe task runs at a time
//     (jobRecord.opBusy), so two-phase commit, status application, and
//     resubmission never interleave for the same job.
//   - Cancels of old incarnations are keyed by (job, old contact) and
//     may run concurrently with the new incarnation's tasks — they touch
//     disjoint remote jobs, and applyRemoteStatus drops cross-incarnation
//     callbacks by contact identity.
//   - Retirement waits for the task ledger to drain (gm.outstanding), so
//     tryRetire cannot close the GRAM client under a live worker.
//
// Submits, recoveries, probes, cancels and credential refreshes are batch
// tasks: each carries up to maxBatch same-site jobs in one gram batch frame,
// a lone job being a batch of one.

// maxBatch caps the jobs carried in one batch frame.
const maxBatch = 32

// taskKind enumerates the work a site worker executes.
type taskKind int

const (
	taskSubmit      taskKind = iota // two-phase commit of new/resubmitted jobs
	taskRecover                     // re-verify jobs recovered with a contact at one site
	taskProbe                       // §4.2 liveness probe of jobs at one site
	taskCancel                      // retry cancel tombstones at one site
	taskStage                       // chunked executable pre-stage to the site
	taskRefreshCred                 // in-band credential re-delegation to jobs at one site
)

func (k taskKind) String() string {
	switch k {
	case taskSubmit:
		return "submit"
	case taskRecover:
		return "recover"
	case taskProbe:
		return "probe"
	case taskCancel:
		return "cancel"
	case taskStage:
		return "stage"
	case taskRefreshCred:
		return "refresh-cred"
	}
	return "unknown"
}

// incarnation is one remote copy of a job: the record plus the contact a
// frame addresses, which for a cancel tombstone is the OLD incarnation's
// (the record's own contact may have moved on).
type incarnation struct {
	rec     *jobRecord
	contact gram.JobContact
}

// gmTask is one unit of per-site work: recs holds its jobs (exactly one
// for stage), pairs a cancel task's tombstones.
type gmTask struct {
	kind  taskKind
	recs  []*jobRecord
	pairs []incarnation
}

// chunks splits s into frames of at most maxBatch entries.
func chunks[T any](s []T) [][]T {
	var out [][]T
	for len(s) > 0 {
		n := min(maxBatch, len(s))
		out = append(out, s[:n])
		s = s[n:]
	}
	return out
}

// siteWorker is the per-gatekeeper pipeline: a FIFO of tasks drained by
// up to PerSiteInFlight goroutines. All fields are guarded by gm.mu.
type siteWorker struct {
	addr     string
	queue    []gmTask
	running  int // worker goroutines alive for this site
	inflight int // tasks currently executing (≤ running)
}

// cancelTaskKey identifies one tombstone so the dispatcher queues at most
// one retry of it at a time.
func cancelTaskKey(rec *jobRecord, contact gram.JobContact) string {
	return rec.ID + "\x00" + contact.GatekeeperAddr + "\x00" + contact.JobID
}

// enqueueTask queues t on addr's worker, spawning a goroutine when the
// site is below its in-flight cap. Tasks enqueued on a stopping manager
// are dropped — shutdown and retirement both mean no more remote work.
func (gm *GridManager) enqueueTask(addr string, t gmTask) {
	gm.mu.Lock()
	defer gm.mu.Unlock()
	if gm.finished {
		return
	}
	w := gm.workers[addr]
	if w == nil {
		w = &siteWorker{addr: addr}
		gm.workers[addr] = w
	}
	w.queue = append(w.queue, t)
	gm.outstanding++
	if w.running < gm.perSite {
		w.running++
		// Add under gm.mu with finished==false: stop() sets finished
		// under the same lock before waiting, so Add cannot race Wait.
		gm.workerWG.Add(1)
		go gm.workerLoop(w)
	}
}

// workerLoop drains one site's queue. The goroutine exits when the queue
// empties or the manager stops; enqueueTask spawns a fresh one on demand.
func (gm *GridManager) workerLoop(w *siteWorker) {
	defer gm.workerWG.Done()
	for {
		gm.mu.Lock()
		if gm.finished || len(w.queue) == 0 {
			w.running--
			gm.mu.Unlock()
			return
		}
		t := w.queue[0]
		w.queue = w.queue[1:]
		// Each queued submit task carries one job; n counts the ledger
		// entries this pass closes.
		n := 1
		if t.kind == taskSubmit {
			gm.drainSubmitsLocked(w, &t)
			n = len(t.recs)
		}
		w.inflight += n
		gm.mu.Unlock()

		gm.runTask(t)

		gm.mu.Lock()
		w.inflight -= n
		gm.outstanding -= n
		gm.mu.Unlock()
		gm.endTask(t)
		// The task may have requeued its job (pending/recovery) or freed
		// the last obstacle to retirement; let the dispatcher look.
		gm.poke()
	}
}

// drainSubmitsLocked pulls the site's other queued submits into t, up to
// maxBatch jobs, preserving the queue order of everything else: a burst
// aimed at one gatekeeper goes out as one frame instead of one two-phase
// commit per worker pass. gm.mu held.
func (gm *GridManager) drainSubmitsLocked(w *siteWorker, t *gmTask) {
	rest := w.queue[:0]
	for _, qt := range w.queue {
		if qt.kind == taskSubmit && len(t.recs) < maxBatch {
			t.recs = append(t.recs, qt.recs...)
		} else {
			rest = append(rest, qt)
		}
	}
	w.queue = rest
}

// runTask executes one task body under the agent-wide in-flight cap. A
// batch task holds one slot (it is one RPC stream), while its ledger
// entries (outstanding, opBusy) stay per job.
func (gm *GridManager) runTask(t gmTask) {
	sem := gm.agent.pipeSem
	if !sem.tryAcquire() {
		// The agent-wide cap is saturated: count the stall, then wait for
		// a fair-share grant in this owner's rotation turn.
		gm.agent.obs.Counter("gm_worker_stalls_total").Inc()
		if !sem.acquire(gm.owner, gm.stopCh) {
			return
		}
	}
	defer sem.release()
	gm.agent.obs.Counter(obs.Key("gm_tasks_total", "kind", t.kind.String())).Inc()
	switch t.kind {
	case taskSubmit:
		gm.submitBatch(t.recs)
	case taskRecover:
		gm.recoverBatch(t.recs)
	case taskProbe:
		gm.probeBatch(t.recs)
	case taskCancel:
		gm.cancelBatch(t.pairs)
	case taskStage:
		gm.stageJob(t.recs[0])
	case taskRefreshCred:
		gm.refreshBatch(t.recs)
	}
}

// endTask releases the task's exclusivity marker after the ledger entry
// is closed, so the next dispatch pass may pick the job up again.
func (gm *GridManager) endTask(t gmTask) {
	switch t.kind {
	case taskCancel:
		gm.mu.Lock()
		for _, p := range t.pairs {
			delete(gm.cancelBusy, cancelTaskKey(p.rec, p.contact))
		}
		gm.mu.Unlock()
	case taskRefreshCred:
		// Re-delegations are keyed by job in credBusy, not opBusy: the
		// refresh may run alongside a probe — they touch disjoint verbs.
		gm.mu.Lock()
		for _, rec := range t.recs {
			delete(gm.credBusy, rec.ID)
		}
		gm.mu.Unlock()
	default:
		for _, rec := range t.recs {
			rec.mu.Lock()
			rec.opBusy = false
			rec.mu.Unlock()
		}
	}
}

// dispatchPending partitions the submit queue by destination site and
// feeds the site workers. Jobs bound for a breaker-open site park here —
// requeued without a task — until the breaker's retry deadline passes;
// a site due for its half-open probe gets exactly one job through per
// pass so a recovering gatekeeper is not stampeded.
func (gm *GridManager) dispatchPending() {
	gm.mu.Lock()
	batch := gm.pending
	gm.pending = nil
	gm.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	var parked []*jobRecord
	probed := make(map[string]bool) // non-closed sites already given their probe job
	for _, rec := range batch {
		rec.mu.Lock()
		if rec.State.Terminal() || rec.State == Held {
			// Held jobs leave the queue; Release re-enqueues them.
			rec.mu.Unlock()
			continue
		}
		if rec.opBusy {
			rec.mu.Unlock()
			parked = append(parked, rec)
			continue
		}
		site := rec.Site
		// Deferred / elastic binding: a job accepted without a site binds
		// here once the selector has a candidate, and a still-unsubmitted
		// job bound to a breaker-open site (e.g. a retired pilot) moves to
		// a healthy one. Both require an empty remote contact: such a job
		// can have left at most an *uncommitted* incarnation behind — a
		// torn Submit reply the site expires without ever running it — so
		// changing the binding cannot double-execute. Anything with a
		// contact goes through commit-retry / resubmit instead.
		if gm.agent.cfg.DeferBinding && gm.agent.cfg.Selector != nil && rec.Contact.JobID == "" &&
			(site == "" || gm.gram.SiteHealth(site) == faultclass.Open) {
			newSite, err := selectSite(gm.agent.cfg.Selector, SubmitRequest{Owner: rec.Owner}, gm.healthView())
			if err == nil && newSite != site {
				old := site
				rec.Site = newSite
				// The new site has none of our bytes: restart staging.
				rec.Stage = StageInfo{Hash: rec.Stage.Hash, Total: rec.Stage.Total}
				detail := "bound to " + newSite
				if old != "" {
					detail = "rebound from breaker-open " + old + " to " + newSite
				}
				gm.agent.traceLocked(rec, obs.PhaseBind, "", detail)
				rec.bumpLocked()
				rec.mu.Unlock()
				// Journal the new binding BEFORE the task can reach the
				// wire: recovery must resubmit (same SubmissionID) to the
				// site the incarnation actually targets.
				gm.agent.log(rec, "BIND", "%s", detail)
				site = newSite
				rec.mu.Lock()
				if rec.State.Terminal() || rec.State == Held {
					rec.mu.Unlock()
					continue
				}
			} else if site == "" {
				// No candidate yet: park until the pool grows.
				rec.mu.Unlock()
				parked = append(parked, rec)
				continue
			}
		}
		if gm.gram.SiteHealth(site) != faultclass.Closed {
			if probed[site] || !gm.gram.SiteReady(site) {
				rec.mu.Unlock()
				parked = append(parked, rec)
				continue
			}
			probed[site] = true
		}
		// A job whose executable has not reached the site yet stages first:
		// staging is a first-class task, so breaker parking and half-open
		// probe gating above apply to transfers exactly as to submits. When
		// the agent already knows the site holds the executable, the cache
		// hit is decided here and journaled by the submit that follows.
		kind := taskSubmit
		knownHash := ""
		if !gm.agent.cfg.Stage.Disabled && rec.Stage.Hash != "" && !rec.Stage.Done {
			if gm.agent.stageKnown.has(site, rec.Stage.Hash) {
				knownHash = rec.Stage.Hash
				rec.Stage.Done, rec.Stage.CacheHit, rec.Stage.Offset = true, true, 0
				gm.agent.traceLocked(rec, obs.PhaseStage, "", "executable "+short(knownHash)+" known to be cached at "+site)
			} else {
				kind = taskStage
			}
		}
		rec.opBusy = true
		gm.agent.traceLocked(rec, obs.PhaseDispatch, "", "queued on the "+site+" pipeline ("+kind.String()+")")
		rec.mu.Unlock()
		if knownHash != "" {
			gm.noteStageHit(site, knownHash)
		}
		gm.enqueueTask(site, gmTask{kind: kind, recs: []*jobRecord{rec}})
	}
	if len(parked) > 0 {
		gm.mu.Lock()
		gm.pending = append(gm.pending, parked...)
		gm.mu.Unlock()
	}
}

// dispatchRecovery queues the re-verification of recovered-with-contact
// jobs as ceil(N/maxBatch) recovery tasks per site, like dispatchProbes.
func (gm *GridManager) dispatchRecovery() {
	gm.mu.Lock()
	batch := gm.recovery
	gm.recovery = nil
	gm.mu.Unlock()
	groups := make(map[string][]*jobRecord)
	var parked []*jobRecord
	for _, rec := range batch {
		rec.mu.Lock()
		if rec.State.Terminal() || rec.State == Held {
			rec.mu.Unlock()
			continue
		}
		if rec.opBusy {
			rec.mu.Unlock()
			parked = append(parked, rec)
			continue
		}
		rec.opBusy = true
		addr := rec.Contact.GatekeeperAddr
		rec.mu.Unlock()
		groups[addr] = append(groups[addr], rec)
	}
	gm.enqueueBatches(taskRecover, groups)
	if len(parked) > 0 {
		gm.mu.Lock()
		gm.recovery = append(gm.recovery, parked...)
		gm.mu.Unlock()
	}
}

// dispatchProbes queues the §4.2 liveness probe of every active job with a
// remote contact: ceil(N/maxBatch) jm.batch-status frames per site,
// addressed to the gatekeeper. Probes to a breaker-open site fast-fail
// inside the worker (the guard refuses them before any I/O), which is what
// keeps the job's Disconnected flag honest at probe pace.
func (gm *GridManager) dispatchProbes() {
	groups := make(map[string][]*jobRecord)
	for _, rec := range gm.agent.activeJobs(gm.owner) {
		rec.mu.Lock()
		skip := rec.State.Terminal() || rec.State == Held ||
			rec.Contact.JobID == "" || rec.opBusy
		if !skip {
			rec.opBusy = true
		}
		addr := rec.Contact.GatekeeperAddr
		rec.mu.Unlock()
		if !skip {
			groups[addr] = append(groups[addr], rec)
		}
	}
	gm.enqueueBatches(taskProbe, groups)
}

// enqueueBatches queues each site's jobs as kind tasks of at most maxBatch.
func (gm *GridManager) enqueueBatches(kind taskKind, groups map[string][]*jobRecord) {
	for addr, recs := range groups {
		for _, chunk := range chunks(recs) {
			gm.enqueueTask(addr, gmTask{kind: kind, recs: chunk})
		}
	}
}

// dispatchCancels queues a retry for every unacknowledged cancel
// tombstone of the owner.
func (gm *GridManager) dispatchCancels() {
	gm.dispatchCancelsFor(gm.agent.pendingCancels(gm.owner)...)
}

// dispatchCancelsFor queues the unacknowledged tombstones of recs as
// jm.batch-cancel tasks, one per maxBatch tombstones at each site, skipping
// tombstones whose retry is already queued or running. Each tombstone is
// keyed to the OLD contact's gatekeeper, so a dead old site delays only its
// own worker — never the probe tick.
func (gm *GridManager) dispatchCancelsFor(recs ...*jobRecord) {
	groups := make(map[string][]incarnation)
	for _, rec := range recs {
		rec.mu.Lock()
		contacts := append([]gram.JobContact(nil), rec.CancelPending...)
		rec.mu.Unlock()
		for _, contact := range contacts {
			key := cancelTaskKey(rec, contact)
			gm.mu.Lock()
			if gm.finished || gm.cancelBusy[key] {
				gm.mu.Unlock()
				continue
			}
			gm.cancelBusy[key] = true
			gm.mu.Unlock()
			addr := contact.GatekeeperAddr
			groups[addr] = append(groups[addr], incarnation{rec: rec, contact: contact})
		}
	}
	for addr, pairs := range groups {
		for _, chunk := range chunks(pairs) {
			gm.enqueueTask(addr, gmTask{kind: taskCancel, pairs: chunk})
		}
	}
}

// pipelineStats reports per-site queue depth and in-flight task counts
// plus the manager-wide backlog, for the metrics collector and the
// control plane's health op.
func (gm *GridManager) pipelineStats() (queued, inflight map[string]int, backlog int) {
	gm.mu.Lock()
	defer gm.mu.Unlock()
	queued = make(map[string]int, len(gm.workers))
	inflight = make(map[string]int, len(gm.workers))
	for addr, w := range gm.workers {
		if len(w.queue) == 0 && w.inflight == 0 {
			continue
		}
		queued[addr] = len(w.queue)
		inflight[addr] = w.inflight
		backlog += len(w.queue)
	}
	backlog += len(gm.pending) + len(gm.recovery)
	return queued, inflight, backlog
}
