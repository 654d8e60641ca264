package condorg

import (
	"time"

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

// taskKind enumerates the work a site worker executes.
type taskKind int

const (
	taskSubmit      taskKind = iota // two-phase commit of a new/resubmitted job
	taskRecover                     // re-verify a job recovered with a contact
	taskProbe                       // §4.2 liveness probe of one job
	taskCancel                      // retry one cancel tombstone
	taskStage                       // chunked executable pre-stage to the site
	taskBatchProbe                  // coalesced §4.2 probe of several jobs at one site
	taskBatchCancel                 // coalesced cancel of several tombstones at one site
	taskRefreshCred                 // in-band credential re-delegation to one job manager
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
	case taskBatchProbe:
		return "batch-probe"
	case taskBatchCancel:
		return "batch-cancel"
	case taskRefreshCred:
		return "refresh-cred"
	}
	return "unknown"
}

// cancelPair is one tombstone: the record plus the OLD incarnation's
// contact the cancel must reach.
type cancelPair struct {
	rec     *jobRecord
	contact gram.JobContact
}

// gmTask is one unit of per-site work. contact is set only for cancels
// (the OLD incarnation's contact; the record's own contact may have moved
// on); recs/pairs carry the members of a batched task.
type gmTask struct {
	kind    taskKind
	rec     *jobRecord
	contact gram.JobContact
	recs    []*jobRecord // taskBatchProbe members
	pairs   []cancelPair // taskBatchCancel members
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
	return rec.ID + "\x00" + contact.JobManagerAddr + "\x00" + contact.JobID
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
		// Opportunistic batch drain: a submit at the head of the queue
		// pulls the other queued submits with it (up to Batch.MaxJobs)
		// so a burst aimed at one gatekeeper goes out as one frame
		// instead of one two-phase commit per worker pass.
		var batch []gmTask
		if t.kind == taskSubmit && gm.batch.MaxJobs > 1 {
			batch = gm.drainSubmitsLocked(w, []gmTask{t})
		}
		n := 1
		if batch != nil {
			n = len(batch)
		}
		w.inflight += n
		gm.mu.Unlock()

		if batch != nil {
			if gm.batch.MaxDelay > 0 && len(batch) < gm.batch.MaxJobs {
				// Hold the frame open briefly so the rest of a burst
				// still in dispatch can join it.
				sleepOrStop(gm.stopCh, gm.batch.MaxDelay)
				gm.mu.Lock()
				batch = gm.drainSubmitsLocked(w, batch)
				w.inflight += len(batch) - n
				n = len(batch)
				gm.mu.Unlock()
			}
			gm.runBatchSubmit(batch)
			gm.mu.Lock()
			w.inflight -= n
			gm.outstanding -= n
			gm.mu.Unlock()
			for _, bt := range batch {
				gm.endTask(bt)
			}
			gm.poke()
			continue
		}

		gm.runTask(t)

		gm.mu.Lock()
		w.inflight--
		gm.outstanding--
		gm.mu.Unlock()
		gm.endTask(t)
		// The task may have requeued its job (pending/recovery) or freed
		// the last obstacle to retirement; let the dispatcher look.
		gm.poke()
	}
}

// drainSubmitsLocked moves queued submit tasks into batch, preserving the
// queue order of everything else, until batch reaches Batch.MaxJobs.
// gm.mu held.
func (gm *GridManager) drainSubmitsLocked(w *siteWorker, batch []gmTask) []gmTask {
	if len(batch) >= gm.batch.MaxJobs {
		return batch
	}
	rest := w.queue[:0]
	for _, qt := range w.queue {
		if qt.kind == taskSubmit && len(batch) < gm.batch.MaxJobs {
			batch = append(batch, qt)
		} else {
			rest = append(rest, qt)
		}
	}
	w.queue = rest
	return batch
}

// runBatchSubmit executes a coalesced submit batch. The batch holds one
// slot of the agent-wide cap (it is one RPC stream), while the per-task
// ledger entries (outstanding, opBusy) stay per job.
func (gm *GridManager) runBatchSubmit(batch []gmTask) {
	sem := gm.agent.pipeSem
	if !sem.tryAcquire() {
		gm.agent.obs.Counter("gm_worker_stalls_total").Inc()
		if !sem.acquire(gm.owner, gm.stopCh) {
			return
		}
	}
	defer sem.release()
	gm.agent.obs.Counter(obs.Key("gm_tasks_total", "kind", "batch-submit")).Inc()
	recs := make([]*jobRecord, len(batch))
	for i, t := range batch {
		recs[i] = t.rec
	}
	gm.submitBatch(recs)
}

// runTask executes one task body under the agent-wide in-flight cap.
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
		gm.submit(t.rec)
	case taskRecover:
		gm.recoverJob(t.rec)
	case taskProbe:
		gm.probeJob(t.rec)
	case taskCancel:
		gm.cancelOldCopy(t.rec, t.contact)
	case taskStage:
		gm.stageJob(t.rec)
	case taskBatchProbe:
		gm.probeBatch(t.recs)
	case taskBatchCancel:
		gm.cancelBatch(t.pairs)
	case taskRefreshCred:
		gm.refreshJobCred(t.rec)
	}
}

// sleepOrStop waits for d unless stop closes first.
func sleepOrStop(stop <-chan struct{}, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-stop:
	}
}

// endTask releases the task's exclusivity marker after the ledger entry
// is closed, so the next dispatch pass may pick the job up again.
func (gm *GridManager) endTask(t gmTask) {
	switch t.kind {
	case taskCancel:
		gm.mu.Lock()
		delete(gm.cancelBusy, cancelTaskKey(t.rec, t.contact))
		gm.mu.Unlock()
	case taskBatchCancel:
		gm.mu.Lock()
		for _, p := range t.pairs {
			delete(gm.cancelBusy, cancelTaskKey(p.rec, p.contact))
		}
		gm.mu.Unlock()
	case taskBatchProbe:
		for _, rec := range t.recs {
			rec.mu.Lock()
			rec.opBusy = false
			rec.mu.Unlock()
		}
	case taskRefreshCred:
		// Re-delegations are keyed by job in credBusy, not opBusy: the
		// refresh may run alongside a probe — they touch disjoint verbs.
		gm.mu.Lock()
		delete(gm.credBusy, t.rec.ID)
		gm.mu.Unlock()
	default:
		t.rec.mu.Lock()
		t.rec.opBusy = false
		t.rec.mu.Unlock()
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
		gm.enqueueTask(site, gmTask{kind: kind, rec: rec})
	}
	if len(parked) > 0 {
		gm.mu.Lock()
		gm.pending = append(gm.pending, parked...)
		gm.mu.Unlock()
	}
}

// dispatchRecovery feeds recovered-with-contact jobs to their site's
// worker for re-verification.
func (gm *GridManager) dispatchRecovery() {
	gm.mu.Lock()
	batch := gm.recovery
	gm.recovery = nil
	gm.mu.Unlock()
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
		gm.enqueueTask(addr, gmTask{kind: taskRecover, rec: rec})
	}
	if len(parked) > 0 {
		gm.mu.Lock()
		gm.recovery = append(gm.recovery, parked...)
		gm.mu.Unlock()
	}
}

// dispatchProbes queues one liveness probe per active job with a remote
// contact. Probes to a breaker-open site fast-fail inside the worker (the
// guard refuses them before any I/O), which is what keeps the job's
// Disconnected flag honest at probe pace.
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
		if skip {
			continue
		}
		if gm.batch.MaxJobs <= 1 {
			gm.enqueueTask(addr, gmTask{kind: taskProbe, rec: rec})
			continue
		}
		groups[addr] = append(groups[addr], rec)
	}
	// Coalesce each site's probes into ceil(N/MaxJobs) batch-status
	// frames addressed to the gatekeeper, instead of N jm.status RPCs.
	for addr, recs := range groups {
		for len(recs) > 0 {
			n := gm.batch.MaxJobs
			if n > len(recs) {
				n = len(recs)
			}
			chunk := recs[:n]
			recs = recs[n:]
			if len(chunk) == 1 {
				gm.enqueueTask(addr, gmTask{kind: taskProbe, rec: chunk[0]})
				continue
			}
			gm.enqueueTask(addr, gmTask{kind: taskBatchProbe, recs: chunk})
		}
	}
}

// dispatchCancels queues a retry for every unacknowledged cancel
// tombstone of the owner. Each tombstone is keyed to the OLD contact's
// gatekeeper, so a dead old site delays only its own worker — never the
// probe tick.
func (gm *GridManager) dispatchCancels() {
	groups := make(map[string][]cancelPair)
	for _, rec := range gm.agent.pendingCancels(gm.owner) {
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
			if gm.batch.MaxJobs <= 1 {
				gm.enqueueTask(addr, gmTask{kind: taskCancel, rec: rec, contact: contact})
				continue
			}
			groups[addr] = append(groups[addr], cancelPair{rec: rec, contact: contact})
		}
	}
	for addr, pairs := range groups {
		for len(pairs) > 0 {
			n := gm.batch.MaxJobs
			if n > len(pairs) {
				n = len(pairs)
			}
			chunk := pairs[:n]
			pairs = pairs[n:]
			if len(chunk) == 1 {
				gm.enqueueTask(addr, gmTask{kind: taskCancel, rec: chunk[0].rec, contact: chunk[0].contact})
				continue
			}
			gm.enqueueTask(addr, gmTask{kind: taskBatchCancel, pairs: chunk})
		}
	}
}

// dispatchCancelsFor queues one cancel task per unacknowledged tombstone
// of rec, skipping tombstones whose retry is already queued or running.
func (gm *GridManager) dispatchCancelsFor(rec *jobRecord) {
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
		gm.enqueueTask(contact.GatekeeperAddr, gmTask{kind: taskCancel, rec: rec, contact: contact})
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
