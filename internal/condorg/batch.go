package condorg

import (
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/obs"
)

// Batch task bodies: the GridManager's only route for submits, recovery
// re-verifications, probes and cancel tombstones. The per-site pipelines
// coalesce the ones bound for the same gatekeeper into single wire frames
// (gram batch verbs), a lone job being a batch of one; each body here fans
// per-entry results back to the per-job paths — applyRemoteStatus,
// maybeResubmit, holdJob, submitFailed, commitRetry — so how many jobs share
// a frame never changes what happens to a job.

// liveIncarnations snapshots the current incarnation of every rec still
// worth a frame: not finished, not held, and holding a remote job.
func liveIncarnations(recs []*jobRecord) []incarnation {
	var out []incarnation
	for _, rec := range recs {
		rec.mu.Lock()
		if !rec.State.Terminal() && rec.State != Held && rec.Contact.JobID != "" {
			out = append(out, incarnation{rec: rec, contact: rec.Contact})
		}
		rec.mu.Unlock()
	}
	return out
}

// jobIDs lists the site job IDs of a frame's entries.
func jobIDs(xs []incarnation) []string {
	ids := make([]string, len(xs))
	for i, x := range xs {
		ids[i] = x.contact.JobID
	}
	return ids
}

// submitBatch runs the two-phase commit for jobs bound to the same
// gatekeeper as two frames: one gram.batch-submit for phase one, then —
// after journaling every issued contact, with one durability wait for the
// frame — one gram.batch-commit. Per-entry failures flow through
// submitFailed individually; a commit failure, or a contact the journal
// could not take, sends that entry to recovery.
func (gm *GridManager) submitBatch(recs []*jobRecord) {
	type member struct {
		rec   *jobRecord
		entry gram.BatchSubmitEntry
	}
	var ms []member
	site := ""
	for _, rec := range recs {
		rec.mu.Lock()
		if rec.State.Terminal() || rec.State == Held {
			rec.mu.Unlock()
			continue
		}
		site = rec.Site
		ms = append(ms, member{rec: rec, entry: gram.BatchSubmitEntry{
			Spec: rec.Spec,
			Opts: gram.SubmitOptions{
				SubmissionID: rec.SubmissionID,
				Callback:     gm.agent.cbSrv.Addr(),
				Delegate:     gm.agent.cfg.Delegate,
			},
		}})
		rec.mu.Unlock()
	}
	if len(ms) == 0 {
		return
	}
	start := time.Now()
	entries := make([]gram.BatchSubmitEntry, len(ms))
	for i, m := range ms {
		entries[i] = m.entry
	}
	results, err := gm.gram.BatchSubmit(site, entries)
	if err != nil {
		for _, m := range ms {
			gm.submitFailed(m.rec, site, err)
		}
		return
	}
	var coms []incarnation
	for i, r := range results {
		m := ms[i]
		if r.Err != nil {
			gm.submitFailed(m.rec, site, r.Err)
			continue
		}
		contact := r.Contact
		m.rec.mu.Lock()
		m.rec.Contact = contact
		gm.agent.emit(m.rec, evGridSubmit, "", "site issued "+contact.JobID)
		m.rec.mu.Unlock()
		gm.agent.mu.Lock()
		gm.agent.bySiteJob[contact.JobID] = m.rec.ID
		gm.agent.mu.Unlock()
		// Journal the contact BEFORE committing: recovery after a crash
		// here reconnects rather than resubmits.
		if err := gm.agent.persist(m.rec, frameWait); err != nil {
			gm.commitRetry(m.rec, err)
			continue
		}
		coms = append(coms, incarnation{rec: m.rec, contact: contact})
	}
	if len(coms) == 0 {
		return
	}
	if err := gm.agent.flushOwner(gm.owner); err != nil {
		// No contact is known durable: none may be committed from here.
		for _, cm := range coms {
			gm.commitRetry(cm.rec, err)
		}
		return
	}
	cres, err := gm.gram.BatchCommit(site, jobIDs(coms), gm.agent.gassS.Addr(), gm.agent.cbSrv.Addr())
	if err != nil {
		// The whole commit frame was lost: every journaled contact goes
		// to recovery, whose commit frame is idempotent.
		for _, cm := range coms {
			gm.commitRetry(cm.rec, err)
		}
		return
	}
	elapsed := time.Since(start).Seconds()
	for i, cm := range coms {
		if err := cres[i].Err; err != nil {
			gm.commitRetry(cm.rec, err)
			continue
		}
		gm.agent.obs.Histogram("gm_two_phase_seconds").Observe(elapsed)
		gm.agent.obs.Counter(obs.Key("gm_site_submits_total", "site", site)).Inc()
		cm.rec.mu.Lock()
		gm.agent.emit(cm.rec, evCommit, "", "job submitted to "+site+" as "+cm.contact.JobID)
		cm.rec.mu.Unlock()
		// Lazy: the contact is on disk, and the probe re-derives the rest.
		gm.agent.persist(cm.rec, lazy)
	}
}

// commitRetry records a failed phase two and parks the job in recovery,
// whose batch re-commits it (recoverBatch). A job that is already terminal
// needs no re-verification — the commit evidently reached the site and
// only the response was lost (the callback outran the retry ladder), so
// parking it would just append lifecycle noise after completion.
func (gm *GridManager) commitRetry(rec *jobRecord, err error) {
	rec.mu.Lock()
	if rec.State.Terminal() {
		rec.mu.Unlock()
		return
	}
	gm.agent.emit(rec, evCommitRetry, faultclass.ClassOf(err).String(), "commit failed ("+err.Error()+"); will re-verify")
	rec.mu.Unlock()
	gm.agent.persist(rec, lazy)
	gm.mu.Lock()
	gm.recovery = append(gm.recovery, rec)
	gm.mu.Unlock()
}

// recoverBatch re-verifies jobs at one site that were recovered from the
// queue with a contact, or whose commit reply was lost (a taskRecover body):
// one gram.batch-commit frame — a replay for jobs already committed — that
// names this agent's current GASS server and callback endpoint, so the site
// re-points jobs reporting to a pre-restart address (§4.2). The site
// answers a replayed commit with the job's status, built after the
// re-point — a terminal status lets a JobManager exit, and it must know
// where to drain its output before that — so the one frame both reconnects
// the members and tells the agent where each one stands (applyStatuses). A
// commit frame lost in transit leaves its members to the probe tick.
func (gm *GridManager) recoverBatch(recs []*jobRecord) {
	ms := liveIncarnations(recs)
	if len(ms) == 0 {
		return
	}
	results, err := gm.gram.BatchCommit(ms[0].contact.GatekeeperAddr, jobIDs(ms), gm.agent.gassS.Addr(), gm.agent.cbSrv.Addr())
	if err != nil {
		return
	}
	gm.applyStatuses(ms, results)
}

// probeBatch is the §4.2 failure detector (a taskProbe body): "The
// GridManager detects remote failures by periodically probing the
// JobManagers of all the jobs it manages." One jm.batch-status frame to the
// gatekeeper covers every member, and applyStatuses acts on its answers.
func (gm *GridManager) probeBatch(recs []*jobRecord) {
	ms := liveIncarnations(recs)
	if len(ms) == 0 {
		return
	}
	gkAddr := ms[0].contact.GatekeeperAddr
	results, err := gm.gram.BatchStatus(gkAddr, jobIDs(ms))
	if err != nil {
		// Transport failure: one gatekeeper ping decides for the whole
		// batch — the members share the machine. A gatekeeper that
		// answers leaves the members for the next tick.
		if gkErr := gm.gram.PingGatekeeper(gkAddr); gkErr != nil {
			for _, m := range ms {
				gm.markDisconnected(m.rec, gkAddr)
			}
		}
		return
	}
	gm.agent.obs.Counter("gm_probe_coalesced_total").Add(int64(len(ms)))
	gm.applyStatuses(ms, results)
}

// applyStatuses acts on one frame's answers about its members — a probe's,
// or a recovery commit's. An entry that carries a status is folded into its
// record; one that carries only an error is judged by its class; one that
// carries neither (a job the commit frame itself committed) waits for the
// job's next report. Every member's new state is journaled before any of it
// is acted on, with one durability wait for the whole frame: only then do
// waiters wake, finished jobs retire and owners hear. A member whose
// JobManager died (JMAlive=false) then goes straight to the restart flow —
// the same frame already proved the gatekeeper alive.
func (gm *GridManager) applyStatuses(ms []incarnation, results []gram.BatchStatusResult) {
	var released []func(ok bool)
	var restarts []incarnation
	wait := false // a frameWait write is among the frame's
	for i, r := range results {
		m := ms[i]
		if r.Status == (gram.StatusInfo{}) {
			switch faultclass.ClassOf(r.Err) {
			case faultclass.SiteLost:
				// The site is alive but has no record of the job — it
				// can never finish there. Same verdict as a failed
				// jm-restart, but no restart was asked for: the user log
				// reads a remote failure.
				m.rec.mu.Lock()
				gm.agent.emit(m.rec, evRemoteFailure, faultclass.SiteLost.String(), "remote failure: site no longer knows the job: "+r.Err.Error())
				m.rec.mu.Unlock()
				if after := gm.maybeResubmit(m.rec, siteLostStatus(r.Err.Error()), frameWait); after != nil {
					released = append(released, after)
					wait = true
				}
			case faultclass.AuthExpired:
				gm.holdJob(m.rec, "credential rejected by site: "+r.Err.Error())
			}
			// Other per-entry errors, and no answer yet: leave the job
			// for the next tick.
			continue
		}
		changed, done := gm.agent.foldRemoteStatus(m.rec, r.Status)
		var werr error
		if r.Status.State == gram.StateFailed {
			// The verdict rides the status's own write.
			if after := gm.maybeResubmit(m.rec, r.Status, frameWait); after != nil {
				released = append(released, after)
				wait = true
			}
		} else if changed {
			d := lazy
			if done {
				d = frameWait
				wait = true
			}
			werr = gm.agent.persist(m.rec, d)
		}
		if changed {
			rec := m.rec
			released = append(released, func(ok bool) { gm.agent.statusApplied(rec, done, ok && werr == nil) })
		}
		gm.maybeMigrate(m.rec, r.Status)
		if !r.JMAlive && !r.Status.State.Terminal() {
			restarts = append(restarts, m)
		}
	}
	ok := true
	if wait {
		ok = gm.agent.flushOwner(gm.owner) == nil
	}
	for _, after := range released {
		after(ok)
	}
	for _, m := range restarts {
		gm.restartJobManagerFor(m.rec, m.contact)
	}
}

// cancelBatch tries once to get a site to acknowledge the cancel of old
// incarnations (a taskCancel body): one jm.batch-cancel frame to the
// gatekeeper, which kills through the site's LRM, so a dead JobManager
// needs no restart first. Any per-entry answer — success or an
// application-level error such as "no such job" — acknowledges that
// tombstone: the site is alive and either cancelled the job or never knew
// it. The exceptions keep the tombstone for the dispatcher to retry at
// probe pace: a transport failure (the site never heard us) and
// AuthExpired (a refreshed credential might let the old copy proceed, so
// the cancel must land for real). Only an acknowledged cancel clears the
// tombstone and (if nothing else is outstanding) lets the manager retire.
func (gm *GridManager) cancelBatch(pairs []incarnation) {
	results, err := gm.gram.BatchCancel(pairs[0].contact.GatekeeperAddr, jobIDs(pairs))
	if err != nil {
		return
	}
	for i, r := range results {
		p := pairs[i]
		if r != nil && faultclass.ClassOf(r) == faultclass.AuthExpired {
			continue
		}
		gm.agent.ackCancelTombstone(p.rec, p.contact)
		p.rec.mu.Lock()
		gm.agent.emit(p.rec, evCancelAck, "", "old copy "+p.contact.JobID+" confirmed cancelled")
		p.rec.mu.Unlock()
		// Lazy: a lost ack only re-sends an idempotent cancel.
		gm.agent.persist(p.rec, lazy)
	}
}
