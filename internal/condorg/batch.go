package condorg

import (
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/obs"
)

// Batched task bodies. The per-site pipelines coalesce submits, probes,
// and cancel tombstones bound for the same gatekeeper into single wire
// frames (gram batch verbs); each body here fans per-entry results back
// through exactly the same paths the per-job bodies use — applyRemoteStatus,
// maybeResubmit, holdJob, submitFailed — so batching changes how many
// frames cross the wire, never what happens to a job.

// submitBatch runs the two-phase commit for several jobs bound to the
// same gatekeeper as two frames: one gram.batch-submit for phase one,
// then — after journaling every issued contact — one gram.batch-commit.
// Per-entry failures flow through submitFailed individually; a commit
// failure sends that entry to recovery, same as the per-job path.
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
	if len(ms) == 1 {
		gm.submit(ms[0].rec)
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
	type committed struct {
		rec     *jobRecord
		contact gram.JobContact
	}
	var coms []committed
	for i, r := range results {
		m := ms[i]
		if r.Err != nil {
			gm.submitFailed(m.rec, site, r.Err)
			continue
		}
		contact := r.Contact
		m.rec.mu.Lock()
		m.rec.Contact = contact
		gm.agent.traceLocked(m.rec, obs.PhaseGridSubmit, "", "site issued "+contact.JobID)
		m.rec.mu.Unlock()
		gm.agent.mu.Lock()
		gm.agent.bySiteJob[contact.JobID] = m.rec.ID
		gm.agent.mu.Unlock()
		// Journal the contact BEFORE committing: recovery after a crash
		// here reconnects rather than resubmits.
		gm.agent.persist(m.rec)
		coms = append(coms, committed{rec: m.rec, contact: contact})
	}
	if len(coms) == 0 {
		return
	}
	ids := make([]string, len(coms))
	for i, cm := range coms {
		ids[i] = cm.contact.JobID
	}
	cerrs, err := gm.gram.BatchCommit(site, ids)
	if err != nil {
		// The whole commit frame was lost: every journaled contact goes
		// to recovery, where the idempotent per-job Commit settles it —
		// same as the single-job COMMIT_RETRY path.
		for _, cm := range coms {
			gm.commitRetry(cm.rec, err)
		}
		return
	}
	elapsed := time.Since(start).Seconds()
	for i, cm := range coms {
		if cerrs[i] != nil {
			gm.commitRetry(cm.rec, cerrs[i])
			continue
		}
		gm.agent.obs.Histogram("gm_two_phase_seconds").Observe(elapsed)
		gm.agent.obs.Counter(obs.Key("gm_site_submits_total", "site", site)).Inc()
		gm.agent.trace(cm.rec, obs.PhaseCommit, "", "two-phase commit complete")
		gm.agent.log(cm.rec, "GRID_SUBMIT", "job submitted to %s as %s", site, cm.contact.JobID)
	}
}

// commitRetry records a failed phase two and parks the job in recovery,
// where the idempotent Commit is replayed. A job that is already terminal
// needs no re-verification — the commit evidently reached the site and
// only the response was lost (the callback outran the retry ladder), so
// parking it would just append lifecycle noise after completion.
func (gm *GridManager) commitRetry(rec *jobRecord, err error) {
	rec.mu.Lock()
	if rec.State.Terminal() {
		rec.mu.Unlock()
		return
	}
	gm.agent.traceLocked(rec, obs.PhaseCommitRetry, faultclass.ClassOf(err).String(), err.Error())
	rec.mu.Unlock()
	gm.agent.log(rec, "COMMIT_RETRY", "commit failed (%v); will re-verify", err)
	gm.mu.Lock()
	gm.recovery = append(gm.recovery, rec)
	gm.mu.Unlock()
}

// probeBatch is the coalesced §4.2 failure detector (a taskBatchProbe
// body): one jm.batch-status frame to the gatekeeper covers every member,
// and per-entry results fan back through applyRemoteStatus exactly as a
// per-job probe would. A member whose JobManager died (JMAlive=false)
// skips the ping ladder — the same frame already proved the gatekeeper
// alive — and goes straight to the restart flow.
func (gm *GridManager) probeBatch(recs []*jobRecord) {
	type member struct {
		rec     *jobRecord
		contact gram.JobContact
	}
	var ms []member
	for _, rec := range recs {
		rec.mu.Lock()
		ok := !rec.State.Terminal() && rec.State != Held && rec.Contact.JobID != ""
		contact := rec.Contact
		rec.mu.Unlock()
		if ok {
			ms = append(ms, member{rec: rec, contact: contact})
		}
	}
	if len(ms) == 0 {
		return
	}
	gkAddr := ms[0].contact.GatekeeperAddr
	ids := make([]string, len(ms))
	for i, m := range ms {
		ids[i] = m.contact.JobID
	}
	results, err := gm.gram.BatchStatus(gkAddr, ids)
	if err != nil {
		// Transport failure: one gatekeeper ping decides for the whole
		// batch — the members share the machine, so N individual probe
		// ladders would reach the same verdict N times slower.
		if gkErr := gm.gram.PingGatekeeper(gkAddr); gkErr != nil {
			for _, m := range ms {
				gm.markDisconnected(m.rec, gkAddr)
			}
			return
		}
		// Gatekeeper answers but the batch frame failed; per-job probes
		// sort out which members are affected.
		for _, m := range ms {
			gm.probeJob(m.rec)
		}
		return
	}
	gm.agent.obs.Counter("gm_probe_coalesced_total").Add(int64(len(ms)))
	for i, r := range results {
		m := ms[i]
		if r.Err != nil {
			switch faultclass.ClassOf(r.Err) {
			case faultclass.SiteLost:
				// The site is alive but has no record of the job — it
				// can never finish there. Same verdict as a failed
				// jm-restart on the per-job ladder.
				gm.agent.log(m.rec, "JM_RESTART_FAILED", "site no longer knows the job: %v", r.Err)
				gm.maybeResubmit(m.rec, gram.StatusInfo{
					State: gram.StateFailed,
					Error: r.Err.Error(),
					Fault: faultclass.SiteLost,
				})
			case faultclass.AuthExpired:
				gm.holdJob(m.rec, "credential rejected by site: "+r.Err.Error())
			}
			// Other per-entry errors: leave the job for the next tick.
			continue
		}
		gm.agent.applyRemoteStatus(m.rec, r.Status)
		gm.maybeResubmit(m.rec, r.Status)
		gm.maybeMigrate(m.rec, r.Status)
		if !r.JMAlive && !r.Status.State.Terminal() {
			gm.restartJobManagerFor(m.rec, m.contact)
		}
	}
}

// cancelBatch retries several cancel tombstones at one site in a single
// jm.batch-cancel frame (a taskBatchCancel body). Any remote per-entry
// answer other than AuthExpired acknowledges that tombstone, with the
// same reasoning as cancelAcknowledged.
func (gm *GridManager) cancelBatch(pairs []cancelPair) {
	gkAddr := pairs[0].contact.GatekeeperAddr
	ids := make([]string, len(pairs))
	for i, p := range pairs {
		ids[i] = p.contact.JobID
	}
	results, err := gm.gram.BatchCancel(gkAddr, ids)
	if err != nil {
		// Transport failure: the tombstones stay; the dispatcher retries
		// them next tick.
		return
	}
	for i, r := range results {
		p := pairs[i]
		if r != nil && faultclass.ClassOf(r) == faultclass.AuthExpired {
			continue // the cancel must land for real; keep the tombstone
		}
		gm.agent.trace(p.rec, obs.PhaseCancelAck, "", "old copy "+p.contact.JobID+" confirmed cancelled")
		gm.agent.ackCancelTombstone(p.rec, p.contact)
		gm.agent.log(p.rec, "CANCEL_ACKED", "old copy %s confirmed cancelled", p.contact.JobID)
	}
}
