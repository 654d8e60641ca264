package condorg

// The staging data plane's agent half. Before the GRAM submit, a job whose
// executable has not reached its site runs a taskStage on the site's
// pipeline: check the site's content-addressed cache, and on a miss push
// the bytes in parallel chunk streams, journaling each site-acked offset in
// the job record so an agent crash or connection reset resumes from the
// last acked chunk instead of byte zero. The per-site stream cap
// (AgentConfig.Stage.Streams) is shared across all of the owner's staging
// jobs and composes with Pipeline.PerSiteInFlight: a staging task occupies
// one pipeline slot while its chunk RPCs share the stream semaphore.

import (
	"errors"
	"fmt"
	"sync"

	"condorg/internal/faultclass"
	"condorg/internal/gass"
	"condorg/internal/obs"
)

// maxStageKnown bounds the agent's stage-known set. At the bound an arbitrary
// entry makes room: forgetting one costs its next job a stage-check, nothing
// more.
const maxStageKnown = 4096

type stageKey struct{ site, hash string }

// stageKnown is the agent-wide memory of "site S holds executable H", filled
// by a stage-check hit or a completed push and shared by every owner's
// GridManager. A job whose (site, hash) is in it skips the staging task — no
// gram.stage-check round trip, no journal write — and goes straight to the
// GRAM submit. It is a hint, never an authority: a site that lost the bytes
// (cache wiped, restarted elsewhere) pulls them through GASS at commit time,
// as it does for any executable it does not hold, and caches them again. It
// lives in memory only; a restarted agent relearns it one stage-check per
// (site, executable).
type stageKnown struct {
	mu sync.Mutex
	m  map[stageKey]struct{}
}

func (k *stageKnown) add(site, hash string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	if k.m == nil {
		k.m = make(map[stageKey]struct{})
	}
	if len(k.m) >= maxStageKnown {
		for victim := range k.m {
			delete(k.m, victim)
			break
		}
	}
	k.m[stageKey{site, hash}] = struct{}{}
}

func (k *stageKnown) has(site, hash string) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	_, ok := k.m[stageKey{site, hash}]
	return ok
}

// forgetSite drops everything known about a site that is gone for good (a
// retired pilot's address may be reused by one with an empty cache).
func (k *stageKnown) forgetSite(site string) {
	k.mu.Lock()
	defer k.mu.Unlock()
	for key := range k.m {
		if key.site == site {
			delete(k.m, key)
		}
	}
}

// noteStageHit counts one job served by site's executable cache — in the
// metrics, in the per-site health columns — and remembers the pair.
func (gm *GridManager) noteStageHit(site, hash string) {
	gm.mu.Lock()
	gm.stageHits[site]++
	gm.mu.Unlock()
	gm.agent.obs.Counter("stage_cache_hits_total").Inc()
	gm.agent.stageKnown.add(site, hash)
}

// maxStageAttempts bounds resume attempts within one staging task. A
// transfer that keeps dying re-checks the site's acked offset and resumes
// from there; once the budget is spent the task abandons pre-staging and
// falls back to the site-pull path, so staging trouble can never wedge a
// job that plain submission would have run.
const maxStageAttempts = 3

// stageStream returns the per-site chunk-stream semaphore.
func (gm *GridManager) stageStream(site string) chan struct{} {
	gm.mu.Lock()
	defer gm.mu.Unlock()
	sem := gm.stageSem[site]
	if sem == nil {
		sem = make(chan struct{}, gm.agent.cfg.Stage.Streams)
		gm.stageSem[site] = sem
	}
	return sem
}

// stageStats reports per-site executable-cache hits and misses observed by
// this manager's staging tasks.
func (gm *GridManager) stageStats() (hits, misses map[string]int) {
	gm.mu.Lock()
	defer gm.mu.Unlock()
	hits = make(map[string]int, len(gm.stageHits))
	misses = make(map[string]int, len(gm.stageMisses))
	for site, n := range gm.stageHits {
		hits[site] = n
	}
	for site, n := range gm.stageMisses {
		misses[site] = n
	}
	return hits, misses
}

// readSpool reads the file a gass:// URL of the agent's own spool server
// names, through the server's local door.
func (a *Agent) readSpool(ref string) ([]byte, error) {
	u, err := gass.ParseURL(ref)
	if err != nil {
		return nil, err
	}
	return a.gassS.ReadFile(u.Path)
}

// stageJob pushes one job's executable to its site (a taskStage body).
// Outcomes:
//
//   - cache hit or completed push → Stage.Done journaled, job requeued
//     (the next dispatch pass runs the submit), and the (site, hash) pair
//     remembered so later jobs skip this task altogether;
//   - breaker open → requeued; the dispatcher parks it until the site is
//     due its half-open probe;
//   - AuthExpired → job held for a credential refresh;
//   - transfer errors → the site-acked offset is journaled and the push
//     resumes (bounded by maxStageAttempts), after which pre-staging is
//     abandoned and the job proceeds to submit (the site pulls via GASS).
func (gm *GridManager) stageJob(rec *jobRecord) {
	rec.mu.Lock()
	if rec.State.Terminal() || rec.State == Held || rec.Stage.Done {
		rec.mu.Unlock()
		return
	}
	site := rec.Site
	hash := rec.Stage.Hash
	total := rec.Stage.Total
	execRef := rec.Spec.Executable
	journaled := rec.Stage.Offset
	rec.mu.Unlock()

	requeue := func() {
		gm.mu.Lock()
		gm.pendingLater(rec)
		gm.mu.Unlock()
	}
	finish := func(cacheHit bool, detail string) {
		rec.mu.Lock()
		rec.Stage.Done = true
		rec.Stage.CacheHit = cacheHit
		if cacheHit {
			rec.Stage.Offset = 0
		} else {
			rec.Stage.Offset = total
		}
		gm.agent.traceLocked(rec, obs.PhaseStage, "", detail)
		rec.mu.Unlock()
		gm.agent.persist(rec)
		requeue()
	}

	present, siteOff, err := gm.gram.StageCheck(site, hash)
	if err != nil {
		gm.stageFailed(rec, site, err, requeue, finish)
		return
	}
	if present {
		gm.noteStageHit(site, hash)
		finish(true, "executable "+short(hash)+" already cached at "+site)
		return
	}
	gm.mu.Lock()
	gm.stageMisses[site]++
	gm.mu.Unlock()
	gm.agent.obs.Counter("stage_cache_misses_total").Inc()

	data, err := gm.agent.readSpool(execRef)
	if err != nil {
		// The spool is local state; losing it is not the site's fault.
		// Fall back to submit — stage-in there will fail the same way and
		// classify properly if the file is truly gone.
		finish(false, "pre-stage abandoned (spool read: "+err.Error()+"); site will pull")
		return
	}

	// Resume at the site's ack: that is what the site holds. The journaled
	// offset only says how far an earlier push (a torn response, an agent
	// crash) believed it had got.
	off := siteOff
	if off > 0 || journaled > 0 {
		gm.agent.obs.Counter("stage_resumes_total").Inc()
		gm.agent.trace(rec, obs.PhaseStage, "",
			fmt.Sprintf("resuming at site-acked offset %d/%d (journaled %d)", off, total, journaled))
	}

	attempts := 0
	chunkSize := gm.agent.cfg.Stage.ChunkSize
	streams := gm.agent.cfg.Stage.Streams
	sem := gm.stageStream(site)
	chunks := 0
	for off < int64(len(data)) {
		select {
		case <-gm.stopCh:
			// Agent shutting down: the acked offset is already journaled,
			// recovery resumes from it.
			return
		default:
		}
		acked, err := gm.pushWindow(site, hash, data, off, chunkSize, streams, sem, &chunks)
		if acked > off {
			gm.agent.obs.Counter("stage_bytes_total").Add(acked - off)
			off = acked
			rec.mu.Lock()
			rec.Stage.Offset = off
			rec.mu.Unlock()
			gm.agent.persist(rec)
		}
		if err != nil {
			if errors.Is(err, faultclass.ErrBreakerOpen) ||
				faultclass.ClassOf(err) == faultclass.AuthExpired {
				gm.stageFailed(rec, site, err, requeue, finish)
				return
			}
			attempts++
			if attempts >= maxStageAttempts {
				finish(false, fmt.Sprintf("pre-stage abandoned after %d attempts (%v); site will pull", attempts, err))
				return
			}
			// A torn response can hide a successful server-side write: ask
			// the site where it actually is, then resume from there.
			if present, siteOff, cerr := gm.gram.StageCheck(site, hash); cerr == nil {
				if present {
					break
				}
				if siteOff > off {
					off = siteOff
					rec.mu.Lock()
					rec.Stage.Offset = off
					rec.mu.Unlock()
					gm.agent.persist(rec)
				}
			}
			gm.agent.obs.Counter("stage_resumes_total").Inc()
			gm.agent.trace(rec, obs.PhaseStage, faultclass.ClassOf(err).String(),
				fmt.Sprintf("transfer error at offset %d/%d; resuming (attempt %d/%d)", off, total, attempts, maxStageAttempts))
		}
	}
	if err := gm.gram.StageCommit(site, hash, int64(len(data))); err != nil {
		gm.stageFailed(rec, site, err, requeue, finish)
		return
	}
	gm.agent.stageKnown.add(site, hash)
	finish(false, fmt.Sprintf("staged %d bytes in %d chunks to %s", len(data), chunks, site))
}

// pushWindow sends up to streams consecutive chunks starting at off in
// parallel, each RPC holding one slot of the per-site stream semaphore.
// It returns the highest contiguous site ack observed and the first error.
func (gm *GridManager) pushWindow(site, hash string, data []byte, off int64, chunkSize, streams int, sem chan struct{}, chunks *int) (int64, error) {
	type result struct {
		acked int64
		err   error
	}
	var wg sync.WaitGroup
	results := make([]result, 0, streams)
	var mu sync.Mutex
	for i := 0; i < streams && off < int64(len(data)); i++ {
		end := off + int64(chunkSize)
		if end > int64(len(data)) {
			end = int64(len(data))
		}
		chunkOff, chunk := off, data[off:end]
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			acked, err := gm.gram.StageChunk(site, hash, chunkOff, chunk)
			<-sem
			mu.Lock()
			results = append(results, result{acked, err})
			mu.Unlock()
		}()
		off = end
	}
	wg.Wait()
	var maxAck int64
	var firstErr error
	for _, r := range results {
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		*chunks++
		gm.agent.obs.Counter("stage_chunks_total").Inc()
		if r.acked > maxAck {
			maxAck = r.acked
		}
	}
	return maxAck, firstErr
}

// stageFailed routes a staging failure the same way submitFailed routes
// submission failures: breaker fast-fails park the job, expired credentials
// hold it, and anything else journals progress and retries on a later pass
// (staging consumes no submit-retry budget — no remote job exists yet).
func (gm *GridManager) stageFailed(rec *jobRecord, site string, err error,
	requeue func(), finish func(bool, string)) {
	if errors.Is(err, faultclass.ErrBreakerOpen) {
		requeue()
		return
	}
	if faultclass.ClassOf(err) == faultclass.AuthExpired {
		gm.holdJob(rec, "credential rejected by "+site+": "+err.Error())
		return
	}
	rec.mu.Lock()
	rec.Stage.Attempts++
	n := rec.Stage.Attempts
	rec.mu.Unlock()
	if n >= maxStageAttempts {
		// An unreachable or broken site must not loop in staging forever:
		// fall back to plain submission, whose retry budget and hold path
		// classify the failure properly.
		finish(false, fmt.Sprintf("pre-stage abandoned after %d attempts (%v); site will pull", n, err))
		return
	}
	gm.agent.persist(rec)
	gm.agent.trace(rec, obs.PhaseStage, faultclass.ClassOf(err).String(),
		"staging to "+site+" failed: "+err.Error())
	requeue()
}

// short abbreviates a content hash for human-facing trace details.
func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}
