package condorg

// The staging data plane's agent half. Before the GRAM submit, a job whose
// executable has not reached its site runs a taskStage on the site's
// pipeline: check the site's content-addressed cache, and on a miss push
// the bytes in parallel chunk streams, journaling each site-acked offset in
// the job record so an agent crash or connection reset resumes from the
// last acked chunk instead of byte zero. The per-site stream cap
// (stageStreams) is shared across all of the owner's staging jobs and
// composes with Pipeline.PerSiteInFlight: a staging task occupies one
// pipeline slot while its chunk RPCs share the stream semaphore. The push
// streams from the spool object: each chunk's frame is sent from its
// section of the open file, so the executable's bytes never reach the
// agent's heap.

import (
	"errors"
	"fmt"
	"maps"
	"os"
	"sync"

	"condorg/internal/faultclass"
	"condorg/internal/wire"
)

// stageStreams caps concurrent chunk RPCs per site across all of one owner's
// staging jobs. A push's chunk size comes from its object (stageChunkFor),
// between stageChunkMin and stageChunkMax.
const (
	stageStreams  = 4
	stageChunkMin = 64 << 10
	stageChunkMax = 1 << 20
)

// stageChunkFor sizes the chunks of an object of total bytes: the object's
// size rounded up to a multiple of stageChunkMin, at most stageChunkMax. An
// object of up to 1 MiB is one chunk RPC, which also commits it; a larger
// one moves in windows of up to stageStreams 1 MiB chunks. Every chunk
// rides the one session the agent holds to the gatekeeper, so splitting an
// object finer buys no bandwidth, only round trips.
func stageChunkFor(total int64) int64 {
	chunk := (total + stageChunkMin - 1) / stageChunkMin * stageChunkMin
	return min(max(chunk, stageChunkMin), stageChunkMax)
}

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
		sem = make(chan struct{}, stageStreams)
		gm.stageSem[site] = sem
	}
	return sem
}

// stageStats reports per-site executable-cache hits and misses observed by
// this manager's staging tasks.
func (gm *GridManager) stageStats() (hits, misses map[string]int) {
	gm.mu.Lock()
	defer gm.mu.Unlock()
	return maps.Clone(gm.stageHits), maps.Clone(gm.stageMisses)
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
//     abandoned and the job proceeds to submit (the site pulls via GASS);
//   - the site's verdict on a chunk (a content hash that does not match,
//     found by the chunk that completes the object) → routed like a failed
//     stage-commit (stageFailed): the site has discarded the partial, so
//     re-sending the window cannot help;
//   - a spool object shorter than its recorded size → pre-staging is
//     abandoned at once, before any byte is sent.
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
			rec.Stage.Offset = rec.Stage.Total
		}
		gm.agent.emit(rec, evStage, "", detail)
		rec.mu.Unlock()
		// Lazy: the site's ack and cache are the authority on what it
		// holds; a lost Done only costs one stage-check.
		gm.agent.persist(rec, lazy)
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

	obj, size, err := gm.agent.openSpool(execRef)
	if err == nil && size < total {
		obj.Close()
		err = fmt.Errorf("%w: %d of %d bytes", wire.ErrShortSection, size, total)
	}
	if err != nil {
		// The spool is local state; losing it is not the site's fault.
		// Fall back to submit — stage-in there will fail the same way and
		// classify properly if the file is truly gone.
		finish(false, "pre-stage abandoned (spool read: "+err.Error()+"); site will pull")
		return
	}
	defer obj.Close()
	push := objectPush{f: obj, total: total, chunk: stageChunkFor(total)}

	// Resume at the site's ack: that is what the site holds. The journaled
	// offset only says how far an earlier push (a torn response, an agent
	// crash) believed it had got.
	off := siteOff
	if off > 0 || journaled > 0 {
		gm.agent.obs.Counter("stage_resumes_total").Inc()
		rec.mu.Lock()
		gm.agent.emit(rec, evStage, "", fmt.Sprintf("resuming at site-acked offset %d/%d (journaled %d)", off, total, journaled))
		rec.mu.Unlock()
	}

	attempts := 0
	sem := gm.stageStream(site)
	chunks := 0
	committed := false // a chunk's ack reached total: the site verified and cached it
	for off < total {
		select {
		case <-gm.stopCh:
			// Agent shutting down: the acked offset is already journaled,
			// recovery resumes from it.
			return
		default:
		}
		acked, err := gm.pushWindow(site, hash, push, off, sem, &chunks)
		if acked > off {
			gm.agent.obs.Counter("stage_bytes_total").Add(acked - off)
			off = acked
			rec.mu.Lock()
			rec.Stage.Offset = off
			rec.mu.Unlock()
			if off < total {
				// A complete push is journaled by finish, with Done.
				gm.agent.persist(rec, lazy)
			}
		}
		if off == total {
			// The chunk that completed the object committed it; an error
			// of another chunk of the window was a torn reply.
			committed = true
			break
		}
		if err != nil {
			if errors.Is(err, faultclass.ErrBreakerOpen) || wire.IsRemote(err) ||
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
					committed = true
					break
				}
				if siteOff > off {
					off = siteOff
					rec.mu.Lock()
					rec.Stage.Offset = off
					rec.mu.Unlock()
					gm.agent.persist(rec, lazy)
				}
			}
			gm.agent.obs.Counter("stage_resumes_total").Inc()
			rec.mu.Lock()
			gm.agent.emit(rec, evStage, faultclass.ClassOf(err).String(),
				fmt.Sprintf("transfer error at offset %d/%d; resuming (attempt %d/%d)", off, total, attempts, maxStageAttempts))
			rec.mu.Unlock()
		}
	}
	if !committed {
		// The site had acked every byte without committing them: a push
		// that resumed at the object's end.
		if err := gm.gram.StageCommit(site, hash, total); err != nil {
			gm.stageFailed(rec, site, err, requeue, finish)
			return
		}
	}
	gm.agent.stageKnown.add(site, hash)
	finish(false, fmt.Sprintf("staged %d bytes in %d chunks to %s", total, chunks, site))
}

// objectPush is the spool object one staging task pushes: its open file,
// its size and the chunk size stageChunkFor chose for it.
type objectPush struct {
	f     *os.File
	total int64
	chunk int64
}

// pushWindow sends up to stageStreams consecutive chunks starting at off in
// parallel, each RPC holding one slot of the per-site stream semaphore and
// sending its bytes from its section of the spool object as the frame goes
// out. It returns the highest contiguous site ack observed and the first
// error.
func (gm *GridManager) pushWindow(site, hash string, p objectPush, off int64, sem chan struct{}, chunks *int) (int64, error) {
	type result struct {
		acked int64
		err   error
	}
	var wg sync.WaitGroup
	results := make([]result, 0, stageStreams)
	var mu sync.Mutex
	for i := 0; i < stageStreams && off < p.total; i++ {
		sec := wire.Section{File: p.f, Off: off, N: min(p.chunk, p.total-off)}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			acked, err := gm.gram.StageSection(site, hash, p.total, sec)
			<-sem
			mu.Lock()
			results = append(results, result{acked, err})
			mu.Unlock()
		}()
		off += sec.N
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
	if n < maxStageAttempts { // the last failure's event is finish's
		gm.agent.emit(rec, evStage, faultclass.ClassOf(err).String(), "staging to "+site+" failed: "+err.Error())
	}
	rec.mu.Unlock()
	if n >= maxStageAttempts {
		// An unreachable or broken site must not loop in staging forever:
		// fall back to plain submission, whose retry budget and hold path
		// classify the failure properly.
		finish(false, fmt.Sprintf("pre-stage abandoned after %d attempts (%v); site will pull", n, err))
		return
	}
	gm.agent.persist(rec, lazy)
	requeue()
}

// short abbreviates a content hash for human-facing trace details.
func short(hash string) string {
	if len(hash) > 12 {
		return hash[:12]
	}
	return hash
}
