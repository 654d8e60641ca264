package gram

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gass"
	"condorg/internal/lrm"
	"condorg/internal/wire"
)

// TestStagePartAdvance: out-of-order chunk ranges merge into the
// contiguous ack only once the gap before them is filled.
func TestStagePartAdvance(t *testing.T) {
	p := &stagePart{}
	if got := p.advance(10, 20); got != 0 {
		t.Fatalf("ack after gap write = %d, want 0", got)
	}
	if got := p.advance(30, 40); got != 0 {
		t.Fatalf("ack after second gap write = %d, want 0", got)
	}
	if got := p.advance(0, 10); got != 20 {
		t.Fatalf("ack after filling first gap = %d, want 20", got)
	}
	if got := p.advance(20, 30); got != 40 {
		t.Fatalf("ack after filling second gap = %d, want 40", got)
	}
	// Overlapping re-sends are idempotent.
	if got := p.advance(0, 25); got != 40 {
		t.Fatalf("ack after overlapping re-send = %d, want 40", got)
	}
}

// TestStageCacheResume: the .off sidecar survives a cache reopen (site
// restart), so the resume point is the persisted ack, not zero — and
// chunks written beyond the ack before the crash are re-sent safely.
func TestStageCacheResume(t *testing.T) {
	root := t.TempDir()
	c, err := newStageCache(root)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("stage-cache-resume ", 100))
	hash := HashExecutable(data)

	if _, err := c.write(hash, 0, data[:500]); err != nil {
		t.Fatal(err)
	}
	// An out-of-order chunk lands but cannot be acked yet.
	if acked, err := c.write(hash, 700, data[700:900]); err != nil || acked != 500 {
		t.Fatalf("acked = %d, err = %v; want 500", acked, err)
	}

	// Simulate a site restart: a fresh cache over the same directory.
	c2, err := newStageCache(root)
	if err != nil {
		t.Fatal(err)
	}
	present, off := c2.check(hash)
	if present || off != 500 {
		t.Fatalf("check after reopen = (%v, %d), want (false, 500)", present, off)
	}
	// Resume from the ack; the previously written out-of-order range is
	// forgotten and re-sent.
	if _, err := c2.write(hash, 500, data[500:]); err != nil {
		t.Fatal(err)
	}
	if err := c2.commit(hash, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	got, ok := c2.get(hash)
	if !ok || string(got) != string(data) {
		t.Fatalf("cached object missing or corrupt after resume")
	}
	c2.unmap(got)
	// Commit cleans the partial state.
	if present, off := c2.check(hash); !present || off != 0 {
		t.Fatalf("check after commit = (%v, %d), want (true, 0)", present, off)
	}
}

// TestStageCommitVerifyDiscard: a commit whose assembled bytes do not
// match the claimed hash discards the partial, so the next attempt
// restarts from zero rather than resuming corrupt state.
func TestStageCommitVerifyDiscard(t *testing.T) {
	c, err := newStageCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the real executable bytes")
	hash := HashExecutable(data)
	if _, err := c.write(hash, 0, []byte("corrupted executable bytes!!!")[:len(data)]); err != nil {
		t.Fatal(err)
	}
	if err := c.commit(hash, int64(len(data))); err == nil {
		t.Fatal("commit of corrupt partial succeeded")
	}
	if present, off := c.check(hash); present || off != 0 {
		t.Fatalf("check after failed commit = (%v, %d), want (false, 0)", present, off)
	}
	// Short partials are rejected too.
	if _, err := c.write(hash, 0, data[:4]); err != nil {
		t.Fatal(err)
	}
	if err := c.commit(hash, int64(len(data))); err == nil {
		t.Fatal("commit of short partial succeeded")
	}
}

// TestStageCachePutConcurrent: pulls of one executable racing each other
// (and a push commit of the same hash) each rename their own complete temp
// file into place, so a get that hits always returns the full bytes.
func TestStageCachePutConcurrent(t *testing.T) {
	c, err := newStageCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Each round is a fresh hash: the race is between the first writers of
	// an object, so it has to be run more than once to be seen.
	for round := 0; round < 20 && !t.Failed(); round++ {
		data := bytes.Repeat([]byte(fmt.Sprintf("concurrent-put-%02d ", round)), 16<<10) // 288 KiB: a torn write shows
		hash := HashExecutable(data)
		var readers, writers sync.WaitGroup
		stop := make(chan struct{})
		for i := 0; i < 2; i++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if got, ok := c.get(hash); ok {
						whole := bytes.Equal(got, data)
						n := len(got)
						c.unmap(got)
						if !whole {
							t.Errorf("round %d: get returned %d of %d bytes", round, n, len(data))
							return
						}
					}
				}
			}()
		}
		for i := 0; i < 6; i++ {
			writers.Add(1)
			go func(i int) {
				defer writers.Done()
				if i == 0 {
					// One of the racers arrives by the push path.
					if _, err := c.write(hash, 0, data); err != nil {
						t.Error(err)
					}
					if err := c.commit(hash, int64(len(data))); err != nil {
						t.Error(err)
					}
					return
				}
				if err := c.put(hash, data); err != nil {
					t.Error(err)
				}
			}(i)
		}
		writers.Wait()
		close(stop)
		readers.Wait()
		got, ok := c.get(hash)
		if !ok || !bytes.Equal(got, data) {
			t.Fatalf("round %d: object missing or short after every writer returned", round)
		}
		c.unmap(got)
	}
	if n := c.mapped.Load(); n != 0 {
		t.Fatalf("%d mappings left live after every get was unmapped", n)
	}
	left, _ := filepath.Glob(filepath.Join(c.root, "partial", "*"))
	if len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestStageUploadsDoNotSerialize: the cache lock is per hash — a writer
// parked inside one upload does not hold up a chunk of another.
func TestStageUploadsDoNotSerialize(t *testing.T) {
	c, err := newStageCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := HashExecutable([]byte("a")), HashExecutable([]byte("b"))
	held, err := c.acquire(a)
	if err != nil || held == nil {
		t.Fatalf("acquire = %v, %v", held, err)
	}
	defer held.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := c.write(b, 0, []byte("b"))
		if err == nil {
			err = c.commit(b, 1)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an upload of another hash waited for this one's lock")
	}
}

// TestStageHashValidation: only 64-char lowercase hex reaches the
// filesystem — anything else (traversal attempts included) is rejected.
func TestStageHashValidation(t *testing.T) {
	for _, bad := range []string{
		"", "abc", "../../../../etc/passwd",
		strings.Repeat("A", 64), // uppercase
		strings.Repeat("g", 64), // non-hex
		strings.Repeat("a", 63) + "/",
	} {
		if validHash(bad) {
			t.Errorf("validHash(%q) = true", bad)
		}
	}
	if !validHash(HashExecutable([]byte("x"))) {
		t.Error("validHash rejected a real sha256")
	}
}

// TestStageFaultClass: a stage-in failure already classified AuthExpired
// keeps its class (the agent must hold the job, not resubmit); everything
// else is the site's loss.
func TestStageFaultClass(t *testing.T) {
	authErr := faultclass.New(faultclass.AuthExpired, errors.New("proxy expired"))
	if got := stageFaultClass(authErr); got != faultclass.AuthExpired {
		t.Fatalf("stageFaultClass(auth) = %v, want AuthExpired", got)
	}
	if got := stageFaultClass(errors.New("connection refused")); got != faultclass.SiteLost {
		t.Fatalf("stageFaultClass(raw) = %v, want SiteLost", got)
	}
}

// TestStageWireProtocol: the full check → chunk → commit conversation
// against a live gatekeeper, including idempotent re-sends and the
// present-answer for a second client pushing the same binary.
func TestStageWireProtocol(t *testing.T) {
	g := newTestGrid(t)
	gk := g.site.GatekeeperAddr()
	data := []byte(strings.Repeat("wire-protocol-blob ", 64))
	hash := HashExecutable(data)

	present, off, err := g.client.StageCheck(gk, hash)
	if err != nil || present || off != 0 {
		t.Fatalf("initial StageCheck = (%v, %d, %v), want (false, 0, nil)", present, off, err)
	}
	half := int64(len(data) / 2)
	if acked, err := g.client.StageChunk(gk, hash, 0, data[:half]); err != nil || acked != half {
		t.Fatalf("first chunk acked = %d, err = %v; want %d", acked, err, half)
	}
	if acked, err := g.client.StageChunk(gk, hash, half, data[half:]); err != nil || acked != int64(len(data)) {
		t.Fatalf("second chunk acked = %d, err = %v; want %d", acked, err, len(data))
	}
	if err := g.client.StageCommit(gk, hash, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	// Committed: a second client asking about the same content is told so.
	if present, _, err := g.client.StageCheck(gk, hash); err != nil || !present {
		t.Fatalf("StageCheck after commit = (%v, %v), want (true, nil)", present, err)
	}
	// Chunks for a committed object ack without rewriting anything.
	if acked, err := g.client.StageChunk(gk, hash, 0, data[:half]); err != nil || acked != half {
		t.Fatalf("post-commit chunk acked = %d, err = %v", acked, err)
	}
	// A bogus hash never reaches the filesystem.
	if _, _, err := g.client.StageCheck(gk, "../escape"); err == nil {
		t.Fatal("StageCheck accepted a traversal hash")
	}
}

// TestStageInCacheHit: a job whose spec carries ExecutableHash is served
// from the site cache once the bytes are staged — the site never pulls
// over GASS again for the same content.
func TestStageInCacheHit(t *testing.T) {
	g := newTestGrid(t)
	gk := g.site.GatekeeperAddr()
	prog := Program("echo")
	hash := HashExecutable(prog)

	// Pre-stage the bytes the way the agent's data plane would.
	if _, err := g.client.StageChunk(gk, hash, 0, prog); err != nil {
		t.Fatal(err)
	}
	if err := g.client.StageCommit(gk, hash, int64(len(prog))); err != nil {
		t.Fatal(err)
	}

	outURL := g.gassS.URLFor("out/echo.out")
	contact := g.submitAndCommit(t, JobSpec{
		// The executable reference points at a GASS path that does NOT
		// exist: a pull would fail, so success proves the cache served it.
		Executable:     g.gassS.URLFor("bin/missing").String(),
		ExecutableHash: hash,
		Args:           []string{"hello"},
		StdoutURL:      outURL.String(),
	})
	st := waitGramState(t, g.client, contact, StateDone)
	if !st.ExitOK {
		t.Fatalf("job failed: %+v", st)
	}
	hits, _ := g.site.StageCacheStats()
	if hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	// Output streaming is asynchronous to the Done state.
	deadline := time.Now().Add(2 * time.Second)
	for {
		out, err := g.gassC.ReadAll(outURL)
		if err == nil && strings.Contains(string(out), "hello") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stdout = %q, err = %v", out, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStageInHashMismatchRejected: a client that claims hash H but whose
// spool serves different bytes must not poison the cache — stage-in fails
// and nothing is stored under H.
func TestStageInHashMismatchRejected(t *testing.T) {
	g := newTestGrid(t)
	ref := g.stageProgram(t, "echo")
	wrong := HashExecutable([]byte("some other program entirely"))
	contact := g.submitAndCommit(t, JobSpec{
		Executable:     ref,
		ExecutableHash: wrong,
		Args:           []string{"x"},
	})
	st := waitGramState(t, g.client, contact, StateFailed)
	if !strings.Contains(st.Error, "hash") {
		t.Fatalf("error = %q, want hash mismatch", st.Error)
	}
	if _, ok := g.site.stage.get(wrong); ok {
		t.Fatal("mismatched bytes were cached under the claimed hash")
	}
}

// TestPullResumableContinuesAfterReset: the site's GASS pull survives
// connection resets by re-asking from the last received offset — the
// read count proves it continued rather than restarting from byte zero.
func TestPullResumableContinuesAfterReset(t *testing.T) {
	var faults wire.Faults
	gs, err := gass.NewServer(t.TempDir(), gass.ServerOptions{Faults: &faults})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	gc := gass.NewClient(nil, nil)
	defer gc.Close()

	// 8 chunks' worth of payload.
	payload := make([]byte, 8*gass.ChunkSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	u := gs.URLFor("big/blob")
	if err := gc.WriteFile(u, payload); err != nil {
		t.Fatal(err)
	}

	// Reset the response of every third read: the pull must resume, not
	// restart.
	var reads atomic.Int64
	faults.SetConn(nil, nil, func(m string) bool {
		if m != "gass.read" {
			return false
		}
		return reads.Add(1)%3 == 0
	})

	site := &Site{}
	puller := gass.NewClient(nil, nil)
	defer puller.Close()
	got, err := site.pullResumable(puller, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("pulled %d bytes, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
	// 8 data chunks + 1 EOF probe + the torn reads that were retried. A
	// restart-from-zero strategy would need well over twice that.
	if n := reads.Load(); n > 14 {
		t.Fatalf("pull made %d reads; resuming should need at most 14", n)
	}
}

// TestPullResetSparesSharedPush: a site's stage-in pulls and output pushes
// share one GASS client per credential. A pull whose read keeps meeting
// resets until its call gives up resumes on the client's own redial and
// leaves the client open, so an output push in flight on it at that moment
// retries on a fresh connection and lands.
func TestPullResetSparesSharedPush(t *testing.T) {
	var faults wire.Faults
	gs, err := gass.NewServer(t.TempDir(), gass.ServerOptions{Faults: &faults})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	gc := gass.NewClient(nil, nil)
	defer gc.Close()
	payload := bytes.Repeat([]byte("x"), 4*gass.ChunkSize)
	u := gs.URLFor("bin/exe")
	if err := gc.WriteFile(u, payload); err != nil {
		t.Fatal(err)
	}

	// Reads 2-5 are every attempt of one gass.read call (a first try and
	// three retries), and each response tears the connection. The push
	// starts when the last of them arrives, which waits long enough for the
	// push to be in flight on the same connection when it tears. Every
	// append is slow, so the push's retry finds the first reply cached.
	const lastTorn = 5
	var arrivals, responses atomic.Int64
	start := make(chan struct{})
	faults.SetDelay(func(m string) time.Duration {
		switch {
		case m == "gass.append":
			return 300 * time.Millisecond
		case m == "gass.read" && arrivals.Add(1) == lastTorn:
			close(start)
			return 100 * time.Millisecond
		}
		return 0
	})
	faults.SetConn(nil, nil, func(m string) bool {
		if m != "gass.read" {
			return false
		}
		n := responses.Add(1)
		return n >= 2 && n <= lastTorn
	})
	pushed := make(chan error, 1)
	go func() {
		<-start
		_, err := gc.Append(gs.URLFor("out/stdout"), []byte("task ok\n"))
		pushed <- err
	}()
	got, err := (&Site{}).pullResumable(gc, u)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("pull: %d bytes, %v; want %d bytes", len(got), err, len(payload))
	}
	if n := responses.Load(); n <= lastTorn {
		t.Fatalf("the pull made %d reads; its torn call should have given up and resumed", n)
	}
	if err := <-pushed; err != nil {
		t.Fatalf("the push in flight when the pull's call gave up failed: %v", err)
	}
	if data, err := gs.ReadFile("out/stdout"); err != nil || string(data) != "task ok\n" {
		t.Fatalf("pushed output reads %q, %v", data, err)
	}
}

// TestStageInAuthExpiredHoldsClass: a stage pull that fails with an
// expired credential keeps AuthExpired so the agent holds the job instead
// of blindly resubmitting. Uses a GASS server that always rejects with a
// typed auth fault via the remote error path.
func TestStageInAuthExpiredHoldsClass(t *testing.T) {
	err := faultclass.New(faultclass.AuthExpired, fmt.Errorf("proxy expired at %s", time.Now().Format(time.RFC3339)))
	if got := stageFaultClass(fmt.Errorf("stage-in: %w", err)); got != faultclass.AuthExpired {
		t.Fatalf("wrapped auth fault classified %v", got)
	}
}

// bigProgram returns a runnable "#!condor name" executable padded to n
// bytes.
func bigProgram(name string, n int) []byte {
	prog := Program(name)
	return append(prog, bytes.Repeat([]byte{'x'}, n-len(prog))...)
}

// preStage pushes exec into the site's cache the way the agent's data plane
// does, and returns its hash.
func (g *testGrid) preStage(t *testing.T, exec []byte) string {
	t.Helper()
	gk := g.site.GatekeeperAddr()
	hash := HashExecutable(exec)
	if _, err := g.client.StageChunk(gk, hash, 0, exec); err != nil {
		t.Fatal(err)
	}
	if err := g.client.StageCommit(gk, hash, int64(len(exec))); err != nil {
		t.Fatal(err)
	}
	return hash
}

// waitSiteState waits, without a round trip, until the site's record of job
// id is in state want, and returns its status.
func waitSiteState(t *testing.T, s *Site, id string, want JobState) StatusInfo {
	t.Helper()
	s.mu.Lock()
	job := s.jobs[id]
	s.mu.Unlock()
	if job == nil {
		t.Fatalf("site has no job %s", id)
	}
	for deadline := time.Now().Add(8 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		job.mu.Lock()
		st := job.status
		job.mu.Unlock()
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job %s reached %v (err=%q), want %v", id, st.State, st.Error, want)
		}
	}
	t.Fatalf("job %s never reached %v", id, want)
	return StatusInfo{}
}

// TestProgramNameDoesNotCopy: reading a 1 MiB executable's program name
// allocates the name and nothing else.
func TestProgramNameDoesNotCopy(t *testing.T) {
	exec := bigProgram("echo", 1<<20)
	allocs := testing.AllocsPerRun(20, func() {
		if name, err := ProgramName(exec); err != nil || name != "echo" {
			t.Fatalf("ProgramName = %q, %v", name, err)
		}
	})
	if allocs > 1 {
		t.Fatalf("ProgramName made %.0f allocations on a 1 MiB executable, want 1", allocs)
	}
}

// TestStageInHitDoesNotCopy: a job served from the site's cache runs on
// the mapped object, so the heap bytes a cache-hit job costs the process
// (site and client together) stay far below its 1 MiB executable.
func TestStageInHitDoesNotCopy(t *testing.T) {
	g := newTestGrid(t)
	exec := bigProgram("echo", 1<<20)
	hash := g.preStage(t, exec)
	run := func() {
		contact := g.submitAndCommit(t, JobSpec{
			Executable:     g.gassS.URLFor("bin/missing").String(),
			ExecutableHash: hash,
			Args:           []string{"hit"},
		})
		// Waited out on the site's own record: a status poll per loop
		// would bill the wait's length to the job.
		if st := waitSiteState(t, g.site, contact.JobID, StateDone); !st.ExitOK {
			t.Fatalf("job failed: %+v", st)
		}
	}
	run() // warm: connections, sessions, the first journal segment
	const jobs = 8
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < jobs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	perJob := (after.TotalAlloc - before.TotalAlloc) / jobs
	t.Logf("heap bytes per cache-hit job: %d", perJob)
	if perJob >= 64<<10 {
		t.Fatalf("a cache-hit job allocated %d heap bytes for a %d-byte executable, want < 64 KiB", perJob, len(exec))
	}
	if hits, _ := g.site.StageCacheStats(); hits != jobs+1 {
		t.Fatalf("cache hits = %d, want %d", hits, jobs+1)
	}
}

// TestStageMappingReleased: a cache hit's mapping lives exactly as long as
// its job can still run — held while the body runs or waits in the queue,
// released however the job ends: done, killed at its wall limit, cancelled
// while queued, or lost to the site's Close. A small object is not mapped.
func TestStageMappingReleased(t *testing.T) {
	cluster, err := lrm.NewCluster(lrm.Config{Name: "one", Cpus: 1})
	if err != nil {
		t.Fatal(err)
	}
	g := newTestGrid(t, func(cfg *SiteConfig) { cfg.Cluster = cluster })
	hash := g.preStage(t, bigProgram("sleep", 256<<10))
	submit := func(wall time.Duration, sleep string) string {
		return g.submitAndCommit(t, JobSpec{
			Executable:     g.gassS.URLFor("bin/missing").String(),
			ExecutableHash: hash,
			Args:           []string{sleep},
			WallLimit:      wall,
		}).JobID
	}
	live := func(want int64, when string) {
		t.Helper()
		if got := g.site.stage.mapped.Load(); got != want {
			t.Fatalf("%d live mappings %s, want %d", got, when, want)
		}
	}

	// An object under mapMin is read, not mapped.
	tiny := g.submitAndCommit(t, JobSpec{
		Executable:     g.gassS.URLFor("bin/missing").String(),
		ExecutableHash: g.preStage(t, Program("sleep")),
		Args:           []string{"10s"},
	})
	waitSiteState(t, g.site, tiny.JobID, StateActive)
	live(0, "while a small object's body runs")
	if err := g.client.Cancel(tiny); err != nil {
		t.Fatal(err)
	}
	waitSiteState(t, g.site, tiny.JobID, StateFailed)

	waitSiteState(t, g.site, submit(0, "1ms"), StateDone)
	live(0, "after a job finished")
	waitSiteState(t, g.site, submit(50*time.Millisecond, "10s"), StateFailed)
	live(0, "after a wall-limit kill")

	running := submit(0, "10s")
	waitSiteState(t, g.site, running, StateActive)
	live(1, "while a body runs")
	queued := submit(0, "10s") // the one CPU is taken
	waitSiteState(t, g.site, queued, StatePending)
	live(2, "with a job queued behind it")
	if err := g.client.Cancel(JobContact{GatekeeperAddr: g.site.GatekeeperAddr(), JobID: queued}); err != nil {
		t.Fatal(err)
	}
	waitSiteState(t, g.site, queued, StateFailed)
	live(1, "after the queued job was cancelled")

	g.site.Close()
	live(0, "after the site closed under a running job")
	if st := waitSiteState(t, g.site, running, StateFailed); st.Fault != faultclass.SiteLost {
		t.Fatalf("job killed by Close: %+v", st)
	}
}
