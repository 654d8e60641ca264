package condorg

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/lrm"
	"condorg/internal/obs"
	"condorg/internal/wire"
)

// paddedProgram returns a runnable "#!condor name" blob padded to n bytes,
// so two executables can share a program name while having different
// content hashes — and so transfers span many chunks.
func paddedProgram(name string, n int, fill byte) []byte {
	prog := gram.Program(name)
	if len(prog) >= n {
		return prog
	}
	return append(prog, bytes.Repeat([]byte{fill}, n-len(prog))...)
}

// stageWorld is one site with injectable gatekeeper faults plus an agent
// with a small staging chunk size (so payloads span many chunks).
type stageWorld struct {
	site   *gram.Site
	faults *wire.Faults
	runs   *atomic.Int64
	dir    string
	cfg    AgentConfig
	agent  *Agent
}

func newStageWorld(t *testing.T, chunkSize, streams int) *stageWorld {
	t.Helper()
	w := &stageWorld{faults: &wire.Faults{}, runs: &atomic.Int64{}, dir: t.TempDir()}
	cluster, err := lrm.NewCluster(lrm.Config{Name: "site", Cpus: 4})
	if err != nil {
		t.Fatal(err)
	}
	w.site, err = gram.NewSite(gram.SiteConfig{
		Name:             "site",
		Cluster:          cluster,
		Runtime:          buildRuntime(w.runs),
		StateDir:         t.TempDir(),
		CommitTimeout:    2 * time.Second,
		GatekeeperFaults: w.faults,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.site.Close)
	w.cfg = AgentConfig{
		StateDir: w.dir,
		Selector: StaticSelector(w.site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
		Stage:    StageOptions{ChunkSize: chunkSize, Streams: streams},
		// Keep the breaker out of the way: staging fault handling is
		// under test, not breaker parking.
		Breaker: faultclass.BreakerConfig{Threshold: 1000},
	}
	w.agent, err = NewAgent(w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.agent.Close() })
	return w
}

// stageStatsSum sums the health view's per-site stage cache counters.
func stageStatsSum(a *Agent) (hits, misses int) {
	for _, row := range a.PipelineHealth() {
		hits += row.StageHits
		misses += row.StageMisses
	}
	return hits, misses
}

// TestStagePushResumesAfterReset: connection resets mid-chunk must not
// restart the transfer from byte zero — the agent re-asks the site for its
// acked offset and re-sends only the tail. The site's received-byte meter
// is the proof: well under two file sizes despite repeated teardowns.
func TestStagePushResumesAfterReset(t *testing.T) {
	w := newStageWorld(t, 4<<10, 2)
	exec := paddedProgram("task", 64<<10, 'p')

	// Tear the response of the first several stage-chunk attempts. The
	// handler has already run when the reset fires, so the site makes
	// progress the client cannot see — exactly the torn-ack case the
	// resume protocol exists for.
	var chunkAttempts atomic.Int64
	w.faults.SetConn(nil, nil, func(m string) bool {
		return m == "gram.stage-chunk" && chunkAttempts.Add(1) <= 8
	})

	id, err := w.agent.Submit(SubmitRequest{Owner: "u", Executable: exec})
	if err != nil {
		t.Fatal(err)
	}
	info := waitAgentState(t, w.agent, id, Completed)
	if !info.ExitOK {
		t.Fatalf("job failed: %+v", info)
	}
	if w.runs.Load() != 1 {
		t.Fatalf("job ran %d times, want exactly once", w.runs.Load())
	}
	if !info.Stage.Done {
		t.Fatal("Stage.Done false after completion")
	}

	tl, err := w.agent.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	resumed := false
	for _, ev := range tl.Events {
		if ev.Phase == obs.PhaseStage && strings.Contains(ev.Detail, "resuming") {
			resumed = true
		}
	}
	if !resumed {
		t.Fatalf("no stage resume event in trace: %+v", tl.Events)
	}
	// Re-sent bytes stay bounded: the meter counts every chunk payload the
	// site accepted, so a restart-from-zero strategy would read ≥ 2x.
	if got := w.site.StageBytesReceived(); got >= 2*int64(len(exec)) {
		t.Fatalf("site received %d bytes for a %d-byte file; transfer restarted instead of resuming", got, len(exec))
	}
}

// TestStageResumesAfterAgentCrash: an agent killed mid-transfer journals
// the acked offset in the job record; the reopened agent continues the
// push from there instead of byte zero, and the job runs exactly once.
func TestStageResumesAfterAgentCrash(t *testing.T) {
	w := newStageWorld(t, 2<<10, 1)
	exec := paddedProgram("task", 64<<10, 'q')

	// Slow each chunk down so the kill lands mid-transfer.
	w.faults.SetDelay(func(m string) time.Duration {
		if m == "gram.stage-chunk" {
			return 10 * time.Millisecond
		}
		return 0
	})

	id, err := w.agent.Submit(SubmitRequest{Owner: "u", Executable: exec})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until a partial offset is journaled, then kill the agent.
	deadline := time.Now().Add(8 * time.Second)
	for {
		info, err := w.agent.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Stage.Offset > 0 && !info.Stage.Done {
			break
		}
		if info.Stage.Done || time.Now().After(deadline) {
			t.Fatalf("never observed a partial journaled offset (stage=%+v)", info.Stage)
		}
		time.Sleep(2 * time.Millisecond)
	}
	w.agent.Close()
	w.faults.Clear()

	agent2, err := NewAgent(w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agent2.Close()
	info := waitAgentState(t, agent2, id, Completed)
	if !info.ExitOK || !info.Stage.Done {
		t.Fatalf("job after recovery: %+v", info)
	}
	if w.runs.Load() != 1 {
		t.Fatalf("job ran %d times, want exactly once", w.runs.Load())
	}
	tl, err := agent2.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	resumed := false
	for _, ev := range tl.Events {
		if ev.Phase == obs.PhaseStage && strings.Contains(ev.Detail, "resuming at") {
			resumed = true
		}
	}
	if !resumed {
		t.Fatalf("no resume-from-offset event after restart: %+v", tl.Events)
	}
	if got := w.site.StageBytesReceived(); got >= 2*int64(len(exec)) {
		t.Fatalf("site received %d bytes for a %d-byte file across the crash", got, len(exec))
	}
}

// TestStageCacheSharedAcrossJobs: sixteen jobs submitting the same binary
// transfer it once — one cache miss, fifteen hits, and the site receives
// exactly one file's worth of chunk payload.
func TestStageCacheSharedAcrossJobs(t *testing.T) {
	w := newStageWorld(t, 8<<10, 4)
	exec := paddedProgram("task", 32<<10, 's')

	// The first job populates the site cache. It runs long so the owner's
	// manager (and its health rows) stays alive while we inspect stats.
	first, err := w.agent.Submit(SubmitRequest{Owner: "u", Executable: exec, Args: []string{"5s"}})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, w.agent, first, Running)

	var ids []string
	for i := 0; i < 15; i++ {
		id, err := w.agent.Submit(SubmitRequest{Owner: "u", Executable: exec})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		info := waitAgentState(t, w.agent, id, Completed)
		if !info.Stage.CacheHit {
			t.Errorf("job %s did not record a cache hit", id)
		}
	}
	hits, misses := stageStatsSum(w.agent)
	if hits != 15 || misses != 1 {
		t.Fatalf("stage stats = %d hits / %d misses, want 15/1", hits, misses)
	}
	if got := w.site.StageBytesReceived(); got != int64(len(exec)) {
		t.Fatalf("site received %d chunk bytes, want exactly one file (%d)", got, len(exec))
	}
	if err := w.agent.Remove(first); err != nil {
		t.Fatal(err)
	}
}

// TestStageCacheKeyedByContent: two different binaries sharing a program
// name must not collide in the cache — each job's bytes are stored and
// served under their own content hash.
func TestStageCacheKeyedByContent(t *testing.T) {
	w := newStageWorld(t, 8<<10, 2)
	execA := paddedProgram("task", 16<<10, 'a')
	execB := paddedProgram("task", 16<<10, 'b')
	hashA, hashB := gram.HashExecutable(execA), gram.HashExecutable(execB)
	if hashA == hashB {
		t.Fatal("test bug: padded programs collide")
	}

	// Job A runs long so the manager's health rows stay alive while we
	// inspect the stats after job B.
	idA, err := w.agent.Submit(SubmitRequest{Owner: "u", Executable: execA, Args: []string{"5s"}})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, w.agent, idA, Running)
	idB, err := w.agent.Submit(SubmitRequest{Owner: "u", Executable: execB})
	if err != nil {
		t.Fatal(err)
	}
	infoB := waitAgentState(t, w.agent, idB, Completed)
	if infoB.Stage.CacheHit {
		t.Fatal("different binary under the same program name hit the cache")
	}
	hits, misses := stageStatsSum(w.agent)
	if hits != 0 || misses != 2 {
		t.Fatalf("stage stats = %d hits / %d misses, want 0/2", hits, misses)
	}
	// Both objects live in the site cache under their own hash.
	gc := gram.NewClient(nil, nil)
	defer gc.Close()
	for _, h := range []string{hashA, hashB} {
		present, _, err := gc.StageCheck(w.site.GatekeeperAddr(), h)
		if err != nil || !present {
			t.Fatalf("hash %s: present=%v err=%v", h[:12], present, err)
		}
	}
	if got := w.site.StageBytesReceived(); got != int64(len(execA)+len(execB)) {
		t.Fatalf("site received %d chunk bytes, want both files (%d)", got, len(execA)+len(execB))
	}
	if w.runs.Load() != 2 {
		t.Fatalf("runs = %d, want 2", w.runs.Load())
	}
	if err := w.agent.Remove(idA); err != nil {
		t.Fatal(err)
	}
}

// TestStageDisabledFallsBackToPull: with staging off, jobs run through the
// old pull path — no stage tasks, no cache traffic, still exactly once.
func TestStageDisabledFallsBackToPull(t *testing.T) {
	w := &stageWorld{runs: &atomic.Int64{}}
	site := newSite(t, "s", w.runs, t.TempDir(), "")
	t.Cleanup(site.Close)
	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
		Stage:    StageOptions{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	id, err := agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task")})
	if err != nil {
		t.Fatal(err)
	}
	info := waitAgentState(t, agent, id, Completed)
	if !info.ExitOK || info.Stage.Hash != "" {
		t.Fatalf("disabled staging left stage state: %+v", info.Stage)
	}
	if got := site.StageBytesReceived(); got != 0 {
		t.Fatalf("site received %d stage bytes with staging disabled", got)
	}
}

// TestStageUnreachableSiteFallsBack: staging against a site that never
// answers must not spin forever — after the attempt budget the job falls
// back to the submit path, whose retry cap holds it with a typed reason.
func TestStageUnreachableSiteFallsBack(t *testing.T) {
	runs := &atomic.Int64{}
	dead := newSite(t, "dead", runs, t.TempDir(), "")
	addr := dead.GatekeeperAddr()
	dead.Close()
	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(addr),
		Probe:    ProbeOptions{Interval: 20 * time.Millisecond},
		Retry:    RetryOptions{MaxSubmitRetries: 2},
		Breaker:  faultclass.BreakerConfig{Threshold: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	id, err := agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task")})
	if err != nil {
		t.Fatal(err)
	}
	info := waitAgentState(t, agent, id, Held)
	if !strings.Contains(info.HoldReason, "submission failed") {
		t.Fatalf("hold reason = %q", info.HoldReason)
	}
	if !info.Stage.Done {
		t.Fatal("staging never yielded to the submit path")
	}
}

// TestAgentIssuesNoSelfRPC: the agent fills and reads its own spool through
// the GASS server's local door. Over a whole Submit (executable and stdin)
// → run → Stdout/Stderr, the only requests its GASS server sees are the
// site's: the stdout stream coming home, and nothing else.
func TestAgentIssuesNoSelfRPC(t *testing.T) {
	w := newStageWorld(t, 8<<10, 2)
	w.agent.Close()
	var mu sync.Mutex
	seen := map[string]int{}
	gassFaults := &wire.Faults{}
	gassFaults.SetDelay(func(method string) time.Duration {
		mu.Lock()
		seen[method]++
		mu.Unlock()
		return 0
	})
	cfg := w.cfg
	cfg.StateDir = t.TempDir()
	cfg.Faults.GASS = gassFaults
	agent, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	exec := paddedProgram("task", 40<<10, 'z') // five staging chunks
	id, err := agent.Submit(SubmitRequest{Owner: "u", Executable: exec, Args: []string{"1ms"}, Stdin: []byte("input")})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := agent.Stdout(id); err != nil || len(out) != 0 {
		t.Fatalf("Stdout before the job ran = %q, %v; want empty", out, err)
	}
	waitAgentState(t, agent, id, Completed)
	out, err := agent.Stdout(id)
	if err != nil || !strings.HasPrefix(string(out), "task ok") {
		t.Fatalf("Stdout = %q, %v", out, err)
	}
	if errOut, err := agent.Stderr(id); err != nil || len(errOut) != 0 {
		t.Fatalf("Stderr = %q, %v", errOut, err)
	}

	mu.Lock()
	defer mu.Unlock()
	for method, n := range seen {
		// The executable was pushed and is in the site's cache; stdin is
		// the one file the site still pulls.
		if method != "gass.append" && method != "gass.read" {
			t.Errorf("agent's GASS server saw %d %s request(s)", n, method)
		}
	}
	if seen["gass.append"] == 0 {
		t.Error("stdout never streamed through the agent's GASS server: the counter is not wired")
	}
	if seen["gass.read"] > 1 {
		t.Errorf("%d gass.read requests for a 5-byte stdin", seen["gass.read"])
	}
}
