package condorg

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/gram"
	"condorg/internal/gsi"
	"condorg/internal/lrm"
	"condorg/internal/wire"
)

// The submit ladder and the lifetimes around it: what one warm job costs on
// the wire, and that the daemons serving it (GridManager on the agent,
// JobManager on the site) last as long as they are needed and no longer.

// verbCounts counts requests per verb as they arrive at a server's Delay
// hook (consulted once per request, hello included). It adds no delay
// except for the verbs in delay, which must be set before faults is called.
type verbCounts struct {
	mu    sync.Mutex
	n     map[string]int
	delay map[string]time.Duration
}

func (c *verbCounts) faults() *wire.Faults {
	f := &wire.Faults{}
	f.SetDelay(func(method string) time.Duration {
		c.mu.Lock()
		defer c.mu.Unlock()
		if c.n == nil {
			c.n = make(map[string]int)
		}
		c.n[method]++
		return c.delay[method]
	})
	return f
}

func (c *verbCounts) get(method string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[method]
}

// total counts every request the hook saw.
func (c *verbCounts) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.n {
		n += v
	}
	return n
}

func (c *verbCounts) reset() {
	c.mu.Lock()
	c.n = nil
	c.mu.Unlock()
}

// ladderWorld is one CA-authenticated site (so GRAM connections open with a
// wire.hello session handshake, as in any deployment) and an agent whose
// owner "u" runs under the agent credential.
type ladderWorld struct {
	site     *gram.Site
	siteDir  string
	gk       *verbCounts
	gkFaults *wire.Faults
	cbFaults *wire.Faults
	runs     *atomic.Int64
	cfg      AgentConfig
	agent    *Agent
}

func newLadderWorld(t *testing.T, probe time.Duration) *ladderWorld {
	t.Helper()
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=CA", now, 48*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.IssueUser("/O=Grid/CN=u", now, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxy, err := gsi.NewProxy(user, now, 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	w := &ladderWorld{
		siteDir: t.TempDir(), gk: &verbCounts{},
		cbFaults: &wire.Faults{}, runs: &atomic.Int64{},
	}
	w.gkFaults = w.gk.faults()
	cluster, err := lrm.NewCluster(lrm.Config{Name: "site", Cpus: 4})
	if err != nil {
		t.Fatal(err)
	}
	w.site, err = gram.NewSite(gram.SiteConfig{
		Name:             "site",
		Anchor:           ca.Certificate(),
		Cluster:          cluster,
		Runtime:          buildRuntime(w.runs),
		StateDir:         w.siteDir,
		CommitTimeout:    2 * time.Second,
		GatekeeperFaults: w.gkFaults,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.site.Close)
	w.cfg = AgentConfig{
		StateDir:   t.TempDir(),
		Credential: proxy,
		Selector:   StaticSelector(w.site.GatekeeperAddr()),
		Probe:      ProbeOptions{Interval: probe},
		Faults:     FaultOptions{Callback: w.cbFaults},
	}
	w.agent, err = NewAgent(w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.agent.Close() })
	return w
}

// runJob submits one short "task" job for owner u and waits it out.
func (w *ladderWorld) runJob(t *testing.T) string {
	t.Helper()
	id, err := w.agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"1ms"}})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, w.agent, id, Completed)
	return id
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, d time.Duration, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestSubmitLadderWarm: twenty jobs in a row from one owner to one site pay
// for the session handshake and the stage-check once, and for the two-phase
// commit every time — a batch-submit and a batch-commit of one per warm job.
func TestSubmitLadderWarm(t *testing.T) {
	// The probe interval is far longer than a job, so the queue drains and
	// refills within it twenty times over.
	w := newLadderWorld(t, 2*time.Second)
	const jobs = 20
	for i := 0; i < jobs; i++ {
		w.runJob(t)
	}
	for verb, want := range map[string]int{
		wire.HelloMethod:    1,
		"gram.stage-check":  1,
		"gram.batch-submit": jobs,
		"gram.batch-commit": jobs,
	} {
		if got := w.gk.get(verb); got != want {
			t.Errorf("%s: %d requests at the gatekeeper over %d jobs, want %d", verb, got, jobs, want)
		}
	}
	if w.runs.Load() != jobs {
		t.Fatalf("program ran %d times for %d jobs", w.runs.Load(), jobs)
	}
	// Every job after the first is a cache hit in the owner's health row,
	// whether a stage-check or the agent's own memory decided it.
	if hits, misses := stageStatsSum(w.agent); hits != jobs-1 || misses != 1 {
		t.Fatalf("stage hits/misses = %d/%d, want %d/1", hits, misses, jobs-1)
	}
}

// TestStageKnownStale: the agent's stage-known set is a hint. When the site
// loses the cached executable behind the agent's back, the next job skips
// the stage-check as usual, the site pulls the bytes through GASS at commit
// time, and the job completes exactly once.
func TestStageKnownStale(t *testing.T) {
	w := newLadderWorld(t, 40*time.Millisecond)
	exe := paddedProgram("task", 4096, 's')
	submit := func() string {
		id, err := w.agent.Submit(SubmitRequest{Owner: "u", Executable: exe, Args: []string{"1ms"}})
		if err != nil {
			t.Fatal(err)
		}
		waitAgentState(t, w.agent, id, Completed)
		return id
	}
	submit()
	object := filepath.Join(w.siteDir, "stage-cache", "objects", gram.HashExecutable(exe))
	if err := os.Remove(object); err != nil {
		t.Fatalf("the first job should have left the executable in the site cache: %v", err)
	}
	_, missesBefore := w.site.StageCacheStats()
	id := submit()
	if got := w.gk.get("gram.stage-check"); got != 1 {
		t.Fatalf("gram.stage-check sent %d times; the second job should have trusted the stage-known set", got)
	}
	if _, misses := w.site.StageCacheStats(); misses != missesBefore+1 {
		t.Fatalf("site cache misses %d → %d, want one GASS pull for the wiped entry", missesBefore, misses)
	}
	if w.runs.Load() != 2 {
		t.Fatalf("program ran %d times for 2 jobs", w.runs.Load())
	}
	// The output push and the Done callback leave the site side by side.
	waitFor(t, "the stdout of the job that pulled", 5*time.Second, func() bool {
		out, err := w.agent.Stdout(id)
		return err == nil && strings.Contains(string(out), "task ok")
	})
	if _, err := os.Stat(object); err != nil {
		t.Fatalf("the pull should have re-cached the executable: %v", err)
	}
}

// TestGridManagerRetiresAtProbePace: an idle manager retires on the first
// probe tick that finds it idle since the previous one — never sooner than
// one interval after its last job finished, within two.
func TestGridManagerRetiresAtProbePace(t *testing.T) {
	const interval = 200 * time.Millisecond
	w := newLadderWorld(t, interval)
	id := w.runJob(t)
	info, err := w.agent.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the idle GridManager to retire", 5*time.Second, func() bool {
		return w.agent.ActiveGridManagers() == 0
	})
	idle := time.Since(info.FinishedAt)
	if idle < interval {
		t.Fatalf("manager retired %v after its last job finished, before one probe interval (%v) had passed", idle, interval)
	}
	// Two intervals, plus slack for a loaded test machine.
	if limit := 2*interval + 250*time.Millisecond; idle > limit {
		t.Fatalf("manager took %v to retire, want within two probe intervals (%v)", idle, 2*interval)
	}
	// A new submission spawns a fresh manager, with a fresh session.
	w.runJob(t)
	if got := w.gk.get(wire.HelloMethod); got != 2 {
		t.Fatalf("%d gatekeeper handshakes, want 2 (one per manager lifetime)", got)
	}
}

// openFDs counts this process's open descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd on this platform: %v", err)
	}
	return len(ents)
}

// fdTargets lists this process's open descriptors with their readlink
// targets, one per line.
func fdTargets() string {
	ents, _ := os.ReadDir("/proc/self/fd")
	var sb strings.Builder
	for _, e := range ents {
		target, _ := os.Readlink(filepath.Join("/proc/self/fd", e.Name()))
		fmt.Fprintf(&sb, "%s -> %s\n", e.Name(), target)
	}
	return sb.String()
}

// TestJobManagerExits: a JobManager's callback and GASS connections and
// its loop go away once its job is over and the agent knows it.
func TestJobManagerExits(t *testing.T) {
	t.Run("flat after many jobs", func(t *testing.T) {
		w := newLadderWorld(t, 2*time.Second)
		jobs := 200
		if testing.Short() {
			jobs = 50
		}
		settle := func() (fds, goroutines int) {
			waitFor(t, "every JobManager to exit", 5*time.Second, func() bool {
				return w.site.LiveJobManagers() == 0
			})
			// Connections the JobManagers held are closed from their side;
			// the peers' read loops notice in their own time. Sample until
			// two readings 50 ms apart agree, for at most 5 s.
			fds, goroutines = openFDs(t), runtime.NumGoroutine()
			for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
				time.Sleep(50 * time.Millisecond)
				f, g := openFDs(t), runtime.NumGoroutine()
				if f == fds && g == goroutines {
					break
				}
				fds, goroutines = f, g
			}
			return fds, goroutines
		}
		for i := 0; i < 10; i++ {
			w.runJob(t)
		}
		fds0, gor0 := settle()
		for i := 0; i < jobs; i++ {
			w.runJob(t)
		}
		fds1, gor1 := settle()
		// A leak of one descriptor or goroutine per job would show as +jobs.
		// A count still falling gets up to 5 s more to come within bound.
		for deadline := time.Now().Add(5 * time.Second); fds1 > fds0+5 && time.Now().Before(deadline); {
			time.Sleep(50 * time.Millisecond)
			fds1 = openFDs(t)
		}
		if fds1 > fds0+5 {
			t.Errorf("open descriptors %d → %d over %d completed jobs; open now:\n%s", fds0, fds1, jobs, fdTargets())
		}
		if gor1 > gor0+5 {
			t.Errorf("goroutines %d → %d over %d completed jobs", gor0, gor1, jobs)
		}
		if int(w.runs.Load()) != jobs+10 {
			t.Fatalf("program ran %d times for %d jobs", w.runs.Load(), jobs+10)
		}
	})

	t.Run("lost ack costs no restart", func(t *testing.T) {
		w := newLadderWorld(t, 40*time.Millisecond)
		// The Done callback never arrives, and the probe reply that carries
		// Done is lost after the gatekeeper has sent it: the JobManager
		// believes the agent knows and exits; the agent knows nothing.
		w.cbFaults.Set(func(string) bool { return true }, nil)
		w.gkFaults.Set(nil, func(m string) bool { return m == "jm.batch-status" })
		id, err := w.agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"1ms"}})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the JobManager to exit on the lost status reply", 10*time.Second, func() bool {
			return w.runs.Load() == 1 && w.site.LiveJobManagers() == 0
		})
		if info, _ := w.agent.Status(id); info.State.Terminal() {
			t.Fatalf("agent already holds %v; the test needs it ignorant", info.State)
		}
		// The submit machine restarts; the network heals.
		w.agent.Close()
		w.cbFaults.Clear()
		w.gkFaults.Set(nil, nil)
		w.agent, err = NewAgent(w.cfg)
		if err != nil {
			t.Fatal(err)
		}
		info := waitAgentState(t, w.agent, id, Completed)
		// The gatekeeper answers for a job whose JobManager has exited, so
		// Done is learned without starting a replacement.
		for _, ev := range info.Log {
			if ev.Code == "JM_RESTARTED" {
				t.Errorf("Done cost a jm-restart; log: %+v", info.Log)
			}
		}
		if n := w.gk.get("gram.jm-restart"); n != 0 {
			t.Errorf("%d gram.jm-restart requests, want 0", n)
		}
		if w.runs.Load() != 1 {
			t.Fatalf("program ran %d times, want exactly once", w.runs.Load())
		}
		if n := w.site.LiveJobManagers(); n != 0 {
			t.Fatalf("%d live JobManagers after the agent learned Done, want 0", n)
		}
	})

	t.Run("unacknowledged callback keeps it alive", func(t *testing.T) {
		// Long probe interval: only the callback can tell the agent.
		w := newLadderWorld(t, time.Minute)
		w.cbFaults.Set(nil, func(string) bool { return true })
		id, err := w.agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"1ms"}})
		if err != nil {
			t.Fatal(err)
		}
		// The agent processes the Done callback; only its reply is lost.
		waitAgentState(t, w.agent, id, Completed)
		// Wait out the JobManager's whole callback attempt (the request and
		// one retry, a second of timeout each): a failed ack is no ack.
		// Under -short only that sending alone is not taken for one.
		attempt := 2300 * time.Millisecond
		if testing.Short() {
			attempt = 300 * time.Millisecond
		}
		time.Sleep(attempt)
		if n := w.site.LiveJobManagers(); n != 1 {
			t.Fatalf("%d live JobManagers after a callback whose ack was lost, want 1", n)
		}
		// A status reply that carries Done is as good as the ack.
		w.cbFaults.Clear()
		client := gram.NewClient(w.cfg.Credential, nil)
		defer client.Close()
		info, err := w.agent.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		res, err := client.BatchStatus(w.site.GatekeeperAddr(), []string{info.Contact.JobID})
		if err != nil || res[0].Err != nil || res[0].Status.State != gram.StateDone || !res[0].JMAlive {
			t.Fatalf("batch-status = %+v, %v", res, err)
		}
		waitFor(t, "the JobManager to exit once a status reply carried Done", 5*time.Second, func() bool {
			return w.site.LiveJobManagers() == 0
		})
	})
}

// TestCallbacksShareOneConnection: a site's JobManagers report to the agent
// over one callback connection and push output and pull executables over
// one GASS connection, however many of its jobs are live, and both
// connections outlast a lull in which every JobManager has exited: two
// bursts cost one accept at each of the agent's listeners. The site's
// Close closes them.
func TestCallbacksShareOneConnection(t *testing.T) {
	var cbAccepts, gassAccepts atomic.Int64
	counter := func(n *atomic.Int64) *wire.Faults {
		return &wire.Faults{RefuseConn: func() bool {
			n.Add(1)
			return false
		}}
	}
	site := newSite(t, "s", &atomic.Int64{}, t.TempDir(), "")
	t.Cleanup(site.Close)
	a, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: time.Minute}, // only callbacks report
		// The site pulls each executable through GASS, beside the pushes.
		Stage:  StageOptions{Disabled: true},
		Faults: FaultOptions{Callback: counter(&cbAccepts), GASS: counter(&gassAccepts)},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	const n = 16
	burst := func(exe []byte) {
		ids := make([]string, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := range ids {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ids[i], errs[i] = a.Submit(SubmitRequest{Owner: "u", Executable: exe, Args: []string{"200ms"}})
			}(i)
		}
		wg.Wait()
		for i, id := range ids {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			waitAgentState(t, a, id, Completed)
		}
		waitFor(t, "every JobManager to exit", 5*time.Second, func() bool {
			return site.LiveJobManagers() == 0
		})
	}
	burst(gram.Program("task"))
	// The lull: no JobManager is left, and the connections stay.
	time.Sleep(50 * time.Millisecond)
	if got, gassGot := a.cbSrv.Conns(), a.gassS.Conns(); got != 1 || gassGot != 1 {
		t.Fatalf("between bursts the agent holds %d callback and %d GASS connections from the site, want 1 and 1", got, gassGot)
	}
	burst(paddedProgram("task", 4096, 'b'))
	if got, gassGot := cbAccepts.Load(), gassAccepts.Load(); got != 1 || gassGot != 1 {
		t.Fatalf("the agent accepted %d callback and %d GASS connections from one site over two bursts of %d jobs, want 1 and 1", got, gassGot, n)
	}
	site.Close()
	waitFor(t, "the site's connections to close with it", 5*time.Second, func() bool {
		return a.cbSrv.Conns() == 0 && a.gassS.Conns() == 0
	})
}

// TestSessionOutlivesManager: owners sharing a credential share one
// authenticated gatekeeper session, which outlives any one of their
// managers. A retiring manager leaves it to the others; an owner switched to
// its own proxy handshakes once, alone; the session closes when the last
// manager holding it retires, so the next manager handshakes again.
func TestSessionOutlivesManager(t *testing.T) {
	w := newLadderWorld(t, 50*time.Millisecond)
	hellos := func() int { return w.gk.get(wire.HelloMethod) }
	submit := func(owner, d string) string {
		id, err := w.agent.Submit(SubmitRequest{Owner: owner, Executable: gram.Program("task"), Args: []string{d}})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	live := func(owner string) bool {
		w.agent.mu.Lock()
		defer w.agent.mu.Unlock()
		gm := w.agent.managers[owner]
		return gm != nil && !gm.done()
	}
	// B's job outlives everything A does below.
	b := submit("B", "3s")
	waitAgentState(t, w.agent, submit("A", "1ms"), Completed)
	if got := hellos(); got != 1 {
		t.Fatalf("%d gatekeeper handshakes for two owners under one credential, want 1", got)
	}
	waitFor(t, "A's idle manager to retire", 5*time.Second, func() bool { return !live("A") })
	if !live("B") {
		t.Fatal("B's manager retired with its job still running")
	}
	waitAgentState(t, w.agent, submit("A", "1ms"), Completed)
	if got := hellos(); got != 1 {
		t.Fatalf("A's second manager made %d handshakes, want none: B's manager holds the session", got-1)
	}

	// A switches to its own proxy while its manager runs a job: A
	// handshakes once under it, B keeps the session it has.
	proxy, err := gsi.NewProxy(w.cfg.Credential, time.Now(), 6*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	a := submit("A", "300ms")
	waitFor(t, "A's job to be submitted", 5*time.Second, func() bool {
		info, err := w.agent.Status(a)
		return err == nil && info.Contact.JobID != ""
	})
	w.agent.SetOwnerCredential("A", proxy)
	waitAgentState(t, w.agent, a, Completed)
	if got := hellos(); got != 2 {
		t.Fatalf("%d gatekeeper handshakes after A's switch, want 2: one for A's proxy, none for B", got)
	}
	waitAgentState(t, w.agent, b, Completed)
	waitFor(t, "both managers to retire", 5*time.Second, func() bool {
		return w.agent.ActiveGridManagers() == 0
	})
	if got := hellos(); got != 2 {
		t.Fatalf("%d gatekeeper handshakes, want 2", got)
	}
	// The last retirement closed the shared session: the next manager
	// under the agent credential handshakes afresh.
	waitAgentState(t, w.agent, submit("B", "1ms"), Completed)
	if got := hellos(); got != 3 {
		t.Fatalf("%d gatekeeper handshakes after both managers retired, want 3: the session outlived its last holder", got)
	}
}
