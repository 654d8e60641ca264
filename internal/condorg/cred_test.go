package condorg

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/gram"
	"condorg/internal/gsi"
	"condorg/internal/lrm"
	"condorg/internal/obs"
)

// newTestProxy mints a 12 h proxy for /O=Grid/CN=u under a fresh CA.
func newTestProxy(t *testing.T) *gsi.Credential {
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
	return proxy
}

// refreshesDelivered counts the successful cred-refresh events in a job's
// timeline, failing the test on any hold or release: an in-band refresh
// never parks the job.
func refreshesDelivered(t *testing.T, a *Agent, id string) int {
	t.Helper()
	tl, err := a.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range tl.Events {
		switch ev.Phase {
		case obs.PhaseCredRefresh:
			if ev.Class == "" {
				n++
			}
		case obs.PhaseHold, obs.PhaseRelease:
			t.Fatalf("job %s: hold/release around an in-band refresh: %+v", id, ev)
		}
	}
	return n
}

// waitCompletedUnheld waits for job id to complete and fails as soon as it
// is held, with the hold reason.
func waitCompletedUnheld(t *testing.T, a *Agent, id string, d time.Duration) {
	t.Helper()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		info, err := a.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case info.State == Completed:
			return
		case info.State == Held:
			t.Fatalf("job %s held: %s", id, info.HoldReason)
		case info.State.Terminal():
			t.Fatalf("job %s reached %v (err=%q)", id, info.State, info.Error)
		}
	}
	t.Fatalf("job %s did not complete within %v", id, d)
}

// A refreshed per-owner proxy reaches the running job in-band (one
// gram.batch-refresh-credential frame to its gatekeeper on the per-site
// pipeline) — no hold/release cycle, so the job keeps running through the
// renewal — and the refresh leaves the health table listing gatekeepers
// only.
func TestSetOwnerCredentialRedelegatesInBand(t *testing.T) {
	w := newWorld(t, 1)
	proxy := newTestProxy(t)

	id, err := w.agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"2s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, w.agent, id, Running)

	w.agent.SetOwnerCredential("u", proxy)
	if got := w.agent.OwnerCredential("u"); got != proxy {
		t.Fatalf("OwnerCredential(u) = %v, want the installed proxy", got)
	}
	if got := w.agent.OwnerCredential("other"); got != nil {
		t.Fatalf("another owner inherited u's proxy: %v", got)
	}

	waitFor(t, "the refresh to be delivered", 5*time.Second, func() bool {
		return refreshesDelivered(t, w.agent, id) > 0
	})
	// While the job still runs, every health row names a site's gatekeeper.
	rows := w.agent.PipelineHealth()
	if info, _ := w.agent.Status(id); info.State != Running {
		t.Fatalf("job left Running (%v) before the health check; lengthen it", info.State)
	}
	if len(rows) == 0 {
		t.Fatal("no health rows for a running job")
	}
	for _, r := range rows {
		if r.Site != w.sites[0].GatekeeperAddr() {
			t.Fatalf("health row for %q, not a gatekeeper (rows %+v)", r.Site, rows)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	info, err := w.agent.Wait(ctx, id)
	if err != nil || info.State != Completed {
		t.Fatalf("after refresh: %v %v (err=%q)", info.State, err, info.Error)
	}
	if n := refreshesDelivered(t, w.agent, id); n != 1 {
		t.Fatalf("%d successful cred-refresh events, want 1", n)
	}
}

// TestRefreshReachesJobWithDeadJobManager: a refresh issued while the job's
// JobManager is down reaches the job through the gatekeeper at once; the
// probe then restarts the daemon, which reads the refreshed proxy. The job is
// never held and runs once.
func TestRefreshReachesJobWithDeadJobManager(t *testing.T) {
	runs := &atomic.Int64{}
	site := newSite(t, "s", runs, t.TempDir(), "")
	t.Cleanup(site.Close)
	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(site.GatekeeperAddr()),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)

	id, err := agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"1500ms"}})
	if err != nil {
		t.Fatal(err)
	}
	info := waitAgentState(t, agent, id, Running)
	if err := site.CrashJobManager(info.Contact.JobID); err != nil {
		t.Fatal(err)
	}
	agent.SetOwnerCredential("u", newTestProxy(t))

	waitCompletedUnheld(t, agent, id, 10*time.Second)
	if n := refreshesDelivered(t, agent, id); n != 1 {
		t.Fatalf("%d successful cred-refresh events, want 1", n)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("program ran %d times, want 1", got)
	}
}

// TestRefreshWaitsOutPartition: a refresh issued while the site is
// partitioned is not a refusal — the site never heard it — so the agent
// waits the partition out (§4.2) and delivers after the heal instead of
// holding the job.
func TestRefreshWaitsOutPartition(t *testing.T) {
	runs := &atomic.Int64{}
	site := newSite(t, "s", runs, t.TempDir(), "")
	t.Cleanup(site.Close)
	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)

	id, err := agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"6s"}})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, agent, id, Running)
	site.Partition()
	agent.SetOwnerCredential("u", newTestProxy(t))
	time.Sleep(3 * time.Second)
	if info, _ := agent.Status(id); info.State == Held {
		t.Fatalf("job held during the partition: %s", info.HoldReason)
	}
	site.Heal()

	waitCompletedUnheld(t, agent, id, 20*time.Second)
	if n := refreshesDelivered(t, agent, id); n != 1 {
		t.Fatalf("%d successful cred-refresh events, want 1", n)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("program ran %d times, want 1", got)
	}
}

// TestRefreshToSiteThatLostTheJob: a site rebuilt on its old address with
// no record of the job answers the refresh with SiteLost. That is no
// refusal of the proxy: the obligation lapses, and the probe resubmits the
// job — with a fresh delegation — instead of the refresh holding it.
func TestRefreshToSiteThatLostTheJob(t *testing.T) {
	runs := &atomic.Int64{}
	old := newSite(t, "s", runs, t.TempDir(), "")
	addr := old.GatekeeperAddr()
	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(addr),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)

	id, err := agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"1s"}})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, agent, id, Running)
	old.Close()
	rebuilt := newSite(t, "s", runs, t.TempDir(), addr)
	t.Cleanup(rebuilt.Close)
	agent.SetOwnerCredential("u", newTestProxy(t))

	waitCompletedUnheld(t, agent, id, 10*time.Second)
	tl, err := agent.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	resubmitted := false
	for _, ev := range tl.Events {
		resubmitted = resubmitted || ev.Phase == obs.PhaseResubmit
	}
	if !resubmitted {
		t.Fatalf("the lost job completed without a resubmission: %+v", tl.Events)
	}
}

// TestRefreshIsBatched: re-delegating to N running jobs at one site costs
// ceil(N/maxBatch) gram.batch-refresh-credential frames at the gatekeeper.
func TestRefreshIsBatched(t *testing.T) {
	for _, n := range []int{1, 33} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			runs := &atomic.Int64{}
			gk := &verbCounts{}
			site := newHookedSite(t, "wisc", runs, n, gk.faults())
			// No probe tick during the test: callbacks report the jobs
			// running, and nothing else wakes the dispatcher while the
			// refresh flags go up.
			agent, err := NewAgent(AgentConfig{
				StateDir: t.TempDir(),
				Selector: StaticSelector(site.GatekeeperAddr()),
				Probe:    ProbeOptions{Interval: time.Minute},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(agent.Close)
			ids := make([]string, n)
			for i := range ids {
				if ids[i], err = agent.Submit(SubmitRequest{
					Owner: "u", Executable: gram.Program("task"), Args: []string{"5s", fmt.Sprint(i)},
				}); err != nil {
					t.Fatal(err)
				}
			}
			for _, id := range ids {
				waitAgentState(t, agent, id, Running)
			}

			gk.reset()
			agent.SetOwnerCredential("u", newTestProxy(t))
			for _, id := range ids {
				waitFor(t, "the refresh of "+id, 5*time.Second, func() bool {
					return refreshesDelivered(t, agent, id) == 1
				})
			}
			if got, want := gk.get("gram.batch-refresh-credential"), (n+maxBatch-1)/maxBatch; got != want {
				t.Fatalf("%d batch-refresh-credential frames for %d jobs, want %d", got, n, want)
			}
		})
	}
}

// TestRefreshedCredentialReachesOutputPush: §4.3 — a credential never
// strands a job. The job's first proxy expires after an in-band refresh;
// the agent then restarts on new ports, so the JobManager must dial the
// agent's new GASS server to stream the output. That dial authenticates
// with the refreshed proxy, not the expired one, and the whole stdout
// arrives.
func TestRefreshedCredentialReachesOutputPush(t *testing.T) {
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=CA", now, 48*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.IssueUser("/O=Grid/CN=u", now, 24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	const shortLife = 2 * time.Second
	short, err := gsi.NewProxy(user, now, shortLife)
	if err != nil {
		t.Fatal(err)
	}
	long, err := gsi.NewProxy(user, now, 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	runs := &atomic.Int64{}
	cluster, err := lrm.NewCluster(lrm.Config{Name: "s", Cpus: 4})
	if err != nil {
		t.Fatal(err)
	}
	site, err := gram.NewSite(gram.SiteConfig{
		Name:          "s",
		Anchor:        ca.Certificate(),
		Cluster:       cluster,
		Runtime:       buildRuntime(runs),
		StateDir:      t.TempDir(),
		CommitTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	cfg := AgentConfig{
		StateDir:   t.TempDir(),
		Credential: short,
		Delegate:   time.Hour, // capped at the short proxy's lifetime
		Selector:   StaticSelector(site.GatekeeperAddr()),
		Probe:      ProbeOptions{Interval: 40 * time.Millisecond},
	}
	agent, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"4s"}})
	if err != nil {
		agent.Close()
		t.Fatal(err)
	}
	waitAgentState(t, agent, id, Running)
	agent.SetOwnerCredential("u", long)
	waitFor(t, "the refresh to be delivered", 5*time.Second, func() bool {
		return refreshesDelivered(t, agent, id) > 0
	})
	// Restart once the first proxy is dead: the restarted agent serves
	// GASS on a new port, and recovery points the job's output at it.
	time.Sleep(time.Until(now.Add(shortLife + 200*time.Millisecond)))
	agent.Close()
	cfg.Credential = long
	agent, err = NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)

	waitCompletedUnheld(t, agent, id, 10*time.Second)
	waitFor(t, "the job's stdout", 5*time.Second, func() bool {
		out, err := agent.Stdout(id)
		return err == nil && string(out) == "task ok 4s\n"
	})
	if got := runs.Load(); got != 1 {
		t.Fatalf("program ran %d times, want 1", got)
	}
}

// MyProxyBinding resolves per-owner entries first, then the tenancy-wide
// default, and reports absence when neither exists.
func TestMyProxyBindingResolution(t *testing.T) {
	def := MyProxyBinding{Addr: "mp:9", User: "any", Pass: "p"}
	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector("gk:1"),
		Tenancy: TenancyOptions{
			MyProxy:        map[string]MyProxyBinding{"alice": {User: "alice", Pass: "a"}},
			MyProxyDefault: &def,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	if b, ok := agent.MyProxyBinding("alice"); !ok || b.User != "alice" || b.Addr != "" {
		t.Fatalf("alice binding = %+v ok=%v", b, ok)
	}
	if b, ok := agent.MyProxyBinding("bob"); !ok || b != def {
		t.Fatalf("bob binding = %+v ok=%v, want the default", b, ok)
	}
	bare, err := NewAgent(AgentConfig{StateDir: t.TempDir(), Selector: StaticSelector("gk:1")})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if _, ok := bare.MyProxyBinding("alice"); ok {
		t.Fatal("binding reported with none configured")
	}
}
