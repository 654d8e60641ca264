package condorg

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/gram"
	"condorg/internal/lrm"
)

// testWorld is an agent plus N execution sites.
type testWorld struct {
	agent *Agent
	sites []*gram.Site
	runs  *atomic.Int64 // total executions of the "task" program
	dir   string        // agent state dir (for crash/recovery tests)
}

func buildRuntime(runs *atomic.Int64) *gram.FuncRuntime {
	rt := gram.NewFuncRuntime()
	rt.Register("task", func(ctx context.Context, args []string, _ []byte, stdout, _ io.Writer, _ map[string]string) error {
		runs.Add(1)
		d := 10 * time.Millisecond
		if len(args) > 0 {
			if p, err := time.ParseDuration(args[0]); err == nil {
				d = p
			}
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
		fmt.Fprintf(stdout, "task ok %s\n", strings.Join(args, " "))
		return nil
	})
	rt.Register("fail", func(_ context.Context, _ []string, _ []byte, _, stderr io.Writer, _ map[string]string) error {
		fmt.Fprintln(stderr, "boom")
		return errors.New("application exit 1")
	})
	return rt
}

func newSite(t *testing.T, name string, runs *atomic.Int64, stateDir, addr string) *gram.Site {
	t.Helper()
	cluster, err := lrm.NewCluster(lrm.Config{Name: name, Cpus: 4})
	if err != nil {
		t.Fatal(err)
	}
	site, err := gram.NewSite(gram.SiteConfig{
		Name:           name,
		Cluster:        cluster,
		Runtime:        buildRuntime(runs),
		StateDir:       stateDir,
		CommitTimeout:  2 * time.Second,
		GatekeeperAddr: addr,
	})
	if err != nil {
		t.Fatal(err)
	}
	return site
}

func newWorld(t *testing.T, numSites int) *testWorld {
	t.Helper()
	w := &testWorld{runs: &atomic.Int64{}, dir: t.TempDir()}
	var gks []string
	for i := 0; i < numSites; i++ {
		site := newSite(t, fmt.Sprintf("site%d", i), w.runs, t.TempDir(), "")
		t.Cleanup(site.Close)
		w.sites = append(w.sites, site)
		gks = append(gks, site.GatekeeperAddr())
	}
	agent, err := NewAgent(AgentConfig{
		StateDir: w.dir,
		Selector: &RoundRobinSelector{Sites: gks},
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)
	w.agent = agent
	return w
}

func waitAgentState(t *testing.T, a *Agent, id string, want JobState) JobInfo {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		info, err := a.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State == want {
			return info
		}
		if info.State.Terminal() && info.State != want {
			t.Fatalf("job %s reached %v (err=%q), want %v", id, info.State, info.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	info, _ := a.Status(id)
	t.Fatalf("job %s never reached %v (now %v, err=%q, log=%v)", id, want, info.State, info.Error, info.Log)
	return JobInfo{}
}

// waitMail returns owner's mailbox once it holds a message: the agent
// notifies after it has journaled the state a test just waited for.
func waitMail(a *Agent, owner string) []Mail {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if msgs := a.Mailbox().Messages(owner); len(msgs) > 0 {
			return msgs
		}
	}
	return a.Mailbox().Messages(owner)
}

func TestSubmitRunComplete(t *testing.T) {
	w := newWorld(t, 1)
	id, err := w.agent.Submit(SubmitRequest{
		Owner:      "jfrey",
		Executable: gram.Program("task"),
		Args:       []string{"20ms", "alpha"},
	})
	if err != nil {
		t.Fatal(err)
	}
	info := waitAgentState(t, w.agent, id, Completed)
	if !info.ExitOK {
		t.Fatal("ExitOK false")
	}
	// Streamed stdout reached the submit machine.
	deadline := time.Now().Add(2 * time.Second)
	for {
		out, err := w.agent.Stdout(id)
		if err == nil && strings.Contains(string(out), "task ok 20ms alpha") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stdout = %q err=%v", out, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// User log records the full history.
	log, _ := w.agent.UserLog(id)
	var codes []string
	for _, e := range log {
		codes = append(codes, e.Code)
	}
	joined := strings.Join(codes, ",")
	for _, want := range []string{"SUBMIT", "GRID_SUBMIT", "EXECUTE", "TERMINATED"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("user log %v missing %s", codes, want)
		}
	}
	// Completion notification was delivered.
	if msgs := waitMail(w.agent, "jfrey"); len(msgs) != 1 || !strings.Contains(msgs[0].Subject, "completed") {
		t.Fatalf("mailbox = %+v", msgs)
	}
	if w.runs.Load() != 1 {
		t.Fatalf("program ran %d times, want exactly once", w.runs.Load())
	}
}

func TestGridManagerRetiresWhenQueueDrains(t *testing.T) {
	w := newWorld(t, 1)
	id, _ := w.agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task")})
	waitAgentState(t, w.agent, id, Completed)
	deadline := time.Now().Add(3 * time.Second)
	for w.agent.ActiveGridManagers() != 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := w.agent.ActiveGridManagers(); n != 0 {
		t.Fatalf("%d GridManagers still alive after queue drained", n)
	}
	// A new submission spawns a fresh manager.
	id2, _ := w.agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task")})
	waitAgentState(t, w.agent, id2, Completed)
}

func TestPerUserGridManagers(t *testing.T) {
	w := newWorld(t, 2)
	var ids []string
	for _, owner := range []string{"alice", "bob", "alice"} {
		id, err := w.agent.Submit(SubmitRequest{
			Owner: owner, Executable: gram.Program("task"), Args: []string{"200ms"},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	deadline := time.Now().Add(2 * time.Second)
	for w.agent.ActiveGridManagers() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := w.agent.ActiveGridManagers(); n != 2 {
		t.Fatalf("managers = %d, want one per user (2)", n)
	}
	for _, id := range ids {
		waitAgentState(t, w.agent, id, Completed)
	}
}

func TestApplicationFailureIsFinal(t *testing.T) {
	w := newWorld(t, 1)
	id, _ := w.agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("fail")})
	info := waitAgentState(t, w.agent, id, Failed)
	if info.Resubmits != 0 {
		t.Fatalf("application failure was resubmitted %d times", info.Resubmits)
	}
	if !strings.Contains(info.Error, "application exit 1") {
		t.Fatalf("error = %q", info.Error)
	}
	if msgs := waitMail(w.agent, "u"); len(msgs) != 1 || !strings.Contains(msgs[0].Subject, "failed") {
		t.Fatalf("mailbox = %+v", msgs)
	}
}

func TestHoldAndRelease(t *testing.T) {
	w := newWorld(t, 1)
	id, _ := w.agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"5s"},
	})
	waitAgentState(t, w.agent, id, Running)
	if err := w.agent.Hold(id, "credentials expired"); err != nil {
		t.Fatal(err)
	}
	info, _ := w.agent.Status(id)
	if info.State != Held || info.HoldReason != "credentials expired" {
		t.Fatalf("after hold: %+v", info)
	}
	// Held jobs do not finish on their own.
	time.Sleep(150 * time.Millisecond)
	if info, _ := w.agent.Status(id); info.State != Held {
		t.Fatalf("held job moved to %v", info.State)
	}
	if err := w.agent.Release(id); err != nil {
		t.Fatal(err)
	}
	// After release the job runs afresh (fast args this time would need a
	// new submit; the same 5s task restarts — just check it reaches
	// Running again).
	waitAgentState(t, w.agent, id, Running)
	w.agent.Remove(id)
}

func TestRemove(t *testing.T) {
	w := newWorld(t, 1)
	id, _ := w.agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"5s"},
	})
	waitAgentState(t, w.agent, id, Running)
	if err := w.agent.Remove(id); err != nil {
		t.Fatal(err)
	}
	info, _ := w.agent.Status(id)
	if info.State != Removed {
		t.Fatalf("state = %v", info.State)
	}
	if err := w.agent.Remove(id); err != nil {
		t.Fatal("second remove should be nil")
	}
}

func TestAgentRestartsCrashedJobManager(t *testing.T) {
	// §4.2 failure type 1, end to end through the agent: no user action.
	w := newWorld(t, 1)
	id, _ := w.agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"400ms"},
	})
	info := waitAgentState(t, w.agent, id, Running)
	if err := w.sites[0].CrashJobManager(info.Contact.JobID); err != nil {
		t.Fatal(err)
	}
	info = waitAgentState(t, w.agent, id, Completed)
	log := fmt.Sprint(info.Log)
	if !strings.Contains(log, "JM_RESTARTED") && !strings.Contains(log, "RECONNECTED") {
		t.Fatalf("no restart recorded in user log: %v", info.Log)
	}
	if w.runs.Load() != 1 {
		t.Fatalf("program ran %d times across JM crash, want exactly once", w.runs.Load())
	}
}

// TestCallbackFromAnotherGatekeeperIgnored: job IDs are only unique per
// site, so a callback carrying the live job's ID but stamped by another
// gatekeeper — a late report from an incarnation elsewhere — must not move
// the job. The same report from the job's own gatekeeper does.
func TestCallbackFromAnotherGatekeeperIgnored(t *testing.T) {
	w := newWorld(t, 1)
	id, err := w.agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"10s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	info := waitAgentState(t, w.agent, id, Running)
	callback := func(gk string) {
		t.Helper()
		body, err := json.Marshal(gram.StatusInfo{
			JobID: info.Contact.JobID, GatekeeperAddr: gk, State: gram.StateDone, ExitOK: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.agent.handleCallback("", body); err != nil {
			t.Fatal(err)
		}
	}

	callback("127.0.0.1:1")
	if got, _ := w.agent.Status(id); got.State != Running {
		t.Fatalf("a callback from another gatekeeper moved the job to %v", got.State)
	}
	callback(info.Contact.GatekeeperAddr)
	if got, _ := w.agent.Status(id); got.State != Completed {
		t.Fatalf("a callback from the job's own gatekeeper left it %v", got.State)
	}
}

func TestAgentSurvivesGatekeeperMachineCrash(t *testing.T) {
	// §4.2 failure type 2.
	w := newWorld(t, 1)
	id, _ := w.agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"300ms"},
	})
	waitAgentState(t, w.agent, id, Running)
	w.sites[0].CrashGatekeeperMachine()
	// The agent marks the job disconnected while the machine is down.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if info, _ := w.agent.Status(id); info.Disconnected {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if info, _ := w.agent.Status(id); !info.Disconnected {
		t.Fatal("agent never noticed the machine crash")
	}
	time.Sleep(200 * time.Millisecond) // job completes while machine is down
	if err := w.sites[0].RestartGatekeeperMachine(); err != nil {
		t.Fatal(err)
	}
	info := waitAgentState(t, w.agent, id, Completed)
	if w.runs.Load() != 1 {
		t.Fatalf("program ran %d times across machine crash", w.runs.Load())
	}
	_ = info
}

func TestAgentWaitsOutNetworkPartition(t *testing.T) {
	// §4.2 failure type 4. The job outlasts the probe ladder (~1.4 s of
	// timeouts), so it is still running when the partition is detected: the
	// site's callbacks are outbound connections the simulated partition
	// does not cut, and a job that finishes meanwhile is simply done.
	w := newWorld(t, 1)
	id, _ := w.agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"3s"},
	})
	waitAgentState(t, w.agent, id, Running)
	w.sites[0].Partition()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if info, _ := w.agent.Status(id); info.Disconnected {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(150 * time.Millisecond)
	w.sites[0].Heal()
	info := waitAgentState(t, w.agent, id, Completed)
	if w.runs.Load() != 1 {
		t.Fatalf("program ran %d times across partition", w.runs.Load())
	}
	log := fmt.Sprint(info.Log)
	if !strings.Contains(log, "DISCONNECTED") {
		t.Fatalf("partition not recorded: %v", info.Log)
	}
}

func TestAgentCrashRecovery(t *testing.T) {
	// §4.2 failure type 3: the submit machine (agent) crashes and
	// restarts; jobs recover from the persistent queue and complete
	// exactly once.
	runs := &atomic.Int64{}
	site := newSite(t, "s", runs, t.TempDir(), "")
	defer site.Close()
	dir := t.TempDir()
	a1, err := NewAgent(AgentConfig{
		StateDir: dir,
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := a1.Submit(SubmitRequest{
			Owner: "u", Executable: gram.Program("task"), Args: []string{"400ms", fmt.Sprint(i)},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	waitAgentState(t, a1, ids[0], Running)
	a1.Close() // CRASH of the submit machine

	a2, err := NewAgent(AgentConfig{
		StateDir: dir,
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	for _, id := range ids {
		info := waitAgentState(t, a2, id, Completed)
		if !info.ExitOK {
			t.Fatalf("job %s not ok after recovery", id)
		}
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("programs ran %d times across agent crash, want exactly 3", got)
	}
	// Output is retrievable through the NEW agent (URL files were
	// rewritten to the new GASS address).
	deadline := time.Now().Add(2 * time.Second)
	for {
		out, err := a2.Stdout(ids[0])
		if err == nil && strings.Contains(string(out), "task ok") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stdout after recovery = %q err=%v", out, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestResubmissionAfterSiteLosesJob(t *testing.T) {
	// A full site restart (interface machine AND cluster) loses running
	// jobs; the site reports "lost by site restart" and the agent
	// resubmits automatically.
	runs := &atomic.Int64{}
	siteState := t.TempDir()
	site := newSite(t, "flaky", runs, siteState, "")
	addr := site.GatekeeperAddr()

	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(addr),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
		Retry:    RetryOptions{MaxResubmits: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	id, _ := agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"5s"},
	})
	waitAgentState(t, agent, id, Running)

	// Full site power cycle on the same address.
	site.Close()
	site2 := newSite(t, "flaky", runs, siteState, addr)
	defer site2.Close()

	// Wait for the agent to notice the loss and resubmit.
	deadline := time.Now().Add(8 * time.Second)
	for {
		info, _ := agent.Status(id)
		if info.Resubmits >= 1 {
			break
		}
		if info.State.Terminal() {
			t.Fatalf("job went terminal instead of resubmitting: %+v", info)
		}
		if time.Now().After(deadline) {
			t.Fatalf("no resubmission recorded: %+v", info)
		}
		time.Sleep(10 * time.Millisecond)
	}
	waitAgentState(t, agent, id, Running)
	agent.Remove(id)
}

func TestSelectorSpreadsJobs(t *testing.T) {
	w := newWorld(t, 3)
	var ids []string
	for i := 0; i < 6; i++ {
		id, _ := w.agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task")})
		ids = append(ids, id)
	}
	sitesUsed := map[string]bool{}
	for _, id := range ids {
		info := waitAgentState(t, w.agent, id, Completed)
		sitesUsed[info.Site] = true
	}
	if len(sitesUsed) != 3 {
		t.Fatalf("round robin used %d sites, want 3", len(sitesUsed))
	}
}

func TestSubmitValidation(t *testing.T) {
	a, err := NewAgent(AgentConfig{StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.Submit(SubmitRequest{Executable: []byte("x")}); err == nil {
		t.Fatal("submit without site or selector succeeded")
	}
	if _, err := a.Status("nope"); err == nil {
		t.Fatal("status of unknown job succeeded")
	}
	if err := a.Hold("nope", "r"); err == nil {
		t.Fatal("hold of unknown job succeeded")
	}
	if err := a.Release("nope"); err == nil {
		t.Fatal("release of unknown job succeeded")
	}
	if err := a.Remove("nope"); err == nil {
		t.Fatal("remove of unknown job succeeded")
	}
}

func TestWaitAllAndWait(t *testing.T) {
	w := newWorld(t, 1)
	id, _ := w.agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task")})
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	info, err := w.agent.Wait(ctx, id)
	if err != nil || info.State != Completed {
		t.Fatalf("wait: %v %v", info.State, err)
	}
	if err := w.agent.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	// Wait on a cancelled context returns promptly.
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	id2, _ := w.agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"1s"}})
	if _, err := w.agent.Wait(cancelled, id2); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	w.agent.Remove(id2)
}

func TestWaitWakesOnStateEvents(t *testing.T) {
	// Wait and WaitAll are event-driven: they must wake on the state
	// change itself, without an agent poll loop. Use a job that would
	// linger for minutes so only the event can end the wait.
	w := newWorld(t, 1)
	id, err := w.agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"10m"},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, w.agent, id, Running)

	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	done := make(chan JobInfo, 1)
	go func() {
		info, err := w.agent.Wait(ctx, id)
		if err != nil {
			t.Errorf("wait: %v", err)
		}
		done <- info
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter block
	if err := w.agent.Remove(id); err != nil {
		t.Fatal(err)
	}
	select {
	case info := <-done:
		if info.State != Removed {
			t.Fatalf("woke with state %v, want removed", info.State)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not wake on Remove")
	}

	// WaitAll treats held jobs as settled: holding the only live job must
	// wake a blocked WaitAll.
	id2, err := w.agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"10m"},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, w.agent, id2, Running)
	allDone := make(chan error, 1)
	go func() { allDone <- w.agent.WaitAll(ctx) }()
	time.Sleep(50 * time.Millisecond)
	if err := w.agent.Hold(id2, "parked by test"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-allDone:
		if err != nil {
			t.Fatalf("waitall: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitAll did not wake on Hold")
	}
	w.agent.Remove(id2)
}

func TestHeldJobReleasedAfterRestart(t *testing.T) {
	// A job held across an agent restart keeps its spec in the queue; its
	// gass:// staging URLs must be rewritten to the new agent's address at
	// recovery, or a later Release resubmits against the dead old port.
	runs := &atomic.Int64{}
	site := newSite(t, "s", runs, t.TempDir(), "")
	defer site.Close()
	dir := t.TempDir()
	a1, err := NewAgent(AgentConfig{
		StateDir: dir,
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := a1.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"10m", "held"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a1.Hold(id, "held before crash"); err != nil {
		t.Fatal(err)
	}
	a1.Close() // CRASH: the new agent's GASS server comes up on a new port

	a2, err := NewAgent(AgentConfig{
		StateDir: dir,
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	info, err := a2.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != Held {
		t.Fatalf("recovered state = %v, want Held", info.State)
	}
	if err := a2.Release(id); err != nil {
		t.Fatal(err)
	}
	// The released job must stage in from the restarted agent and run; the
	// 10m task reaching Running proves stage-in used the rewritten URLs.
	waitAgentState(t, a2, id, Running)
	if err := a2.Remove(id); err != nil {
		t.Fatal(err)
	}
}
