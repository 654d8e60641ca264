package condorg

import (
	"context"
	"io"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/gram"
	"condorg/internal/lrm"
	"condorg/internal/wire"
)

// TestCompletionSurvivesLostCallbacks: every JobManager status callback is
// dropped; the GridManager's probe loop alone must carry the job to
// completion (callbacks are an optimization, not a correctness mechanism).
func TestCompletionSurvivesLostCallbacks(t *testing.T) {
	runs := &atomic.Int64{}
	dropped := &atomic.Int64{}
	// Drop every status callback at the agent's own callback server: the
	// JobManager's pushes all vanish, so only the probe loop can learn of
	// the completion.
	cbFaults := &wire.Faults{}
	cbFaults.DropRequest = func(method string) bool {
		if method == "gram.callback" {
			dropped.Add(1)
			return true
		}
		return false
	}
	cluster, _ := lrm.NewCluster(lrm.Config{Name: "cb", Cpus: 2})
	site, err := gram.NewSite(gram.SiteConfig{
		Name:     "cb",
		Cluster:  cluster,
		Runtime:  buildRuntime(runs),
		StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
		Faults:   FaultOptions{Callback: cbFaults},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	id, _ := agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"50ms"}})
	waitAgentState(t, agent, id, Completed)
	if dropped.Load() == 0 {
		t.Fatal("no callbacks were dropped; the fault was not wired through")
	}
	if runs.Load() != 1 {
		t.Fatalf("program ran %d times, want exactly once", runs.Load())
	}
}

// TestWalltimeExceededIsFinalFailure: a job that blows its walltime is
// killed by the site and reported as a permanent (non-resubmittable)
// failure with a meaningful reason.
func TestWalltimeExceededIsFinalFailure(t *testing.T) {
	w := newWorld(t, 1)
	id, err := w.agent.Submit(SubmitRequest{
		Owner:      "u",
		Executable: gram.Program("task"),
		Args:       []string{"5s"},
		WallLimit:  60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	info := waitAgentState(t, w.agent, id, Failed)
	if !strings.Contains(info.Error, "walltime") {
		t.Fatalf("error = %q, want walltime reason", info.Error)
	}
	if info.Resubmits != 0 {
		t.Fatalf("walltime failure was resubmitted %d times", info.Resubmits)
	}
}

// TestEnvAndStdinFlowThroughAgent: environment variables and staged stdin
// reach the remote program.
func TestEnvAndStdinFlowThroughAgent(t *testing.T) {
	runs := &atomic.Int64{}
	rt := buildRuntime(runs)
	// A program that reports env + stdin.
	rt.Register("report", func(_ context.Context, _ []string, stdin []byte, stdout, _ io.Writer, env map[string]string) error {
		stdout.Write([]byte("ENV=" + env["CMS_RUN"] + " STDIN=" + string(stdin) + "\n"))
		return nil
	})
	cluster, _ := lrm.NewCluster(lrm.Config{Name: "env", Cpus: 2})
	site, err := gram.NewSite(gram.SiteConfig{
		Name: "env", Cluster: cluster, Runtime: rt, StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	id, err := agent.Submit(SubmitRequest{
		Owner:      "u",
		Executable: gram.Program("report"),
		Stdin:      []byte("event-data"),
		Env:        map[string]string{"CMS_RUN": "42"},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, agent, id, Completed)
	deadline := time.Now().Add(2 * time.Second)
	for {
		out, _ := agent.Stdout(id)
		if strings.Contains(string(out), "ENV=42 STDIN=event-data") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stdout = %q", out)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestHoldDuringDisconnection: holding a job while its site is partitioned
// must succeed locally (the remote cancel is best-effort) and survive the
// heal.
func TestHoldDuringDisconnection(t *testing.T) {
	w := newWorld(t, 1)
	id, _ := w.agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"10s"},
	})
	waitAgentState(t, w.agent, id, Running)
	w.sites[0].Partition()
	if err := w.agent.Hold(id, "user hold during outage"); err != nil {
		t.Fatal(err)
	}
	w.sites[0].Heal()
	time.Sleep(200 * time.Millisecond)
	info, _ := w.agent.Status(id)
	if info.State != Held {
		t.Fatalf("state after heal = %v, want held", info.State)
	}
	w.agent.Release(id)
	waitAgentState(t, w.agent, id, Running)
	w.agent.Remove(id)
}

// TestManyJobsManySites: a wider load test — 30 jobs over 3 sites with the
// adaptive-ish round robin, all exactly-once.
func TestManyJobsManySites(t *testing.T) {
	w := newWorld(t, 3)
	var ids []string
	for i := 0; i < 30; i++ {
		id, err := w.agent.Submit(SubmitRequest{
			Owner: "u", Executable: gram.Program("task"), Args: []string{"10ms"},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := w.agent.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		info, _ := w.agent.Status(id)
		if info.State != Completed {
			t.Fatalf("job %s: %v (%s)", id, info.State, info.Error)
		}
	}
	if got := w.runs.Load(); got != 30 {
		t.Fatalf("executions = %d, want exactly 30", got)
	}
}

// TestOnDiskUserLog: the job history is mirrored to one plain-text user log
// per owner in the agent's state directory, every line naming its job, and
// the file survives agent restarts: each incarnation appends to it.
func TestOnDiskUserLog(t *testing.T) {
	w := newWorld(t, 1)
	owners := []string{"amy", "ben/x"}
	ids := make(map[string]string)
	for _, owner := range owners {
		id, err := w.agent.Submit(SubmitRequest{Owner: owner, Executable: gram.Program("task"), Args: []string{"600ms"}})
		if err != nil {
			t.Fatal(err)
		}
		ids[owner] = id
	}
	for _, id := range ids {
		waitAgentState(t, w.agent, id, Running)
	}
	paths := make(map[string]string)
	for owner, id := range ids {
		paths[owner] = w.agent.UserLogPath(id)
	}
	if paths[owners[0]] == paths[owners[1]] {
		t.Fatalf("two owners share the user log %s", paths[owners[0]])
	}
	w.agent.Close()
	a2, err := NewAgent(AgentConfig{
		StateDir: w.dir,
		Selector: StaticSelector(w.sites[0].GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	for owner, id := range ids {
		waitAgentState(t, a2, id, Completed)
		if got := a2.UserLogPath(id); got != paths[owner] {
			t.Fatalf("restarted agent logs %s to %s, was %s", id, got, paths[owner])
		}
		// The state flips before the event line reaches the file.
		var text string
		waitFor(t, "TERMINATED in "+owner+"'s on-disk log", 5*time.Second, func() bool {
			data, err := os.ReadFile(paths[owner])
			text = string(data)
			return err == nil && strings.Contains(text, " TERMINATED ")
		})
		for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
			if f := strings.Fields(line); len(f) < 3 || f[1] != id {
				t.Fatalf("line in %s's log does not name job %s: %q", owner, id, line)
			}
		}
		// SUBMIT and GRID_SUBMIT from the first incarnation, TERMINATED
		// from the second: the job was running when the first closed.
		for _, code := range []string{"SUBMIT", "GRID_SUBMIT", "TERMINATED"} {
			if !strings.Contains(text, " "+id+" "+code+" ") {
				t.Fatalf("%s's log missing %s for %s:\n%s", owner, code, id, text)
			}
		}
	}
}
