package condorg

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/lrm"
	"condorg/internal/wire"
)

// TestBreakerIsolatesDeadSite: one dead (partitioned) site must not stall
// submissions to healthy sites. The per-site circuit breaker opens after a
// few timed-out attempts, after which submissions aimed at the dead site
// fast-fail instead of burning the full network timeout in the manager's
// loop; jobs for the healthy site proceed at full speed.
func TestBreakerIsolatesDeadSite(t *testing.T) {
	runs := &atomic.Int64{}
	healthy := newSite(t, "healthy", runs, t.TempDir(), "")
	defer healthy.Close()
	dead := newSite(t, "dead", runs, t.TempDir(), "")
	defer dead.Close()
	deadAddr := dead.GatekeeperAddr()
	dead.Partition() // dead from the very first dial

	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(healthy.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
		Breaker: faultclass.BreakerConfig{
			Threshold: 2,
			BaseDelay: 50 * time.Millisecond,
			MaxDelay:  400 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	// A job pinned to the dead site keeps the manager attempting it.
	deadID, err := agent.Submit(SubmitRequest{
		Owner: "u", Site: deadAddr,
		Executable: gram.Program("task"), Args: []string{"20ms"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The breaker must open on the dead gatekeeper.
	deadline := time.Now().Add(5 * time.Second)
	for agent.SiteHealth("u", deadAddr) != faultclass.Open {
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened for %s (state %v)", deadAddr, agent.SiteHealth("u", deadAddr))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// With the breaker open, healthy-site jobs submitted through the same
	// manager complete promptly: attempts at the dead site fast-fail
	// instead of blocking the loop for the full timeout ladder.
	start := time.Now()
	var ids []string
	for i := 0; i < 4; i++ {
		id, err := agent.Submit(SubmitRequest{
			Owner: "u", Executable: gram.Program("task"), Args: []string{"20ms"},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		waitAgentState(t, agent, id, Completed)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("healthy jobs took %v behind a dead site; breaker did not isolate it", elapsed)
	}

	// The dead-site job is still waiting (not failed, not held) ...
	if info, _ := agent.Status(deadID); info.State.Terminal() || info.State == Held {
		t.Fatalf("dead-site job reached %v while the site was down", info.State)
	}
	// ... and completes once the site heals: the half-open probe readmits.
	dead.Heal()
	info := waitAgentState(t, agent, deadID, Completed)
	if info.Resubmits != 0 {
		t.Fatalf("dead-site job was resubmitted %d times; expected plain submission retries", info.Resubmits)
	}
	if got := runs.Load(); got != 5 {
		t.Fatalf("programs ran %d times, want 5", got)
	}
}

// TestRecoveryReconnectsAcrossPartition: the agent restarts while the site
// is unreachable, the partition heals, and the recovered agent RECONNECTS
// to the still-running (by now finished) job instead of resubmitting —
// exactly-once across the combination of §4.2 failure types 3 and 4.
func TestRecoveryReconnectsAcrossPartition(t *testing.T) {
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
		Owner: "u", Executable: gram.Program("task"), Args: []string{"300ms"},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, a1, id, Running)
	site.Partition()
	a1.Close() // CRASH while the site is unreachable

	a2, err := NewAgent(AgentConfig{
		StateDir: dir,
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
		// Short breaker delays so the post-heal reconnect probe is not
		// pushed out by the failures accumulated during the partition.
		Breaker: faultclass.BreakerConfig{
			Threshold: 3,
			BaseDelay: 50 * time.Millisecond,
			MaxDelay:  400 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()

	// The recovered agent marks the job disconnected while the partition
	// lasts (it must not fail or resubmit it).
	deadline := time.Now().Add(3 * time.Second)
	for {
		info, err := a2.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.Disconnected {
			break
		}
		if info.State.Terminal() {
			t.Fatalf("job went %v during the partition", info.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("recovered agent never noticed the partition")
		}
		time.Sleep(10 * time.Millisecond)
	}

	site.Heal()
	info := waitAgentState(t, a2, id, Completed)
	if info.Resubmits != 0 {
		t.Fatalf("job was resubmitted %d times; recovery should reconnect, not resubmit", info.Resubmits)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("program ran %d times across restart+partition, want exactly once", got)
	}
}

// TestMigrationCancelRetriedUntilAcked: when the cancel of the old queued
// copy is lost (the old JobManager silently drops jm.cancel), the agent
// must keep a tombstone and retry from the probe loop until the site
// acknowledges — otherwise the old copy could run later and the job would
// execute twice.
func TestMigrationCancelRetriedUntilAcked(t *testing.T) {
	runs := &atomic.Int64{}
	dropCancels := &atomic.Bool{}
	dropCancels.Store(true)
	jmFaults := &wire.Faults{}
	jmFaults.DropRequest = func(method string) bool {
		return method == "jm.cancel" && dropCancels.Load()
	}

	// Busy site: one CPU held by a hog we can release later, so the old
	// copy stays queued — and would run if its cancel never landed.
	release := make(chan struct{})
	cluster, err := lrm.NewCluster(lrm.Config{Name: "busy", Cpus: 1})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Submit(lrm.Job{ID: "hog", Owner: "other", Run: func(ctx context.Context) error {
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}, 0)
	busy, err := gram.NewSite(gram.SiteConfig{
		Name:             "busy",
		Cluster:          cluster,
		Runtime:          buildRuntime(runs),
		StateDir:         t.TempDir(),
		JobManagerFaults: jmFaults,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer busy.Close()
	free := newSite(t, "free", runs, t.TempDir(), "")
	defer free.Close()

	sel := &switchSelector{busy: busy.GatekeeperAddr(), free: free.GatekeeperAddr()}
	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: sel,
		Probe:    ProbeOptions{Interval: 30 * time.Millisecond},
		Retry:    RetryOptions{MigrateAfter: 120 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	id, err := agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"20ms"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The job migrates and completes at the free site, but the cancel of
	// the old copy keeps being dropped: a tombstone must be pending.
	info := waitAgentState(t, agent, id, Completed)
	if info.Migrations < 1 {
		t.Fatalf("migrations = %d, want >= 1", info.Migrations)
	}
	if len(info.CancelPending) == 0 {
		t.Fatalf("no cancel tombstone recorded while cancels are dropped: %+v", info)
	}
	// The manager must not retire with an unacknowledged cancel.
	time.Sleep(100 * time.Millisecond)
	if n := agent.ActiveGridManagers(); n != 1 {
		t.Fatalf("manager retired (%d active) with a cancel still pending", n)
	}

	// Let cancels through: the probe loop retries and clears the tombstone.
	dropCancels.Store(false)
	deadline := time.Now().Add(8 * time.Second)
	for {
		info, _ = agent.Status(id)
		if len(info.CancelPending) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel tombstone never cleared: %+v\nlog:\n%s", info.CancelPending, fmt2str(info.Log))
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(fmt2str(info.Log), "CANCEL_ACKED") {
		t.Fatalf("no CANCEL_ACKED event in log:\n%s", fmt2str(info.Log))
	}

	// Free the busy site's CPU: a surviving old copy would now run. It
	// must not — the acknowledged cancel removed it from the queue.
	close(release)
	time.Sleep(300 * time.Millisecond)
	if got := runs.Load(); got != 1 {
		t.Fatalf("job ran %d times, want exactly once (old copy executed after migration)", got)
	}
}

// TestSubmitRetriesAreCapped: a site that always refuses submissions must
// not be retried forever — after MaxSubmitRetries the job is held with a
// reason and the owner is notified.
func TestSubmitRetriesAreCapped(t *testing.T) {
	runs := &atomic.Int64{}
	site := newSite(t, "s", runs, t.TempDir(), "")
	addr := site.GatekeeperAddr()
	site.Close() // nothing listens: every submission attempt fails

	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(addr),
		Probe:    ProbeOptions{Interval: 20 * time.Millisecond},
		Retry:    RetryOptions{MaxSubmitRetries: 3},
		// Disable breaker fast-fails for determinism: every attempt
		// reaches the network and burns retry budget.
		Breaker: faultclass.BreakerConfig{Threshold: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	id, err := agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"),
	})
	if err != nil {
		t.Fatal(err)
	}
	info := waitAgentState(t, agent, id, Held)
	if info.SubmitRetries != 3 {
		t.Fatalf("SubmitRetries = %d, want 3", info.SubmitRetries)
	}
	if !strings.Contains(info.HoldReason, "submission failed 3 times") {
		t.Fatalf("hold reason = %q", info.HoldReason)
	}
	if msgs := waitMail(agent, "u"); len(msgs) != 1 || !strings.Contains(msgs[0].Subject, "held") {
		t.Fatalf("mailbox = %+v", msgs)
	}
	// Release resets the budget: the job is retryable again by hand.
	if err := agent.Release(id); err != nil {
		t.Fatal(err)
	}
	if info, _ := agent.Status(id); info.SubmitRetries != 0 {
		t.Fatalf("SubmitRetries = %d after release, want 0", info.SubmitRetries)
	}
	agent.Remove(id)
}
