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

// migrationWorld is a busy site whose only CPU is held by a hog the test
// releases at will — so a copy left queued there would run — a free site,
// and an agent that binds the first job to the busy site and migrates it
// after 120 ms.
type migrationWorld struct {
	busy    *gram.Site
	release chan struct{}
	runs    *atomic.Int64
	agent   *Agent
}

func newMigrationWorld(t *testing.T, busyFaults *wire.Faults) *migrationWorld {
	t.Helper()
	w := &migrationWorld{release: make(chan struct{}), runs: &atomic.Int64{}}
	cluster, err := lrm.NewCluster(lrm.Config{Name: "busy", Cpus: 1})
	if err != nil {
		t.Fatal(err)
	}
	cluster.Submit(lrm.Job{ID: "hog", Owner: "other", Run: func(ctx context.Context) error {
		select {
		case <-w.release:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}}, 0)
	w.busy, err = gram.NewSite(gram.SiteConfig{
		Name:             "busy",
		Cluster:          cluster,
		Runtime:          buildRuntime(w.runs),
		StateDir:         t.TempDir(),
		GatekeeperFaults: busyFaults,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.busy.Close)
	free := newSite(t, "free", w.runs, t.TempDir(), "")
	t.Cleanup(free.Close)

	w.agent, err = NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: &switchSelector{busy: w.busy.GatekeeperAddr(), free: free.GatekeeperAddr()},
		Probe:    ProbeOptions{Interval: 30 * time.Millisecond},
		Retry:    RetryOptions{MigrateAfter: 120 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.agent.Close)
	return w
}

// migrateOnce submits one job and waits until it has completed at the free
// site, leaving its busy-site copy behind a cancel tombstone.
func (w *migrationWorld) migrateOnce(t *testing.T) JobInfo {
	t.Helper()
	id, err := w.agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"20ms"},
	})
	if err != nil {
		t.Fatal(err)
	}
	info := waitAgentState(t, w.agent, id, Completed)
	if info.Migrations < 1 {
		t.Fatalf("migrations = %d, want >= 1", info.Migrations)
	}
	if len(info.CancelPending) == 0 {
		t.Fatalf("no cancel tombstone recorded while cancels are dropped: %+v", info)
	}
	return info
}

// waitCancelAcked waits for the job's tombstones to clear, then frees the
// busy site's CPU: a surviving old copy would now run. It must not — the
// acknowledged cancel removed it from the queue.
func (w *migrationWorld) waitCancelAcked(t *testing.T, id string) {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for {
		info, _ := w.agent.Status(id)
		if len(info.CancelPending) == 0 && strings.Contains(fmt2str(info.Log), "CANCEL_ACKED") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancel tombstone never acknowledged: %+v\nlog:\n%s", info.CancelPending, fmt2str(info.Log))
		}
		time.Sleep(20 * time.Millisecond)
	}
	close(w.release)
	time.Sleep(300 * time.Millisecond)
	if got := w.runs.Load(); got != 1 {
		t.Fatalf("job ran %d times, want exactly once (old copy executed after migration)", got)
	}
}

// TestMigrationCancelRetriedUntilAcked: when the cancel of the old queued
// copy is lost (the old gatekeeper silently drops jm.batch-cancel), the
// agent must keep a tombstone and retry from the probe loop until the site
// acknowledges — otherwise the old copy could run later and the job would
// execute twice.
func TestMigrationCancelRetriedUntilAcked(t *testing.T) {
	dropCancels := &atomic.Bool{}
	dropCancels.Store(true)
	gkFaults := &wire.Faults{}
	gkFaults.DropRequest = func(method string) bool {
		return method == "jm.batch-cancel" && dropCancels.Load()
	}
	w := newMigrationWorld(t, gkFaults)

	// The job migrates and completes at the free site, but the cancel of
	// the old copy keeps being dropped: a tombstone must be pending.
	info := w.migrateOnce(t)
	// The manager must not retire with an unacknowledged cancel.
	time.Sleep(100 * time.Millisecond)
	if n := w.agent.ActiveGridManagers(); n != 1 {
		t.Fatalf("manager retired (%d active) with a cancel still pending", n)
	}

	// Let cancels through: the probe loop retries and clears the tombstone.
	dropCancels.Store(false)
	w.waitCancelAcked(t, info.ID)
}

// TestMigrationCancelNeedsNoJobManager: the tombstone of a migrated job
// whose old JobManager has crashed is acknowledged by one jm.batch-cancel at
// the old gatekeeper, which kills the copy through its LRM — no JobManager
// is restarted just to be told to cancel.
func TestMigrationCancelNeedsNoJobManager(t *testing.T) {
	holdCancels := &atomic.Bool{}
	holdCancels.Store(true)
	var cancels, restarts atomic.Int64
	gkFaults := &wire.Faults{}
	gkFaults.DropRequest = func(method string) bool {
		switch method {
		case "jm.batch-cancel":
			if holdCancels.Load() {
				return true
			}
			cancels.Add(1)
		case "gram.jm-restart":
			restarts.Add(1)
		}
		return false
	}
	w := newMigrationWorld(t, gkFaults)

	info := w.migrateOnce(t)
	if err := w.busy.CrashJobManager(info.CancelPending[0].JobID); err != nil {
		t.Fatal(err)
	}
	holdCancels.Store(false)
	w.waitCancelAcked(t, info.ID)
	if n := cancels.Load(); n != 1 {
		t.Errorf("%d jm.batch-cancel requests acknowledged the tombstone, want 1", n)
	}
	if n := restarts.Load(); n != 0 {
		t.Errorf("%d gram.jm-restart requests at the old site, want 0", n)
	}
	if n := w.busy.LiveJobManagers(); n != 0 {
		t.Errorf("%d live JobManagers at the old site, want 0", n)
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

// TestRemoveHeldJobCancelsOnce: holding a running job tombstones its remote
// copy, and the site acknowledges the cancel. Removing the held job then
// sends no second cancel: the job's one jm.batch-cancel entry and its one
// CANCEL_ACKED line are all its story holds once its manager retires.
func TestRemoveHeldJobCancelsOnce(t *testing.T) {
	runs := &atomic.Int64{}
	gk := &verbCounts{}
	site := newHookedSite(t, "wisc", runs, 4, gk.faults())
	a, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	id, err := a.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"30s"}})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, a, id, Running)
	if err := a.Hold(id, "operator hold"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the hold's cancel to be acknowledged", 8*time.Second, func() bool {
		info, _ := a.Status(id)
		return len(info.CancelPending) == 0 && strings.Contains(fmt2str(info.Log), "CANCEL_ACKED")
	})
	if err := a.Remove(id); err != nil {
		t.Fatal(err)
	}
	// A manager with a cancel outstanding does not retire: once it has,
	// every cancel the removal could have sent was sent and acknowledged.
	waitFor(t, "the manager to retire", 8*time.Second, func() bool { return a.ActiveGridManagers() == 0 })
	info, _ := a.Status(id)
	if info.State != Removed {
		t.Fatalf("job is %v, want removed", info.State)
	}
	// The only job, so each jm.batch-cancel frame is one entry for it.
	if got := gk.get("jm.batch-cancel"); got != 1 {
		t.Fatalf("%d jm.batch-cancel frames for one held-then-removed job, want 1", got)
	}
	if got := strings.Count(fmt2str(info.Log), "CANCEL_ACKED"); got != 1 {
		t.Fatalf("%d CANCEL_ACKED lines, want 1:\n%s", got, fmt2str(info.Log))
	}
}
