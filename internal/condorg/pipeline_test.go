package condorg

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/lrm"
	"condorg/internal/wire"
)

// newFaultySite builds a site whose gatekeeper and jobmanager listeners
// share one wire.Faults hook set, so a test can blackhole the whole site
// (one-way partition: sends succeed, replies never come) after it is up.
func newFaultySite(t *testing.T, name string, runs *atomic.Int64, faults *wire.Faults) *gram.Site {
	t.Helper()
	return newHookedSite(t, name, runs, 4, faults, faults)
}

// newHookedSite builds a site with cpus slots whose gatekeeper and
// jobmanager listeners run the given hook sets.
func newHookedSite(t *testing.T, name string, runs *atomic.Int64, cpus int, gk, jm *wire.Faults) *gram.Site {
	t.Helper()
	cluster, err := lrm.NewCluster(lrm.Config{Name: name, Cpus: cpus})
	if err != nil {
		t.Fatal(err)
	}
	site, err := gram.NewSite(gram.SiteConfig{
		Name:             name,
		Cluster:          cluster,
		Runtime:          buildRuntime(runs),
		StateDir:         t.TempDir(),
		CommitTimeout:    2 * time.Second,
		GatekeeperFaults: gk,
		JobManagerFaults: jm,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	return site
}

// TestPipelineHeadOfLineIsolation is the regression test for the bug this
// package's pipelines exist to fix: with the old single-goroutine
// GridManager, one submission against a blackholed gatekeeper stalled the
// loop for the full timeout ladder (~900ms per attempt, forever), and
// every healthy job behind it waited. With per-site workers the wedged
// submission occupies only its own site's pipeline.
//
// The breaker threshold is set absurdly high so fast-fail cannot rescue
// the serial design — isolation must come from the pipelines themselves.
func TestPipelineHeadOfLineIsolation(t *testing.T) {
	runs := &atomic.Int64{}
	healthy := newSite(t, "alive", runs, t.TempDir(), "")
	t.Cleanup(healthy.Close)
	faults := &wire.Faults{}
	wedged := newFaultySite(t, "wedged", runs, faults)

	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: &RoundRobinSelector{Sites: []string{healthy.GatekeeperAddr()}},
		Probe:    ProbeOptions{Interval: 15 * time.Millisecond},
		Breaker: faultclass.BreakerConfig{
			Threshold: 1000,
			BaseDelay: 10 * time.Millisecond,
			MaxDelay:  20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)

	const batch = 6
	runBatch := func() time.Duration {
		start := time.Now()
		ids := make([]string, 0, batch)
		for i := 0; i < batch; i++ {
			id, err := agent.Submit(SubmitRequest{
				Owner:      "u",
				Executable: gram.Program("task"),
				Args:       []string{"5ms"},
				Site:       healthy.GatekeeperAddr(),
			})
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			waitAgentState(t, agent, id, Completed)
		}
		return time.Since(start)
	}

	baseline := runBatch()

	// Blackhole the second site and wedge a submission against it, then
	// rerun the healthy batch while that submit burns timeouts.
	faults.SetConn(nil, func() bool { return true }, nil)
	if _, err := agent.Submit(SubmitRequest{
		Owner:      "u",
		Executable: gram.Program("task"),
		Site:       wedged.GatekeeperAddr(),
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let the wedged submit enter its pipeline

	faulted := runBatch()

	// A serial GridManager puts at least one ~900ms timeout ladder in
	// front of the batch; the pipelined one should stay within a small
	// constant factor of the no-fault baseline.
	limit := 2*baseline + 400*time.Millisecond
	if faulted > limit {
		t.Fatalf("healthy batch took %v alongside a blackholed site (baseline %v, limit %v)",
			faulted, baseline, limit)
	}
}

// TestHealthAwareSelectorSkipsOpenSites: a dead site in the rotation must
// not absorb selector-routed jobs once its breaker opens — previously
// round-robin kept handing it every other job, and each one burned
// SubmitRetries budget on guaranteed failures.
func TestHealthAwareSelectorSkipsOpenSites(t *testing.T) {
	runs := &atomic.Int64{}
	healthy := newSite(t, "alive", runs, t.TempDir(), "")
	t.Cleanup(healthy.Close)
	dead := newSite(t, "dead", runs, t.TempDir(), "")
	t.Cleanup(dead.Close)
	dead.Partition()

	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: &RoundRobinSelector{Sites: []string{dead.GatekeeperAddr(), healthy.GatekeeperAddr()}},
		Probe:    ProbeOptions{Interval: 15 * time.Millisecond},
		// Open after two failures and stay open for the whole test.
		Breaker: faultclass.BreakerConfig{
			Threshold: 2,
			BaseDelay: 10 * time.Second,
			MaxDelay:  10 * time.Second,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)

	// A sacrificial pinned submission trips the dead site's breaker.
	if _, err := agent.Submit(SubmitRequest{
		Owner:      "u",
		Executable: gram.Program("task"),
		Site:       dead.GatekeeperAddr(),
	}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for agent.SiteHealth("u", dead.GatekeeperAddr()) != faultclass.Open {
		if time.Now().After(deadline) {
			t.Fatal("dead site's breaker never opened")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var ids []string
	for i := 0; i < 6; i++ {
		id, err := agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task")})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		info := waitAgentState(t, agent, id, Completed)
		if info.Site != healthy.GatekeeperAddr() {
			t.Fatalf("job %s routed to %s, want the healthy site %s", id, info.Site, healthy.GatekeeperAddr())
		}
		if info.SubmitRetries != 0 {
			t.Fatalf("job %s burned %d submit retries on a breaker-open site", id, info.SubmitRetries)
		}
	}
}

// TestCancelTombstoneDoesNotBlockPipelines: a cancel tombstone stuck on an
// unreachable site must churn in that site's own pipeline. The old serial
// loop ran retryCancels inline, so every undeliverable cancel added a full
// timeout ladder of lag to the probe pass for ALL jobs.
func TestCancelTombstoneDoesNotBlockPipelines(t *testing.T) {
	runs := &atomic.Int64{}
	healthy := newSite(t, "alive", runs, t.TempDir(), "")
	t.Cleanup(healthy.Close)
	faults := &wire.Faults{}
	doomed := newFaultySite(t, "doomed", runs, faults)

	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: &RoundRobinSelector{Sites: []string{healthy.GatekeeperAddr()}},
		Probe:    ProbeOptions{Interval: 15 * time.Millisecond},
		Breaker: faultclass.BreakerConfig{
			Threshold: 1000,
			BaseDelay: 10 * time.Millisecond,
			MaxDelay:  20 * time.Millisecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)

	// Get a job running on the doomed site, then blackhole it and hold
	// the job: the cancel tombstone can never be acknowledged.
	id, err := agent.Submit(SubmitRequest{
		Owner:      "u",
		Executable: gram.Program("task"),
		Args:       []string{"30s"},
		Site:       doomed.GatekeeperAddr(),
	})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, agent, id, Running)
	faults.SetConn(nil, func() bool { return true }, nil)
	if err := agent.Hold(id, "operator hold"); err != nil {
		t.Fatal(err)
	}

	// Healthy traffic must keep flowing while the tombstone churns.
	start := time.Now()
	var ids []string
	for i := 0; i < 4; i++ {
		hid, err := agent.Submit(SubmitRequest{
			Owner:      "u",
			Executable: gram.Program("task"),
			Args:       []string{"5ms"},
			Site:       healthy.GatekeeperAddr(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, hid)
	}
	for _, hid := range ids {
		waitAgentState(t, agent, hid, Completed)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("healthy jobs took %v behind an undeliverable tombstone", elapsed)
	}

	info, err := agent.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.CancelPending) == 0 {
		t.Fatal("tombstone unexpectedly acknowledged through a blackholed site")
	}
	if info.State != Held {
		t.Fatalf("held job is %v, want %v", info.State, Held)
	}
}

// TestPipelineHealthSnapshot covers the ctl.v1 "health" op's data source:
// breaker state and pipeline occupancy merged per (owner, site).
func TestPipelineHealthSnapshot(t *testing.T) {
	w := newWorld(t, 2)
	// A long-running job keeps the GridManager alive (it retires, taking
	// its pipeline stats with it, once the owner's queue drains).
	id, err := w.agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"5s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, w.agent, id, Running)
	rows := w.agent.PipelineHealth()
	if len(rows) == 0 {
		t.Fatal("PipelineHealth returned no rows with a running job")
	}
	for _, r := range rows {
		if r.Owner != "u" {
			t.Fatalf("unexpected owner %q in %+v", r.Owner, r)
		}
		if r.Breaker != faultclass.Closed.String() {
			t.Fatalf("healthy site reports breaker %q: %+v", r.Breaker, r)
		}
	}
}

// TestSelectSiteFallsBackToBlindSelect: a plain Selector (no SelectHealthy)
// still works through the helper, and a health view that vetoes everything
// surfaces ErrAllSitesUnhealthy from aware selectors.
func TestSelectSiteFallsBackToBlindSelect(t *testing.T) {
	plain := StaticSelector("gk:1")
	site, err := selectSite(plain, SubmitRequest{}, func(string) bool { return false })
	if err != nil || site != "gk:1" {
		t.Fatalf("plain selector through selectSite = %q, %v", site, err)
	}
	rr := &RoundRobinSelector{Sites: []string{"gk:1", "gk:2"}}
	if _, err := selectSite(rr, SubmitRequest{}, func(string) bool { return false }); err == nil {
		t.Fatal("round-robin with all sites vetoed returned no error")
	} else if !errors.Is(err, ErrAllSitesUnhealthy) {
		t.Fatalf("want ErrAllSitesUnhealthy, got %v", err)
	}
	// One healthy site: the rotation must land on it regardless of where
	// the cursor starts.
	for i := 0; i < 4; i++ {
		site, err := rr.SelectHealthy(SubmitRequest{}, func(addr string) bool { return addr == "gk:2" })
		if err != nil || site != "gk:2" {
			t.Fatalf("turn %d: SelectHealthy = %q, %v", i, site, err)
		}
	}
}
