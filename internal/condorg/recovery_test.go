package condorg

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/gram"
)

// Re-verification after an agent restart (§4.2): the recovered jobs ride
// the same batch frames as every other job — a gram.batch-commit that tells
// the site where the restarted agent now listens, then a jm.batch-status.

// TestRecoveredJobCallsBack: a job still running when the agent closes
// reports its end through a gram.callback at the restarted agent's new
// listener — the recovery commit re-pointed its JobManager there — long
// before a probe tick could deliver it.
func TestRecoveredJobCallsBack(t *testing.T) {
	runs := &atomic.Int64{}
	site := newSite(t, "s", runs, t.TempDir(), "")
	t.Cleanup(site.Close)
	const probe = time.Minute // only a callback can deliver the end in time
	cfg := AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: probe},
	}
	a1, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	id, err := a1.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"500ms"}})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, a1, id, Running)
	a1.Close()

	cb := &verbCounts{}
	cfg.Faults.Callback = cb.faults()
	start := time.Now()
	a2, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a2.Close)
	waitAgentState(t, a2, id, Completed)
	if elapsed := time.Since(start); elapsed >= probe {
		t.Fatalf("completion took %v, no faster than the %v probe", elapsed, probe)
	}
	if got := cb.get("gram.callback"); got == 0 {
		t.Fatal("the recovered job's end reached the new agent without a gram.callback")
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("program ran %d times across the restart, want 1", got)
	}
}

// TestRecoveryIsBatched: re-verifying N jobs after an agent restart costs
// ceil(N/maxBatch) gram.batch-commit frames and as many jm.batch-status
// frames beside the probe ticks' own, all addressed to the gatekeeper, and
// every job still finishes once with its whole output at the new agent.
func TestRecoveryIsBatched(t *testing.T) {
	for _, n := range []int{1, 33} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			runs := &atomic.Int64{}
			gk := &verbCounts{}
			site := newHookedSite(t, "wisc", runs, n, gk.faults())
			const interval = 30 * time.Millisecond
			cfg := AgentConfig{
				StateDir: t.TempDir(),
				Selector: StaticSelector(site.GatekeeperAddr()),
				Probe:    ProbeOptions{Interval: interval},
			}
			a1, err := NewAgent(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ids := make([]string, n)
			for i := range ids {
				if ids[i], err = a1.Submit(SubmitRequest{
					Owner: "u", Executable: gram.Program("task"), Args: []string{"1s", fmt.Sprint(i)},
				}); err != nil {
					t.Fatal(err)
				}
			}
			// Every job holds a site contact, so each is re-verified.
			waitFor(t, "every job to obtain a contact", 8*time.Second, func() bool {
				for _, id := range ids {
					if info, err := a1.Status(id); err != nil || info.Contact.JobID == "" {
						return false
					}
				}
				return true
			})
			a1.Close()

			gk.reset()
			start := time.Now()
			a2, err := NewAgent(cfg)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(a2.Close)
			for _, id := range ids {
				waitAgentState(t, a2, id, Completed)
			}
			ticks := int(time.Since(start)/interval) + 2

			frames := (n + maxBatch - 1) / maxBatch
			if got := gk.get("gram.batch-commit"); got != frames {
				t.Fatalf("recovery sent %d batch-commit frames for %d jobs, want %d", got, n, frames)
			}
			// The recovery's own frames, plus at most one sweep per tick.
			if got, limit := gk.get("jm.batch-status"), frames*(1+ticks); got < frames || got > limit {
				t.Fatalf("%d batch-status frames over %d ticks, want %d..%d", got, ticks, frames, limit)
			}
			if got := runs.Load(); got != int64(n) {
				t.Fatalf("%d executions for %d jobs across the restart", got, n)
			}
			for i, id := range ids {
				want := fmt.Sprintf("task ok 1s %d\n", i)
				waitFor(t, "the output of "+id, 2*time.Second, func() bool {
					out, err := a2.Stdout(id)
					return err == nil && strings.Contains(string(out), want)
				})
			}
		})
	}
}
