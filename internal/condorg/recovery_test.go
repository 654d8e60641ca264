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
// When the jobs finished while the agent was down, each recovery frame
// carries its members' terminal states and waits for the journal once:
// at most one group commit per frame, not one per job.
func TestRecoveryIsBatched(t *testing.T) {
	for _, c := range []struct {
		name string
		n    int
		done bool // the jobs finish while the agent is down
	}{{"N=1", 1, false}, {"N=33", 33, false}, {"N=33,done-while-down", 33, true}} {
		t.Run(c.name, func(t *testing.T) {
			n := c.n
			runs := &atomic.Int64{}
			gk := &verbCounts{}
			site := newHookedSite(t, "wisc", runs, n, gk.faults())
			const interval = 30 * time.Millisecond
			length := "1s"
			if c.done {
				length = "300ms"
			}
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
					Owner: "u", Executable: gram.Program("task"), Args: []string{length, fmt.Sprint(i)},
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
			// The jobs the restarted agent re-verifies: a short one may
			// already have ended under the first agent.
			live := 0
			for _, id := range ids {
				if info, _ := a1.Status(id); !info.State.Terminal() {
					live++
				}
			}
			if live == 0 {
				t.Fatal("every job ended before the agent closed")
			}
			if c.done {
				waitFor(t, "every job to end at the site", 8*time.Second, func() bool {
					return runs.Load() == int64(n) && site.ActiveJobs() == 0
				})
				// Only the recovery frames may deliver the ends.
				cb := (&verbCounts{}).faults()
				cb.Set(func(m string) bool { return m == "gram.callback" }, nil)
				cfg.Faults.Callback = cb
			}

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

			frames := (live + maxBatch - 1) / maxBatch
			if got := gk.get("gram.batch-commit"); got != frames {
				t.Fatalf("recovery sent %d batch-commit frames for %d jobs, want %d", got, n, frames)
			}
			// The recovery's own frames, plus at most one sweep per tick.
			if got, limit := gk.get("jm.batch-status"), frames*(1+ticks); got < frames || got > limit {
				t.Fatalf("%d batch-status frames over %d ticks, want %d..%d", got, ticks, frames, limit)
			}
			if c.done {
				// One wait per frame; concurrent frames may share a group
				// commit.
				if got := flushCount(a2); got == 0 || got > uint64(frames) {
					t.Fatalf("recovering %d finished jobs took %d journal commits, want 1..%d (one per frame)", live, got, frames)
				}
			}
			if got := runs.Load(); got != int64(n) {
				t.Fatalf("%d executions for %d jobs across the restart", got, n)
			}
			for i, id := range ids {
				want := fmt.Sprintf("task ok %s %d\n", length, i)
				waitFor(t, "the output of "+id, 2*time.Second, func() bool {
					out, err := a2.Stdout(id)
					return err == nil && strings.Contains(string(out), want)
				})
			}
		})
	}
}
