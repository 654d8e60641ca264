package condorg

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gram"
)

// The acceptance criterion for probing: N jobs at one site cost at most
// ceil(N/maxBatch) status RPCs per probe tick, all addressed to the
// gatekeeper — a lone job is a batch of one, and a failed frame never falls
// back to per-job probes.
func TestBatchedProbeSweepCoalescesRPCs(t *testing.T) {
	for _, n := range []int{1, 12, 33} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			runs := &atomic.Int64{}
			vc := &verbCounts{}
			site := newHookedSite(t, "wisc", runs, 4, vc.faults())

			const interval = 30 * time.Millisecond
			agent, err := NewAgent(AgentConfig{
				StateDir: t.TempDir(),
				Selector: StaticSelector(site.GatekeeperAddr()),
				Probe:    ProbeOptions{Interval: interval},
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(agent.Close)

			ids := make([]string, n)
			for i := range ids {
				id, err := agent.Submit(SubmitRequest{
					Owner: "u", Executable: gram.Program("task"), Args: []string{"10s"},
				})
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = id
			}
			// Wait until every job holds a site contact, so each is probe-eligible.
			waitFor(t, "every job to obtain a contact", 8*time.Second, func() bool {
				for _, id := range ids {
					if info, err := agent.Status(id); err != nil || info.Contact.JobID == "" {
						return false
					}
				}
				return true
			})

			vc.reset()
			const window = 12 * interval
			time.Sleep(window)

			batched := vc.get("jm.batch-status")
			if batched == 0 {
				t.Fatal("no jm.batch-status traffic during the probe window")
			}
			// ceil(n/maxBatch) frames per tick; allow two ticks of scheduling slack.
			perTick := (n + maxBatch - 1) / maxBatch
			maxTicks := int(window/interval) + 2
			if limit := maxTicks * perTick; batched > limit {
				t.Fatalf("probe window issued %d batch-status RPCs, want <= %d (%d ticks x %d chunks)",
					batched, limit, maxTicks, perTick)
			}
		})
	}
}

// A burst of same-site submissions must coalesce into batch frames: the
// submit phase crosses the wire in strictly fewer frames than jobs. The
// gatekeeper holds each batch-submit a while, so the burst queues behind
// the frames in flight.
func TestSubmitBurstCoalesces(t *testing.T) {
	runs := &atomic.Int64{}
	vc := &verbCounts{delay: map[string]time.Duration{"gram.batch-submit": 50 * time.Millisecond}}
	site := newFaultySite(t, "wisc", runs, vc.faults())

	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
		Stage:    StageOptions{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)

	const n = 12
	ids := make([]string, n)
	for i := range ids {
		id, err := agent.Submit(SubmitRequest{
			Owner: "u", Executable: gram.Program("task"), Args: []string{"5ms"},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		waitAgentState(t, agent, id, Completed)
	}
	if runs.Load() != n {
		t.Fatalf("%d executions for %d jobs", runs.Load(), n)
	}
	if frames := vc.get("gram.batch-submit"); frames >= n {
		t.Fatalf("submit phase used %d frames for %d jobs — no coalescing", frames, n)
	}
}

// A connection reset in the middle of a batch-submit response must settle
// exactly-once: the site already created the jobs, the client saw a
// transport error, and the retried batch must dedup on SubmissionID
// instead of running anything twice.
func TestMidBatchResetSettlesExactlyOnce(t *testing.T) {
	runs := &atomic.Int64{}
	vc := &verbCounts{delay: map[string]time.Duration{"gram.batch-submit": 50 * time.Millisecond}}
	faults := vc.faults()
	site := newFaultySite(t, "wisc", runs, faults)
	var torn atomic.Bool
	faults.SetConn(nil, nil, func(method string) bool {
		// Tear exactly the first batch-submit response mid-frame.
		return method == "gram.batch-submit" && torn.CompareAndSwap(false, true)
	})

	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(site.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: 25 * time.Millisecond},
		Stage:    StageOptions{Disabled: true},
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

	const n = 6
	ids := make([]string, n)
	for i := range ids {
		id, err := agent.Submit(SubmitRequest{
			Owner: "u", Executable: gram.Program("task"), Args: []string{"10ms"},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for _, id := range ids {
		waitAgentState(t, agent, id, Completed)
	}
	if !torn.Load() {
		t.Fatal("schedule never tore a batch-submit frame; test proved nothing")
	}
	if runs.Load() != n {
		t.Fatalf("%d executions for %d jobs after a mid-batch reset — exactly-once violated", runs.Load(), n)
	}
}
