package condorg

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/gram"
	"condorg/internal/lrm"
	"condorg/internal/obs"
)

// Re-verification after an agent restart (§4.2): the recovered jobs ride
// the same batch frames as every other job — one gram.batch-commit that
// tells the site where the restarted agent now listens and is answered with
// each job's status.

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
// ceil(N/maxBatch) gram.batch-commit frames addressed to the gatekeeper and
// no jm.batch-status frame beside the probe ticks' own, and every job still
// finishes once with its whole output at the new agent. When the jobs
// finished while the agent was down, each commit frame's reply carries its
// members' terminal states — no probe is needed at all — and the frame
// waits for the journal once: at most one group commit per frame, not one
// per job.
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
			// At most one sweep per tick; recovery sends none of its own.
			if got, limit := gk.get("jm.batch-status"), frames*ticks; got > limit {
				t.Fatalf("%d batch-status frames over %d ticks, want at most %d", got, ticks, limit)
			}
			if got := gk.get("jm.batch-status"); c.done && got != 0 {
				t.Fatalf("recovering %d finished jobs sent %d batch-status frames, want 0: the commit reply carries their states", live, got)
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

// outcomeRuntime runs "job DURATION TAG ok|fail" and counts, per tag, the
// runs that started and the runs that returned (failed or not).
type outcomeRuntime struct {
	mu             sync.Mutex
	started, ended map[string]int
	rt             *gram.FuncRuntime
}

func newOutcomeRuntime() *outcomeRuntime {
	o := &outcomeRuntime{started: map[string]int{}, ended: map[string]int{}, rt: gram.NewFuncRuntime()}
	o.rt.Register("job", func(ctx context.Context, args []string, _ []byte, stdout, _ io.Writer, _ map[string]string) error {
		d, _ := time.ParseDuration(args[0])
		tag := args[1]
		o.mu.Lock()
		o.started[tag]++
		o.mu.Unlock()
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
		o.mu.Lock()
		o.ended[tag]++
		o.mu.Unlock()
		if args[2] == "fail" {
			return errors.New("application exit 1")
		}
		fmt.Fprintf(stdout, "job ok %s\n", tag)
		return nil
	})
	return o
}

func (o *outcomeRuntime) count(m map[string]int, tag string) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return m[tag]
}

// TestRecoveryFrameDecidesEachOutcome: the recovery commit's reply alone
// sends each job down its path, with no jm.batch-status frame before the
// first probe tick (the tick is a minute away). While the agent is down one
// job completes, one fails, one is lost by a site that restarts without
// its state, and one keeps running with its JobManager killed. The
// restarted agent completes the first, fails the second and resubmits the
// third through maybeResubmit once each, and restarts the fourth's
// JobManager through jm-restart; every job runs once at the site that
// keeps it.
func TestRecoveryFrameDecidesEachOutcome(t *testing.T) {
	gk := &verbCounts{}
	site := func(name string, rt *gram.FuncRuntime, addr string) *gram.Site {
		t.Helper()
		cluster, err := lrm.NewCluster(lrm.Config{Name: name, Cpus: 4})
		if err != nil {
			t.Fatal(err)
		}
		s, err := gram.NewSite(gram.SiteConfig{
			Name:             name,
			Cluster:          cluster,
			Runtime:          rt,
			StateDir:         t.TempDir(),
			CommitTimeout:    2 * time.Second,
			GatekeeperAddr:   addr,
			GatekeeperFaults: gk.faults(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	keeper := newOutcomeRuntime()
	a := site("keeper", keeper.rt, "")
	loser := site("loser", newOutcomeRuntime().rt, "")
	cfg := AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(a.GatekeeperAddr()),
		Probe:    ProbeOptions{Interval: time.Minute},
	}
	a1, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submit := func(at *gram.Site, length, tag, outcome string) string {
		t.Helper()
		id, err := a1.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("job"),
			Args: []string{length, tag, outcome}, Site: at.GatekeeperAddr()})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	done := submit(a, "600ms", "done", "ok")
	failed := submit(a, "600ms", "failed", "fail")
	running := submit(a, "4s", "running", "ok")
	lost := submit(loser, "3s", "lost", "ok")
	for _, id := range []string{done, failed, running, lost} {
		waitAgentState(t, a1, id, Running)
	}
	runningJob, _ := a1.Status(running)
	a1.Close()

	waitFor(t, "two jobs to end while the agent is down", 8*time.Second, func() bool {
		return keeper.count(keeper.ended, "done") == 1 && keeper.count(keeper.ended, "failed") == 1 && a.ActiveJobs() == 1
	})
	if err := a.CrashJobManager(runningJob.Contact.JobID); err != nil {
		t.Fatal(err)
	}
	loserAddr := loser.GatekeeperAddr()
	loser.Close()
	site("loser", newOutcomeRuntime().rt, loserAddr) // back with no state

	gk.reset()
	a2, err := NewAgent(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a2.Close)
	waitAgentState(t, a2, done, Completed)
	waitAgentState(t, a2, failed, Failed)
	waitAgentState(t, a2, running, Completed)
	info := waitAgentState(t, a2, lost, Completed)

	if got := gk.get("jm.batch-status"); got != 0 {
		t.Fatalf("recovery sent %d jm.batch-status frames before the first probe tick, want 0", got)
	}
	if got := gk.get("gram.jm-restart"); got != 1 {
		t.Fatalf("%d gram.jm-restart requests, want 1 (the running job's)", got)
	}
	codes := func(id string) map[string]int {
		info, _ := a2.Status(id)
		n := map[string]int{}
		for _, l := range info.Log {
			n[l.Code]++
		}
		return n
	}
	faults := func(id string) int {
		tl, _ := a2.Trace(id)
		n := 0
		for _, ev := range tl.Events {
			if ev.Phase == obs.PhaseFault {
				n++
			}
		}
		return n
	}
	if c := codes(done); c["TERMINATED"] != 1 || c["RESUBMIT"]+c["JM_RESTARTED"]+c["FAILED"] != 0 {
		t.Fatalf("completed job's log %v", c)
	}
	if c, f := codes(failed), faults(failed); c["FAILED"] != 1 || f != 1 || c["RESUBMIT"]+c["JM_RESTARTED"] != 0 {
		t.Fatalf("failed job's log %v with %d fault events, want one verdict", c, f)
	}
	if c, f := codes(lost), faults(lost); c["RESUBMIT"] != 1 || f != 1 || info.Resubmits != 1 {
		t.Fatalf("lost job's log %v with %d fault events and %d resubmits, want one resubmission", c, f, info.Resubmits)
	}
	// The site answered the commit that it lost the job: the user log says
	// so, and claims no JobManager restart nobody asked for.
	var lostLog []string
	for _, l := range info.Log {
		if l.Code == "REMOTE_FAILURE" || l.Code == "RESUBMIT" || strings.HasPrefix(l.Code, "JM_RESTART") {
			lostLog = append(lostLog, l.Code)
		}
	}
	if strings.Join(lostLog, " ") != "REMOTE_FAILURE RESUBMIT" {
		t.Fatalf("lost job's log reads %v, want REMOTE_FAILURE then RESUBMIT", lostLog)
	}
	if c := codes(running); c["JM_RESTARTED"] != 1 || c["RESUBMIT"] != 0 {
		t.Fatalf("running job's log %v, want one JobManager restart", c)
	}
	restarts := 0
	for _, id := range []string{done, failed, running, lost} {
		c := codes(id)
		restarts += c["JM_RESTARTED"] + c["JM_RESTART_FAILED"]
	}
	if want := gk.get("gram.jm-restart"); restarts != want {
		t.Fatalf("the user logs hold %d JM_RESTART* lines for %d gram.jm-restart requests", restarts, want)
	}
	for _, tag := range []string{"done", "failed", "running", "lost"} {
		if got := keeper.count(keeper.started, tag); got != 1 {
			t.Fatalf("job %s started %d times at the site that keeps it, want 1", tag, got)
		}
	}
}
