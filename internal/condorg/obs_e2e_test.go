package condorg

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/obs"
	"condorg/internal/wire"
)

// firstPhase returns the index of the first event with the given phase,
// or -1.
func firstPhase(tl obs.Timeline, phase string) int {
	for i, ev := range tl.Events {
		if ev.Phase == phase {
			return i
		}
	}
	return -1
}

// countPhase returns how many events carry the given phase.
func countPhase(tl obs.Timeline, phase string) int {
	n := 0
	for _, ev := range tl.Events {
		if ev.Phase == phase {
			n++
		}
	}
	return n
}

// checkSeqs asserts the timeline's sequence numbers are the events'
// positions.
func checkSeqs(t *testing.T, tl obs.Timeline) {
	t.Helper()
	for i, ev := range tl.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// TestTraceTimelineSurvivesPowerCycle is the observability layer's
// headline scenario: a site power cycle loses a running job, the agent
// records the SiteLost fault and resubmits, the agent itself then
// crashes — and the recovered agent still holds the full timeline,
// because trace events are journaled with the job record. The timeline
// must read submit → … → fault(site-lost) → resubmit → recover → done.
func TestTraceTimelineSurvivesPowerCycle(t *testing.T) {
	runs := &atomic.Int64{}
	siteState := t.TempDir()
	site := newSite(t, "flaky", runs, siteState, "")
	addr := site.GatekeeperAddr()

	dir := t.TempDir()
	a1, err := NewAgent(AgentConfig{
		StateDir: dir,
		Selector: StaticSelector(addr),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
		Retry:    RetryOptions{MaxResubmits: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := a1.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"1500ms"},
	})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, a1, id, Running)

	// Full site power cycle on the same address: the restarted site
	// reports the job lost, the agent resubmits.
	site.Close()
	site2 := newSite(t, "flaky", runs, siteState, addr)
	defer site2.Close()
	deadline := time.Now().Add(8 * time.Second)
	for {
		info, _ := a1.Status(id)
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
	a1.Close() // CRASH after the resubmission was journaled

	a2, err := NewAgent(AgentConfig{
		StateDir: dir,
		Selector: StaticSelector(addr),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
		Retry:    RetryOptions{MaxResubmits: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a2.Close()
	waitAgentState(t, a2, id, Completed)

	tl, err := a2.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	checkSeqs(t, tl)
	iSubmit := firstPhase(tl, obs.PhaseSubmit)
	iFault := firstPhase(tl, obs.PhaseFault)
	iResubmit := firstPhase(tl, obs.PhaseResubmit)
	iRecover := firstPhase(tl, obs.PhaseRecover)
	iDone := firstPhase(tl, obs.PhaseDone)
	if iSubmit < 0 || iFault < 0 || iResubmit < 0 || iRecover < 0 || iDone < 0 {
		t.Fatalf("missing phases (submit=%d fault=%d resubmit=%d recover=%d done=%d):\n%+v",
			iSubmit, iFault, iResubmit, iRecover, iDone, tl.Events)
	}
	// submit and fault were recorded by the FIRST agent: their presence
	// after the crash is the durability proof.
	if !(iSubmit < iFault && iFault < iResubmit && iResubmit < iRecover && iRecover < iDone) {
		t.Fatalf("phases out of order (submit=%d fault=%d resubmit=%d recover=%d done=%d):\n%+v",
			iSubmit, iFault, iResubmit, iRecover, iDone, tl.Events)
	}
	if cl := tl.Events[iFault].Class; cl != faultclass.SiteLost.String() {
		t.Fatalf("fault event class = %q, want %q", cl, faultclass.SiteLost)
	}
}

// TestControlV1TypedErrors: the v1 envelope must deliver stable machine
// codes and fault classes the caller can branch on — no error-prose
// parsing.
func TestControlV1TypedErrors(t *testing.T) {
	w := newWorld(t, 1)
	ctl, err := NewControlServer(w.agent)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	cli := NewControlClient(ctl.Addr())
	defer cli.Close()

	assertCode := func(err error, code string, class faultclass.Class) {
		t.Helper()
		var ce *CtlError
		if !errors.As(err, &ce) {
			t.Fatalf("error %v (%T) is not a *CtlError", err, err)
		}
		if ce.Code != code {
			t.Fatalf("code = %q, want %q (%v)", ce.Code, code, err)
		}
		if got := faultclass.ClassOf(err); got != class {
			t.Fatalf("ClassOf = %v, want %v (%v)", got, class, err)
		}
	}

	_, err = cli.Status("ghost")
	assertCode(err, CtlCodeNoSuchJob, faultclass.Permanent)
	_, err = cli.Submit(CtlSubmit{Owner: "u"})
	assertCode(err, CtlCodeBadRequest, faultclass.Permanent)

	// Hold on a terminal job is a bad-state error.
	id, err := cli.Submit(CtlSubmit{Owner: "u", Program: "task", Args: []string{"10ms"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Wait(id, 8*time.Second); err != nil {
		t.Fatal(err)
	}
	assertCode(cli.Hold(id, "too late"), CtlCodeBadState, faultclass.Permanent)

	// Envelope-level failures, straight over the wire.
	wc := wire.Dial(ctl.Addr(), wire.ClientConfig{ServerName: ControlService, Timeout: 3 * time.Second})
	defer wc.Close()
	var env CtlResponse
	if err := wc.Call("ctl.v1", CtlRequest{Ver: 99, Op: "q"}, &env); err != nil {
		t.Fatal(err)
	}
	if env.Err == nil || env.Err.Code != CtlCodeUnsupportedVersion {
		t.Fatalf("ver 99 → %+v, want %s", env.Err, CtlCodeUnsupportedVersion)
	}
	env = CtlResponse{}
	if err := wc.Call("ctl.v1", CtlRequest{Ver: CtlVersion, Op: "frobnicate"}, &env); err != nil {
		t.Fatal(err)
	}
	if env.Err == nil || env.Err.Code != CtlCodeUnknownOp {
		t.Fatalf("unknown op → %+v, want %s", env.Err, CtlCodeUnknownOp)
	}
}

// TestControlQueueFilterPagination drives the v1 queue op: owner and
// state filters plus cursor pagination over a stable job-ID order.
func TestControlQueueFilterPagination(t *testing.T) {
	w := newWorld(t, 1)
	ctl, err := NewControlServer(w.agent)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	cli := NewControlClient(ctl.Addr())
	defer cli.Close()

	var ids []string
	for i := 0; i < 3; i++ {
		id, err := cli.Submit(CtlSubmit{Owner: "alice", Program: "task", Args: []string{"10ms"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	bobID, err := cli.Submit(CtlSubmit{Owner: "bob", Program: "task", Args: []string{"10ms"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range append(append([]string(nil), ids...), bobID) {
		waitAgentState(t, w.agent, id, Completed)
	}

	// Owner filter.
	jobs, _, err := cli.QueueFiltered(CtlQueueReq{Owner: "alice"})
	if err != nil || len(jobs) != 3 {
		t.Fatalf("alice's jobs: %d err=%v", len(jobs), err)
	}
	for _, j := range jobs {
		if j.Owner != "alice" {
			t.Fatalf("owner filter leaked %+v", j)
		}
	}

	// State filter: everything is done, so idle+running matches nothing.
	jobs, _, err = cli.QueueFiltered(CtlQueueReq{States: []JobState{Idle, Running}})
	if err != nil || len(jobs) != 0 {
		t.Fatalf("idle/running filter: %d err=%v", len(jobs), err)
	}
	jobs, _, err = cli.QueueFiltered(CtlQueueReq{States: []JobState{Completed}})
	if err != nil || len(jobs) != 4 {
		t.Fatalf("completed filter: %d err=%v", len(jobs), err)
	}

	// Pagination: walk pages of 3 and reassemble the full listing.
	var walked []string
	cursor := ""
	for pages := 0; ; pages++ {
		if pages > 4 {
			t.Fatal("pagination never terminated")
		}
		page, next, err := cli.QueueFiltered(CtlQueueReq{Limit: 3, After: cursor})
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range page {
			walked = append(walked, j.ID)
		}
		if next == "" {
			break
		}
		if len(page) != 3 {
			t.Fatalf("non-final page has %d jobs, want 3", len(page))
		}
		cursor = next
	}
	if len(walked) != 4 {
		t.Fatalf("pagination walked %d jobs, want 4: %v", len(walked), walked)
	}
	seen := map[string]bool{}
	for i, id := range walked {
		if seen[id] {
			t.Fatalf("job %s appeared twice across pages", id)
		}
		seen[id] = true
		if i > 0 && !lessJobID(walked[i-1], id) {
			t.Fatalf("pages out of order: %v", walked)
		}
	}
}

// TestMetricsEndToEnd: after one complete job, the registry must hold
// non-zero agent latencies, GRAM per-verb RTTs, and the per-site gauges
// — reachable both in-process and through the control plane.
func TestMetricsEndToEnd(t *testing.T) {
	w := newWorld(t, 1)
	ctl, err := NewControlServer(w.agent)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	cli := NewControlClient(ctl.Addr())
	defer cli.Close()

	id, err := cli.Submit(CtlSubmit{Owner: "u", Program: "task", Args: []string{"50ms"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Wait(id, 8*time.Second); err != nil {
		t.Fatal(err)
	}
	// A second, longer job keeps the owner's manager alive while we
	// sample: live-structure gauges (breaker state, active jobs) only
	// exist for running managers.
	linger, err := cli.Submit(CtlSubmit{Owner: "u", Program: "task", Args: []string{"900ms"}})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, w.agent, linger, Running)

	ms, err := cli.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]obs.Metric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	for _, name := range []string{
		"agent_jobs_submitted_total",
		"agent_jobs_completed_total",
		"agent_submit_seconds",
		"agent_wait_seconds",
		"journal_appends_total",
		obs.Key("gram_rtt_seconds", "verb", "batch-submit"),
		obs.Key("gram_rtt_seconds", "verb", "batch-commit"),
	} {
		m, ok := byName[name]
		if !ok {
			t.Fatalf("metric %q missing from dump:\n%s", name, obs.DumpText(ms))
		}
		if m.Type == "histogram" && m.Count == 0 {
			t.Fatalf("histogram %q never observed:\n%s", name, obs.DumpText(ms))
		}
		if m.Type == "counter" && m.Value == 0 {
			t.Fatalf("counter %q is zero:\n%s", name, obs.DumpText(ms))
		}
	}
	site := w.sites[0].GatekeeperAddr()
	if _, ok := byName[obs.Key("site_breaker_state", "owner", "u", "site", site)]; !ok {
		t.Fatalf("no breaker gauge for %s:\n%s", site, obs.DumpText(ms))
	}
	if m := byName[obs.Key("site_active_jobs", "site", site)]; m.Value < 1 {
		t.Fatalf("site_active_jobs = %v with a running job:\n%s", m.Value, obs.DumpText(ms))
	}
	if strings.TrimSpace(obs.DumpText(ms)) == "" {
		t.Fatal("empty text dump")
	}
	if _, err := cli.Wait(linger, 8*time.Second); err != nil {
		t.Fatal(err)
	}

	// Disabled mode: no registry, empty snapshots, everything still runs.
	off, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: StaticSelector(site),
		Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
		Obs:      ObsOptions{Disabled: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	offID, err := off.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task"), Args: []string{"10ms"}})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, off, offID, Completed)
	if snap := off.MetricsSnapshot(); snap != nil {
		t.Fatalf("disabled agent produced metrics: %+v", snap)
	}
	// Tracing is independent of the metric registry.
	if tl, err := off.Trace(offID); err != nil || firstPhase(tl, obs.PhaseDone) < 0 {
		t.Fatalf("disabled-metrics agent lost tracing: %+v err=%v", tl, err)
	}
}
