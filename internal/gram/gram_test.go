package gram

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gass"
	"condorg/internal/gsi"
	"condorg/internal/lrm"
	"condorg/internal/wire"
)

// testRuntime registers the small program library used across the tests.
func testRuntime() *FuncRuntime {
	rt := NewFuncRuntime()
	rt.Register("echo", func(_ context.Context, args []string, _ []byte, stdout, _ io.Writer, _ map[string]string) error {
		fmt.Fprintln(stdout, strings.Join(args, " "))
		return nil
	})
	rt.Register("cat", func(_ context.Context, _ []string, stdin []byte, stdout, _ io.Writer, _ map[string]string) error {
		stdout.Write(stdin)
		return nil
	})
	rt.Register("fail", func(_ context.Context, _ []string, _ []byte, _, stderr io.Writer, _ map[string]string) error {
		fmt.Fprintln(stderr, "something broke")
		return errors.New("exit 1")
	})
	rt.Register("sleep", func(ctx context.Context, args []string, _ []byte, stdout, _ io.Writer, _ map[string]string) error {
		d := 50 * time.Millisecond
		if len(args) > 0 {
			if p, err := time.ParseDuration(args[0]); err == nil {
				d = p
			}
		}
		select {
		case <-time.After(d):
			fmt.Fprintln(stdout, "slept")
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	return rt
}

type testGrid struct {
	site   *Site
	client *Client
	gassS  *gass.Server // submit-side GASS server (stdout lands here)
	gassC  *gass.Client
}

func newTestGrid(t *testing.T, opts ...func(*SiteConfig)) *testGrid {
	t.Helper()
	cluster, err := lrm.NewCluster(lrm.Config{Name: "site", Cpus: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := SiteConfig{
		Name:          "wisc",
		Cluster:       cluster,
		Runtime:       testRuntime(),
		StateDir:      t.TempDir(),
		CommitTimeout: time.Second,
	}
	for _, o := range opts {
		o(&cfg)
	}
	site, err := NewSite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	gs, err := gass.NewServer(t.TempDir(), gass.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gs.Close() })
	client := NewClient(nil, nil)
	client.SetTimeouts(300*time.Millisecond, 3)
	t.Cleanup(client.Close)
	gc := gass.NewClient(nil, nil)
	t.Cleanup(gc.Close)
	return &testGrid{site: site, client: client, gassS: gs, gassC: gc}
}

// stageProgram uploads a "#!condor <name>" stub to the submit GASS server
// and returns its URL, exercising real stage-in.
func (g *testGrid) stageProgram(t *testing.T, name string) string {
	t.Helper()
	u := g.gassS.URLFor("bin/" + name)
	if err := g.gassC.WriteFile(u, Program(name)); err != nil {
		t.Fatal(err)
	}
	return u.String()
}

func (g *testGrid) submitAndCommit(t *testing.T, spec JobSpec) JobContact {
	t.Helper()
	contact, err := g.client.Submit(g.site.GatekeeperAddr(), spec, SubmitOptions{SubmissionID: NewSubmissionID()})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.client.Commit(contact); err != nil {
		t.Fatal(err)
	}
	return contact
}

func waitGramState(t *testing.T, c *Client, contact JobContact, want JobState) StatusInfo {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	var last StatusInfo
	for time.Now().Before(deadline) {
		st, err := c.Status(contact)
		if err == nil {
			last = st
			if st.State == want {
				return st
			}
			if st.State.Terminal() && st.State != want {
				t.Fatalf("job %s reached %v (err=%q), want %v", contact.JobID, st.State, st.Error, want)
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v (last %v err=%q)", contact.JobID, want, last.State, last.Error)
	return StatusInfo{}
}

func TestFullJobLifecycle(t *testing.T) {
	g := newTestGrid(t)
	stdout := g.gassS.URLFor("jobs/1/stdout")
	spec := JobSpec{
		Executable: g.stageProgram(t, "echo"),
		Args:       []string{"hello", "grid"},
		StdoutURL:  stdout.String(),
	}
	contact := g.submitAndCommit(t, spec)
	st := waitGramState(t, g.client, contact, StateDone)
	if !st.ExitOK {
		t.Fatal("ExitOK false for successful job")
	}
	// Output was streamed back to the submission machine.
	deadline := time.Now().Add(2 * time.Second)
	for {
		data, err := g.gassC.ReadAll(stdout)
		if err == nil && string(data) == "hello grid\n" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stdout = %q, want %q", data, "hello grid\n")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStdinStaging(t *testing.T) {
	g := newTestGrid(t)
	stdin := g.gassS.URLFor("jobs/2/stdin")
	if err := g.gassC.WriteFile(stdin, []byte("input-bytes")); err != nil {
		t.Fatal(err)
	}
	stdout := g.gassS.URLFor("jobs/2/stdout")
	contact := g.submitAndCommit(t, JobSpec{
		Executable: g.stageProgram(t, "cat"),
		Stdin:      stdin.String(),
		StdoutURL:  stdout.String(),
	})
	waitGramState(t, g.client, contact, StateDone)
	deadline := time.Now().Add(2 * time.Second)
	for {
		data, _ := g.gassC.ReadAll(stdout)
		if string(data) == "input-bytes" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stdout = %q", data)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestFailedJobReportsStderr(t *testing.T) {
	g := newTestGrid(t)
	stderr := g.gassS.URLFor("jobs/3/stderr")
	contact := g.submitAndCommit(t, JobSpec{
		Executable: g.stageProgram(t, "fail"),
		StderrURL:  stderr.String(),
	})
	st := waitGramState(t, g.client, contact, StateFailed)
	if st.ExitOK {
		t.Fatal("ExitOK true for failed job")
	}
	if !strings.Contains(st.Error, "exit 1") {
		t.Fatalf("error = %q", st.Error)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		data, _ := g.gassC.ReadAll(stderr)
		if strings.Contains(string(data), "something broke") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stderr = %q", data)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestStageInFailure(t *testing.T) {
	g := newTestGrid(t)
	contact := g.submitAndCommit(t, JobSpec{
		Executable: "gass://" + g.gassS.Addr() + "/no/such/program",
	})
	st := waitGramState(t, g.client, contact, StateFailed)
	if !strings.Contains(st.Error, "stage-in") {
		t.Fatalf("error = %q, want stage-in failure", st.Error)
	}
}

func TestCancel(t *testing.T) {
	g := newTestGrid(t)
	contact := g.submitAndCommit(t, JobSpec{
		Executable: g.stageProgram(t, "sleep"),
		Args:       []string{"10s"},
	})
	waitGramState(t, g.client, contact, StateActive)
	if err := g.client.Cancel(contact); err != nil {
		t.Fatal(err)
	}
	waitGramState(t, g.client, contact, StateFailed)
	// Serving the terminal state was the JobManager's cue to exit; a cancel
	// after terminal needs no JobManager and is idempotent.
	waitLiveJobManagers(t, g.site, 0)
	if err := g.client.Cancel(contact); err != nil {
		t.Fatal(err)
	}
}

// waitLiveJobManagers waits until the site runs exactly want JobManagers.
func waitLiveJobManagers(t *testing.T, s *Site, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.LiveJobManagers() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d live JobManagers, want %d", s.LiveJobManagers(), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestUncommittedSubmissionExpires(t *testing.T) {
	g := newTestGrid(t)
	g.site.cfg.CommitTimeout = 50 * time.Millisecond // already built; adjust via new site instead
	// Build a dedicated site with a short commit timeout.
	cluster, _ := lrm.NewCluster(lrm.Config{Name: "s2", Cpus: 1})
	site, err := NewSite(SiteConfig{
		Name: "short", Cluster: cluster, Runtime: testRuntime(),
		StateDir: t.TempDir(), CommitTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer site.Close()
	contact, err := g.client.Submit(site.GatekeeperAddr(), JobSpec{Executable: g.stageProgram(t, "echo")}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if err := g.client.Commit(contact); err == nil {
		t.Fatal("commit after expiry succeeded")
	}
}

func TestCommitIdempotent(t *testing.T) {
	g := newTestGrid(t)
	contact := g.submitAndCommit(t, JobSpec{Executable: g.stageProgram(t, "echo")})
	for i := 0; i < 3; i++ {
		if err := g.client.Commit(contact); err != nil {
			t.Fatalf("repeat commit %d: %v", i, err)
		}
	}
	waitGramState(t, g.client, contact, StateDone)
}

func TestExactlyOnceUnderLostResponses(t *testing.T) {
	// The §3.2 two-phase commit experiment: the submit response is lost
	// twice; the client retries with the same sequence number; exactly
	// one job is created.
	faults := &wire.Faults{}
	g := newTestGrid(t, func(cfg *SiteConfig) { cfg.GatekeeperFaults = faults })
	var drops atomic.Int64
	faults.Set(nil, func(method string) bool {
		return method == "gram.batch-submit" && drops.Add(1) <= 2
	})
	contact, err := g.client.Submit(g.site.GatekeeperAddr(), JobSpec{
		Executable: g.stageProgram(t, "echo"),
	}, SubmitOptions{SubmissionID: NewSubmissionID()})
	if err != nil {
		t.Fatal(err)
	}
	faults.Set(nil, nil)
	if err := g.client.Commit(contact); err != nil {
		t.Fatal(err)
	}
	waitGramState(t, g.client, contact, StateDone)
	g.site.mu.Lock()
	n := len(g.site.jobs)
	g.site.mu.Unlock()
	if n != 1 {
		t.Fatalf("site has %d jobs, want exactly 1", n)
	}
}

func TestSubmissionIDDeduplicatesAcrossConnections(t *testing.T) {
	// Even a brand-new client (fresh wire sequence space, e.g. after a
	// submit-machine reboot) must not duplicate a journaled submission.
	g := newTestGrid(t)
	subID := NewSubmissionID()
	spec := JobSpec{Executable: g.stageProgram(t, "echo")}
	c1, err := g.client.Submit(g.site.GatekeeperAddr(), spec, SubmitOptions{SubmissionID: subID})
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewClient(nil, nil)
	fresh.SetTimeouts(300*time.Millisecond, 3)
	defer fresh.Close()
	c2, err := fresh.Submit(g.site.GatekeeperAddr(), spec, SubmitOptions{SubmissionID: subID})
	if err != nil {
		t.Fatal(err)
	}
	if c1.JobID != c2.JobID {
		t.Fatalf("duplicate submission created new job: %s vs %s", c1.JobID, c2.JobID)
	}
}

func TestJobManagerCrashAndRestart(t *testing.T) {
	// Failure type 1 (§4.2): the JobManager dies; the LRM job survives;
	// the GridManager detects the dead JM via ping, confirms the
	// Gatekeeper is alive, and requests a restart.
	g := newTestGrid(t)
	stdout := g.gassS.URLFor("jobs/jm/stdout")
	contact := g.submitAndCommit(t, JobSpec{
		Executable: g.stageProgram(t, "sleep"),
		Args:       []string{"300ms"},
		StdoutURL:  stdout.String(),
	})
	waitGramState(t, g.client, contact, StateActive)
	if err := g.site.CrashJobManager(contact.JobID); err != nil {
		t.Fatal(err)
	}
	if n := g.site.LiveJobManagers(); n != 0 {
		t.Fatalf("%d live JobManagers after the crash", n)
	}
	if err := g.client.PingGatekeeper(contact.GatekeeperAddr); err != nil {
		t.Fatalf("gatekeeper should be alive: %v", err)
	}
	if err := g.client.RestartJobManager(contact); err != nil {
		t.Fatal(err)
	}
	res, err := g.client.BatchStatus(contact.GatekeeperAddr, []string{contact.JobID})
	if err != nil || res[0].Err != nil {
		t.Fatalf("status after restart: %v / %v", err, res[0].Err)
	}
	if !res[0].JMAlive {
		t.Fatal("no live JobManager after the restart")
	}
	st := waitGramState(t, g.client, contact, StateDone)
	if !st.ExitOK {
		t.Fatal("job lost by JobManager crash")
	}
	// Output still arrives via the new JobManager's push loop.
	deadline := time.Now().Add(2 * time.Second)
	for {
		data, _ := g.gassC.ReadAll(stdout)
		if strings.Contains(string(data), "slept") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stdout after JM restart = %q", data)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestGatekeeperMachineCrashAndRestart(t *testing.T) {
	// Failure type 2 (§4.2): the whole interface machine dies. The LRM
	// job keeps running. After restart, a new JobManager reports the
	// completed job.
	g := newTestGrid(t)
	contact := g.submitAndCommit(t, JobSpec{
		Executable: g.stageProgram(t, "sleep"),
		Args:       []string{"100ms"},
	})
	waitGramState(t, g.client, contact, StateActive)
	g.site.CrashGatekeeperMachine()
	if n := g.site.LiveJobManagers(); n != 0 {
		t.Fatalf("%d JobManagers alive after machine crash", n)
	}
	if err := g.client.PingGatekeeper(contact.GatekeeperAddr); err == nil {
		t.Fatal("gatekeeper alive after machine crash")
	}
	time.Sleep(150 * time.Millisecond) // job finishes while machine is down
	if err := g.site.RestartGatekeeperMachine(); err != nil {
		t.Fatal(err)
	}
	if err := g.client.PingGatekeeper(contact.GatekeeperAddr); err != nil {
		t.Fatalf("gatekeeper not back on old address: %v", err)
	}
	if err := g.client.RestartJobManager(contact); err != nil {
		t.Fatal(err)
	}
	st := waitGramState(t, g.client, contact, StateDone)
	if !st.ExitOK {
		t.Fatalf("job lost across machine crash: %+v", st)
	}
}

func TestNetworkPartitionAndHeal(t *testing.T) {
	// Failure type 4 (§4.2): partition. The client cannot tell a crash
	// from a partition; it waits and reconnects when the network heals.
	g := newTestGrid(t)
	contact := g.submitAndCommit(t, JobSpec{
		Executable: g.stageProgram(t, "sleep"),
		Args:       []string{"100ms"},
	})
	waitGramState(t, g.client, contact, StateActive)
	g.site.Partition()
	// The JobManager lives on behind the partition; only the network is down.
	if n := g.site.LiveJobManagers(); n != 1 {
		t.Fatalf("%d live JobManagers during partition, want 1", n)
	}
	if err := g.client.PingGatekeeper(contact.GatekeeperAddr); err == nil {
		t.Fatal("gatekeeper reachable during partition")
	}
	time.Sleep(150 * time.Millisecond)
	g.site.Heal()
	// JobManager survived (it exists server-side; only the network was
	// down), so a plain reconnect finds the finished job.
	st := waitGramState(t, g.client, contact, StateDone)
	if !st.ExitOK {
		t.Fatalf("job lost across partition: %+v", st)
	}
}

func TestGSIAuthorizationPath(t *testing.T) {
	now := time.Now()
	ca, _ := gsi.NewCA("/O=Grid/CN=CA", now, 24*time.Hour)
	gm := gsi.NewGridmap(map[string]string{"/O=Grid/CN=jfrey": "jfrey"})
	g := newTestGrid(t, func(cfg *SiteConfig) {
		cfg.Anchor = ca.Certificate()
		cfg.Gridmap = gm
	})
	user, _ := ca.IssueUser("/O=Grid/CN=jfrey", now, 24*time.Hour)
	proxy, _ := gsi.NewProxy(user, now, time.Hour)
	authed := NewClient(proxy, nil)
	authed.SetTimeouts(300*time.Millisecond, 3)
	defer authed.Close()

	contact, err := authed.Submit(g.site.GatekeeperAddr(), JobSpec{
		Executable: string(Program("echo")), // inline program, no staging
		Args:       []string{"ok"},
	}, SubmitOptions{SubmissionID: NewSubmissionID(), Delegate: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := authed.Commit(contact); err != nil {
		t.Fatal(err)
	}
	st := waitGramState(t, authed, contact, StateDone)
	if st.LocalUser != "jfrey" {
		t.Fatalf("gridmap mapped to %q, want jfrey", st.LocalUser)
	}

	// An unmapped (but authenticated) user is refused.
	other, _ := ca.IssueUser("/O=Grid/CN=stranger", now, 24*time.Hour)
	stranger := NewClient(other, nil)
	stranger.SetTimeouts(300*time.Millisecond, 1)
	defer stranger.Close()
	if _, err := stranger.Submit(g.site.GatekeeperAddr(), JobSpec{Executable: "x"}, SubmitOptions{}); err == nil {
		t.Fatal("unmapped subject submitted a job")
	}

	// Another mapped user cannot poke jfrey's job.
	gm.Add("/O=Grid/CN=other", "other")
	cred2, _ := ca.IssueUser("/O=Grid/CN=other", now, 24*time.Hour)
	otherClient := NewClient(cred2, nil)
	otherClient.SetTimeouts(300*time.Millisecond, 1)
	defer otherClient.Close()
	if _, err := otherClient.Status(contact); err == nil {
		t.Fatal("foreign subject read job status")
	}
	if err := otherClient.Cancel(contact); err == nil {
		t.Fatal("foreign subject cancelled job")
	}

	// Nor can it re-commit a running job of jfrey's to re-point the job's
	// output and URL file at a GASS server of its own.
	urlFile := filepath.Join(t.TempDir(), "gass.url")
	stdout := g.gassS.URLFor("jobs/own/stdout")
	running, err := authed.Submit(g.site.GatekeeperAddr(), JobSpec{
		Executable:  string(Program("sleep")),
		Args:        []string{"200ms"},
		StdoutURL:   stdout.String(),
		GassURLFile: urlFile,
	}, SubmitOptions{SubmissionID: NewSubmissionID(), Delegate: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := authed.Commit(running); err != nil {
		t.Fatal(err)
	}
	waitGramState(t, authed, running, StateActive)
	theirs, err := gass.NewServer(t.TempDir(), gass.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer theirs.Close()
	errs, err := otherClient.BatchCommit(running.GatekeeperAddr, []string{running.JobID}, theirs.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	if errs[0].Err == nil {
		t.Fatal("foreign subject re-committed job")
	}
	if errs[0].Status != (StatusInfo{}) {
		t.Fatalf("a refused re-commit told a foreign subject the job's status %+v", errs[0].Status)
	}
	if _, err := os.Stat(urlFile); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("foreign re-commit touched the URL file (stat err=%v)", err)
	}

	// Nor can it hand jfrey's jobs a proxy of its own: the frame's proxy is
	// its own and passes vetting, but every entry is refused and no job's
	// credential changes.
	creds := func() []*gsi.Credential {
		var out []*gsi.Credential
		for _, c := range []JobContact{contact, running} {
			g.site.mu.Lock()
			job := g.site.jobs[c.JobID]
			g.site.mu.Unlock()
			job.mu.Lock()
			out = append(out, job.cred)
			job.mu.Unlock()
		}
		return out
	}
	before := creds()
	rerrs, err := otherClient.BatchRefreshCredential(running.GatekeeperAddr, []string{contact.JobID, running.JobID}, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range rerrs {
		if e == nil {
			t.Fatalf("foreign subject refreshed entry %d's credential", i)
		}
	}
	for i, c := range creds() {
		if c != before[i] {
			t.Fatalf("foreign refresh replaced job %d's credential", i)
		}
	}
	waitGramState(t, authed, running, StateDone)
	deadline := time.Now().Add(2 * time.Second)
	for {
		data, _ := g.gassC.ReadAll(stdout)
		if strings.Contains(string(data), "slept") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("owner's stdout after foreign re-commit = %q", data)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if data, _ := g.gassC.ReadAll(gass.URL{Addr: theirs.Addr(), Path: stdout.Path}); len(data) != 0 {
		t.Fatalf("output reached the foreign subject's server: %q", data)
	}
}

func TestCredentialRefreshReForward(t *testing.T) {
	now := time.Now()
	ca, _ := gsi.NewCA("/O=Grid/CN=CA", now, 48*time.Hour)
	g := newTestGrid(t, func(cfg *SiteConfig) { cfg.Anchor = ca.Certificate() })
	user, _ := ca.IssueUser("/O=Grid/CN=u", now, 24*time.Hour)
	proxy, _ := gsi.NewProxy(user, now, time.Hour)
	c := NewClient(proxy, nil)
	c.SetTimeouts(300*time.Millisecond, 3)
	defer c.Close()
	contact, err := c.Submit(g.site.GatekeeperAddr(), JobSpec{
		Executable: string(Program("sleep")), Args: []string{"200ms"},
	}, SubmitOptions{SubmissionID: NewSubmissionID(), Delegate: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(contact); err != nil {
		t.Fatal(err)
	}
	// Refresh locally with a longer-lived proxy and re-forward to the site.
	fresh, _ := gsi.NewProxy(user, now, 3*time.Hour)
	c.SetCredential(fresh)
	errs, err := c.BatchRefreshCredential(contact.GatekeeperAddr, []string{contact.JobID}, 2*time.Hour)
	if err != nil || errs[0] != nil {
		t.Fatalf("refresh: %v / %v", err, errs)
	}
	waitGramState(t, c, contact, StateDone)
	// The site now holds a credential derived from the fresh proxy: its
	// lifetime exceeds the original 1h delegation.
	g.site.mu.Lock()
	job := g.site.jobs[contact.JobID]
	g.site.mu.Unlock()
	job.mu.Lock()
	left := job.cred.TimeLeft(now)
	job.mu.Unlock()
	if left < 90*time.Minute {
		t.Fatalf("site credential lifetime %v, want ~2h after re-forward", left)
	}
}

// A refresh that lands while the job's JobManager is down still reaches the
// job: the gatekeeper installs the proxy on the job record, and the
// replacement JobManager pushes output with it. The submit-time delegation
// expires before the replacement starts, and the submit side's GASS server
// authenticates every push, so output arriving at all proves the replacement
// holds the refreshed proxy.
func TestRefreshReachesReplacementJobManager(t *testing.T) {
	now := time.Now()
	ca, _ := gsi.NewCA("/O=Grid/CN=CA", now, 48*time.Hour)
	g := newTestGrid(t, func(cfg *SiteConfig) { cfg.Anchor = ca.Certificate() })
	gs, err := gass.NewServer(t.TempDir(), gass.ServerOptions{Anchor: ca.Certificate()})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	user, _ := ca.IssueUser("/O=Grid/CN=u", now, 24*time.Hour)
	proxy, _ := gsi.NewProxy(user, now, time.Hour)
	c := NewClient(proxy, nil)
	c.SetTimeouts(300*time.Millisecond, 3)
	defer c.Close()
	const short = 200 * time.Millisecond
	stdout := gs.URLFor("jobs/refresh/stdout")
	contact, err := c.Submit(g.site.GatekeeperAddr(), JobSpec{
		Executable: string(Program("sleep")), Args: []string{(3 * short).String()},
		StdoutURL: stdout.String(),
	}, SubmitOptions{SubmissionID: NewSubmissionID(), Delegate: short})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(contact); err != nil {
		t.Fatal(err)
	}
	waitGramState(t, c, contact, StateActive)
	if err := g.site.CrashJobManager(contact.JobID); err != nil {
		t.Fatal(err)
	}
	errs, err := c.BatchRefreshCredential(contact.GatekeeperAddr, []string{contact.JobID}, 2*time.Hour)
	if err != nil || errs[0] != nil {
		t.Fatalf("refresh with the JobManager down: %v / %v", err, errs)
	}
	waitGramState(t, c, contact, StateDone)
	time.Sleep(time.Until(now.Add(short))) // the submit-time proxy is dead
	if err := c.RestartJobManager(contact); err != nil {
		t.Fatal(err)
	}
	reader := gass.NewClient(proxy, nil)
	defer reader.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		data, _ := reader.ReadAll(stdout)
		if strings.Contains(string(data), "slept") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replacement JobManager pushed no output (stdout %q)", data)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestURLFileUpdateAfterSubmitMachineRestart(t *testing.T) {
	g := newTestGrid(t)
	urlFile := filepath.Join(t.TempDir(), "gass.url")
	stdout := g.gassS.URLFor("jobs/mv/stdout")
	contact := g.submitAndCommit(t, JobSpec{
		Executable:  g.stageProgram(t, "sleep"),
		Args:        []string{"250ms"},
		StdoutURL:   stdout.String(),
		GassURLFile: urlFile,
	})
	waitGramState(t, g.client, contact, StateActive)

	// "Restart" the submit-side GASS server on a new port.
	root := g.gassS.Root()
	g.gassS.Close()
	gs2, err := gass.NewServer(root, gass.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer gs2.Close()
	// The restarted submit machine re-commits the job, naming its new GASS
	// server: the commit is a replay, the re-point is not.
	errs, err := g.client.BatchCommit(contact.GatekeeperAddr, []string{contact.JobID}, gs2.Addr(), "")
	if err != nil {
		t.Fatal(err)
	}
	if errs[0].Err != nil {
		t.Fatalf("re-commit: %v", errs[0].Err)
	}
	if st := errs[0].Status; st.JobID != contact.JobID || st.State == StateUnsubmitted {
		t.Fatalf("re-commit answered status %+v, want the committed job's", st)
	}
	got, err := gass.ReadURLFile(urlFile)
	if err != nil || got != gs2.Addr() {
		t.Fatalf("URL file = %q err=%v, want %q", got, err, gs2.Addr())
	}
	waitGramState(t, g.client, contact, StateDone)
	// Output flowed to the NEW server.
	deadline := time.Now().Add(2 * time.Second)
	for {
		data, _ := g.gassC.ReadAll(gass.URL{Addr: gs2.Addr(), Path: "jobs/mv/stdout"})
		if strings.Contains(string(data), "slept") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("stdout after GASS move = %q", data)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestProgramNameParsing(t *testing.T) {
	if _, err := ProgramName([]byte("#!/bin/sh\n")); err == nil {
		t.Fatal("non-condor executable accepted")
	}
	name, err := ProgramName(Program("mw-worker"))
	if err != nil || name != "mw-worker" {
		t.Fatalf("name=%q err=%v", name, err)
	}
}

func TestRuntimeUnknownProgram(t *testing.T) {
	g := newTestGrid(t)
	contact := g.submitAndCommit(t, JobSpec{Executable: string(Program("nonexistent"))})
	st := waitGramState(t, g.client, contact, StateFailed)
	if !strings.Contains(st.Error, "no such program") {
		t.Fatalf("error = %q", st.Error)
	}
}

// TestFaultClassTravelsOverWire: the typed fault taxonomy must survive the
// wire round trip so callers can branch on StatusInfo.Fault (or the class
// attached to a remote error) instead of matching error prose. A program
// failure is Permanent; asking a site about a job it has never heard of is
// SiteLost.
func TestFaultClassTravelsOverWire(t *testing.T) {
	g := newTestGrid(t)
	contact := g.submitAndCommit(t, JobSpec{
		Executable: g.stageProgram(t, "fail"),
	})
	st := waitGramState(t, g.client, contact, StateFailed)
	if st.Fault != faultclass.Permanent {
		t.Fatalf("fault = %v, want %v", st.Fault, faultclass.Permanent)
	}

	ghost := contact
	ghost.JobID = "wisc-job999"
	if err := g.client.RestartJobManager(ghost); err == nil {
		t.Fatal("restart of an unknown job succeeded")
	} else if !wire.IsRemote(err) {
		t.Fatalf("err = %v, want a remote error", err)
	} else if got := faultclass.ClassOf(err); got != faultclass.SiteLost {
		t.Fatalf("fault class = %v, want %v", got, faultclass.SiteLost)
	}
}
