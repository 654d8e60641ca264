package condorg

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/gsi"
	"condorg/internal/journal"
)

// TestFairSemRotation: with the cap saturated, freed slots rotate
// round-robin over owners with queued work — a deep backlog from one
// owner cannot starve another.
func TestFairSemRotation(t *testing.T) {
	s := newFairSem(1)
	if !s.tryAcquire() {
		t.Fatal("fresh semaphore refused tryAcquire")
	}
	if s.tryAcquire() {
		t.Fatal("saturated semaphore granted tryAcquire")
	}

	stop := make(chan struct{})
	grants := make(chan string, 16)
	var wg sync.WaitGroup
	enqueue := func(owner string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.acquire(owner, stop) {
				grants <- owner
				s.release()
			}
		}()
	}
	// Hostile queues 4 waiters, the well-behaved owner 1. Give the
	// waiters time to enqueue so rotation order is deterministic enough.
	for i := 0; i < 4; i++ {
		enqueue("hostile")
	}
	time.Sleep(20 * time.Millisecond)
	enqueue("nice")
	time.Sleep(20 * time.Millisecond)

	s.release() // free the slot: the chain of grants begins
	var order []string
	for i := 0; i < 5; i++ {
		select {
		case o := <-grants:
			order = append(order, o)
		case <-time.After(2 * time.Second):
			t.Fatalf("grant %d never arrived (order so far %v)", i, order)
		}
	}
	wg.Wait()
	// "nice" must be granted within the first rotation turn — i.e. no
	// later than the second grant — despite hostile's 4-deep queue.
	if order[0] != "nice" && order[1] != "nice" {
		t.Fatalf("nice starved behind hostile backlog: grant order %v", order)
	}
}

// TestFairSemStopWithdraw: a waiter whose stop channel closes must
// withdraw cleanly; if the grant raced the stop, the slot passes on
// rather than leaking.
func TestFairSemStopWithdraw(t *testing.T) {
	s := newFairSem(1)
	if !s.tryAcquire() {
		t.Fatal("tryAcquire")
	}
	stop := make(chan struct{})
	done := make(chan bool)
	go func() { done <- s.acquire("u", stop) }()
	time.Sleep(10 * time.Millisecond)
	close(stop)
	if got := <-done; got {
		t.Fatal("stopped waiter reported acquired")
	}
	s.release()
	if !s.tryAcquire() {
		t.Fatal("slot leaked after stop-withdraw")
	}
}

// TestAdmissionQuotas: the per-owner queued quota and token bucket
// reject with the typed sentinels (Permanent class), and the control
// plane maps them onto the stable quota-exceeded / rate-limited codes.
func TestAdmissionQuotas(t *testing.T) {
	w := &testWorld{runs: &atomic.Int64{}, dir: t.TempDir()}
	site := newSite(t, "quota-site", w.runs, t.TempDir(), "")
	t.Cleanup(site.Close)
	agent, err := NewAgent(AgentConfig{
		StateDir: w.dir,
		Selector: &RoundRobinSelector{Sites: []string{site.GatekeeperAddr()}},
		Tenancy:  TenancyOptions{MaxQueuedPerOwner: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)

	// Two slow jobs fill alice's queued quota; the third submit must be
	// rejected with ErrQuotaExceeded.
	for i := 0; i < 2; i++ {
		if _, err := agent.Submit(SubmitRequest{
			Owner: "alice", Executable: gram.Program("task"), Args: []string{"30s"},
		}); err != nil {
			t.Fatal(err)
		}
	}
	_, err = agent.Submit(SubmitRequest{Owner: "alice", Executable: gram.Program("task")})
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota submit: %v, want ErrQuotaExceeded", err)
	}
	if faultclass.ClassOf(err) != faultclass.Permanent {
		t.Fatalf("quota rejection classified %v, want Permanent", faultclass.ClassOf(err))
	}
	// bob's stripe is untouched by alice's saturation.
	if _, err := agent.Submit(SubmitRequest{Owner: "bob", Executable: gram.Program("task")}); err != nil {
		t.Fatalf("bob submit: %v", err)
	}

	// The same rejection through ctl.v1 carries the stable code.
	ctl, err := NewControlServer(agent)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	cli := NewControlClient(ctl.Addr())
	defer cli.Close()
	var ce *CtlError
	_, err = cli.Submit(CtlSubmit{Owner: "alice", Program: "task"})
	if !errors.As(err, &ce) || ce.Code != CtlCodeQuotaExceeded {
		t.Fatalf("ctl over-quota: %v, want code %s", err, CtlCodeQuotaExceeded)
	}
}

// TestSubmitRateLimit: the per-owner token bucket rejects a burst beyond
// its depth with ErrRateLimited, mapped to the stable rate-limited code.
func TestSubmitRateLimit(t *testing.T) {
	site := newSite(t, "rate-site", &atomic.Int64{}, t.TempDir(), "")
	t.Cleanup(site.Close)
	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: &RoundRobinSelector{Sites: []string{site.GatekeeperAddr()}},
		Tenancy: TenancyOptions{
			SubmitRate:  0.001, // refills ~never within the test
			SubmitBurst: 3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)
	for i := 0; i < 3; i++ {
		if _, err := agent.Submit(SubmitRequest{Owner: "bob", Executable: gram.Program("task")}); err != nil {
			t.Fatalf("bob submit %d: %v", i, err)
		}
	}
	_, err = agent.Submit(SubmitRequest{Owner: "bob", Executable: gram.Program("task")})
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("over-rate submit: %v, want ErrRateLimited", err)
	}
	// Other owners keep their own buckets.
	if _, err := agent.Submit(SubmitRequest{Owner: "amy", Executable: gram.Program("task")}); err != nil {
		t.Fatalf("amy submit: %v", err)
	}

	ctl, err := NewControlServer(agent)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	cli := NewControlClient(ctl.Addr())
	defer cli.Close()
	var ce *CtlError
	_, err = cli.Submit(CtlSubmit{Owner: "bob", Program: "task"})
	if !errors.As(err, &ce) || ce.Code != CtlCodeRateLimited {
		t.Fatalf("ctl over-rate: %v, want code %s", err, CtlCodeRateLimited)
	}
}

// TestMaxActivePerOwnerAllowsHeld: the active quota counts only
// non-held jobs, so holding work frees room to submit.
func TestMaxActivePerOwnerAllowsHeld(t *testing.T) {
	site := newSite(t, "active-site", &atomic.Int64{}, t.TempDir(), "")
	t.Cleanup(site.Close)
	agent, err := NewAgent(AgentConfig{
		StateDir: t.TempDir(),
		Selector: &RoundRobinSelector{Sites: []string{site.GatekeeperAddr()}},
		Tenancy:  TenancyOptions{MaxActivePerOwner: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(agent.Close)
	id, err := agent.Submit(SubmitRequest{
		Owner: "u", Executable: gram.Program("task"), Args: []string{"30s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task")}); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("second active submit: %v, want ErrQuotaExceeded", err)
	}
	if err := agent.Hold(id, "making room"); err != nil {
		t.Fatal(err)
	}
	if _, err := agent.Submit(SubmitRequest{Owner: "u", Executable: gram.Program("task")}); err != nil {
		t.Fatalf("submit after hold: %v", err)
	}
}

// TestPartitionedRecovery: jobs of many owners land in per-owner journal
// partitions and all survive a restart.
func TestPartitionedRecovery(t *testing.T) {
	dir := t.TempDir()
	site := newSite(t, "part-site", &atomic.Int64{}, t.TempDir(), "")
	t.Cleanup(site.Close)
	sel := &RoundRobinSelector{Sites: []string{site.GatekeeperAddr()}}

	a1, err := NewAgent(AgentConfig{StateDir: dir, Selector: sel})
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]string{}
	for _, owner := range []string{"amy", "ben", "cas"} {
		id, err := a1.Submit(SubmitRequest{Owner: owner, Executable: gram.Program("task"), Args: []string{"30s"}})
		if err != nil {
			t.Fatal(err)
		}
		ids[owner] = id
	}
	a1.Close()

	a2, err := NewAgent(AgentConfig{StateDir: dir, Selector: sel})
	if err != nil {
		t.Fatal(err)
	}
	for owner, id := range ids {
		info, err := a2.Status(id)
		if err != nil {
			t.Fatalf("%s's job %s lost across restart: %v", owner, id, err)
		}
		if info.Owner != owner {
			t.Fatalf("job %s recovered with owner %q, want %q", id, info.Owner, owner)
		}
	}
	if owners := a2.Owners(); len(owners) != 3 {
		t.Fatalf("recovered owners %v, want 3", owners)
	}
	a2.Close()
}

// TestStateDirFormat: the state-directory rule, through both doors that
// open a queue (NewAgent and NewStandby). A fresh directory is stamped and
// a stamped one opens; one that holds agent files but no stamp, or another
// stamp, is refused Permanent, naming the stamp, and left as it was.
func TestStateDirFormat(t *testing.T) {
	site := newSite(t, "format-site", &atomic.Int64{}, t.TempDir(), "")
	t.Cleanup(site.Close)
	sel := StaticSelector(site.GatekeeperAddr())
	primary, err := NewAgent(AgentConfig{StateDir: t.TempDir(), Selector: sel, HA: HAOptions{Enabled: true}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(primary.Close)
	ctl, err := NewControlServer(primary)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctl.Close() })

	ranOn := func(t *testing.T, dir string) {
		a, err := NewAgent(AgentConfig{StateDir: dir, Selector: sel})
		if err != nil {
			t.Fatal(err)
		}
		a.Close()
	}
	rows := []struct {
		name    string
		prepare func(t *testing.T, dir string)
		refusal string // "" when the directory opens
	}{
		{"empty", func(*testing.T, string) {}, ""},
		{"stamped", ranOn, ""},
		{"unstamped with a journal", func(t *testing.T, dir string) {
			ps, err := journal.OpenPartitionSet(filepath.Join(dir, "queue", "parts"), 0, journal.StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer ps.Close()
			st, err := ps.PartitionFor("old")
			if err == nil {
				err = st.Put("gj1", JobInfo{ID: "gj1", Owner: "old"})
			}
			if err != nil {
				t.Fatal(err)
			}
		}, "holds queue/ but no FORMAT stamp"},
		{"unstamped with only spool", func(t *testing.T, dir string) {
			if err := os.Mkdir(filepath.Join(dir, "spool"), 0o700); err != nil {
				t.Fatal(err)
			}
		}, "holds spool/ but no FORMAT stamp"},
		{"wrong number", func(t *testing.T, dir string) {
			ranOn(t, dir)
			if err := os.WriteFile(filepath.Join(dir, formatFile), []byte("2\n"), 0o600); err != nil {
				t.Fatal(err)
			}
		}, `is stamped FORMAT "2"`},
	}
	doors := []struct {
		name string
		open func(dir string) error
	}{
		{"NewAgent", func(dir string) error {
			a, err := NewAgent(AgentConfig{StateDir: dir, Selector: sel})
			if err == nil {
				a.Close()
			}
			return err
		}},
		{"NewStandby", func(dir string) error {
			sb, err := NewStandby(StandbyConfig{Primary: ctl.Addr(), StateDir: dir, LeaseTTL: 3 * time.Second})
			if err == nil {
				err = sb.Close()
			}
			return err
		}},
	}
	for _, door := range doors {
		for _, row := range rows {
			t.Run(door.name+"/"+row.name, func(t *testing.T) {
				dir := t.TempDir()
				row.prepare(t, dir)
				before, _ := os.ReadFile(filepath.Join(dir, formatFile))
				err := door.open(dir)
				after, _ := os.ReadFile(filepath.Join(dir, formatFile))
				if row.refusal == "" {
					if err != nil {
						t.Fatalf("%s refused: %v", door.name, err)
					}
					if string(after) != stateFormat+"\n" {
						t.Fatalf("FORMAT holds %q after the open, want %q", after, stateFormat+"\n")
					}
					return
				}
				if err == nil || !strings.Contains(err.Error(), row.refusal) || !strings.Contains(err.Error(), "fresh state directory") {
					t.Fatalf("%s = %v; want a refusal saying %q and what to do", door.name, err, row.refusal)
				}
				if faultclass.ClassOf(err) != faultclass.Permanent {
					t.Fatalf("refusal classified %v, want Permanent", faultclass.ClassOf(err))
				}
				if !bytes.Equal(before, after) {
					t.Fatalf("the refused directory's FORMAT went from %q to %q", before, after)
				}
			})
		}
	}
}

// TestQueueCursorOpaque: the v1 queue cursor is versioned-opaque, round
// trips across pages, and anything else — a bare job ID included — is a
// typed bad-request.
func TestQueueCursorOpaque(t *testing.T) {
	w := newWorld(t, 1)
	ctl, err := NewControlServer(w.agent)
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	cli := NewControlClient(ctl.Addr())
	defer cli.Close()
	var ids []string
	for i := 0; i < 5; i++ {
		id, err := cli.Submit(CtlSubmit{Owner: "u", Program: "task", Args: []string{"10ms"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	page1, next, err := cli.QueueFiltered(CtlQueueReq{Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(page1) != 2 || next == "" {
		t.Fatalf("page1: %d jobs, next %q", len(page1), next)
	}
	if !strings.HasPrefix(next, "c1.") {
		t.Fatalf("cursor %q lacks the c1. version prefix", next)
	}
	page2, _, err := cli.QueueFiltered(CtlQueueReq{Limit: 2, After: next})
	if err != nil {
		t.Fatal(err)
	}
	if len(page2) != 2 || page2[0].ID == page1[1].ID {
		t.Fatalf("page2 did not advance: %+v", page2)
	}
	for _, bad := range []string{"c1.!!!", page1[1].ID} {
		var ce *CtlError
		if _, _, err := cli.QueueFiltered(CtlQueueReq{After: bad}); !errors.As(err, &ce) || ce.Code != CtlCodeBadRequest {
			t.Fatalf("cursor %q: %v, want code %s", bad, err, CtlCodeBadRequest)
		}
	}
}

// TestAuthenticatedOwnerScoping drives the authenticated control plane
// directly (no gateway): owners come from the wire session, asserted
// owners are cross-checked, foreign jobs answer no-such-job, and
// agent-wide ops are admin-only.
func TestAuthenticatedOwnerScoping(t *testing.T) {
	w := newWorld(t, 1)
	now := time.Now()
	ca, err := gsi.NewCA("scope-ca", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewControlServerConfig(w.agent, "127.0.0.1:0", ControlConfig{
		Anchor: ca.Certificate(),
		OwnerOf: func(subject string) string {
			u, ok := strings.CutPrefix(subject, "/U=")
			if !ok {
				return "" // unmapped subject
			}
			return u
		},
		Admins: map[string]bool{"root": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	client := func(user string) *ControlClient {
		cred, err := ca.IssueUser("/U="+user, now, time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		cli := NewControlClientAuth(ctl.Addr(), cred)
		t.Cleanup(func() { cli.Close() })
		return cli
	}
	alice, bob, root := client("alice"), client("bob"), client("root")

	// Owner comes from the session: an empty body field is filled in, a
	// contradicting one is a typed owner-mismatch.
	id, err := alice.Submit(CtlSubmit{Program: "task", Args: []string{"10ms"}})
	if err != nil {
		t.Fatal(err)
	}
	info, err := alice.Status(id)
	if err != nil || info.Owner != "alice" {
		t.Fatalf("status: owner %q err %v, want alice", info.Owner, err)
	}
	var ce *CtlError
	if _, err := alice.Submit(CtlSubmit{Owner: "bob", Program: "task"}); !errors.As(err, &ce) || ce.Code != CtlCodeOwnerMismatch {
		t.Fatalf("spoofed submit: %v, want code %s", err, CtlCodeOwnerMismatch)
	}
	if _, _, err := alice.QueueFiltered(CtlQueueReq{Owner: "bob"}); !errors.As(err, &ce) || ce.Code != CtlCodeOwnerMismatch {
		t.Fatalf("spoofed queue: %v, want code %s", err, CtlCodeOwnerMismatch)
	}

	// Cross-owner access is indistinguishable from a missing job.
	for _, op := range []struct {
		name string
		call func() error
	}{
		{"status", func() error { _, err := bob.Status(id); return err }},
		{"rm", func() error { return bob.Remove(id) }},
		{"hold", func() error { return bob.Hold(id, "mine now") }},
		{"release", func() error { return bob.Release(id) }},
		{"log", func() error { _, err := bob.Log(id); return err }},
		{"stdout", func() error { _, err := bob.Stdout(id); return err }},
		{"trace", func() error { _, err := bob.Trace(id); return err }},
		{"wait", func() error { _, err := bob.Wait(id, time.Second); return err }},
	} {
		err := op.call()
		if !errors.As(err, &ce) || ce.Code != CtlCodeNoSuchJob {
			t.Fatalf("bob %s on alice's job: %v, want code %s", op.name, err, CtlCodeNoSuchJob)
		}
	}

	// Listings are scoped: bob sees nothing, alice sees hers, the admin
	// sees everything.
	if jobs, _ := bob.Queue(); len(jobs) != 0 {
		t.Fatalf("bob sees %d foreign jobs", len(jobs))
	}
	if jobs, _ := alice.Queue(); len(jobs) != 1 {
		t.Fatalf("alice sees %d jobs, want 1", len(jobs))
	}
	if jobs, err := root.Queue(); err != nil || len(jobs) != 1 {
		t.Fatalf("admin queue: %d jobs, err %v", len(jobs), err)
	}

	// Agent-wide ops are admin-only.
	if _, err := alice.Metrics(); !errors.As(err, &ce) || ce.Code != CtlCodeForbidden {
		t.Fatalf("tenant metrics: %v, want code %s", err, CtlCodeForbidden)
	}
	if _, err := alice.Health(); !errors.As(err, &ce) || ce.Code != CtlCodeForbidden {
		t.Fatalf("tenant health: %v, want code %s", err, CtlCodeForbidden)
	}
	if _, err := alice.JournalSnapshot(0); !errors.As(err, &ce) || ce.Code != CtlCodeForbidden {
		t.Fatalf("tenant journal.snapshot: %v, want code %s", err, CtlCodeForbidden)
	}
	if _, err := root.Metrics(); err != nil {
		t.Fatalf("admin metrics: %v", err)
	}
	// An unmapped subject is rejected before any op runs.
	ghostCred, err := ca.IssueUser("/O=elsewhere/U=ghost", now, time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	ghost := NewControlClientAuth(ctl.Addr(), ghostCred)
	defer ghost.Close()
	if _, err := ghost.Queue(); !errors.As(err, &ce) || ce.Code != CtlCodeForbidden {
		t.Fatalf("unmapped subject: %v, want code %s", err, CtlCodeForbidden)
	}
}
