package credmgr

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/gram"
	"condorg/internal/gsi"
	"condorg/internal/lrm"
)

type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// world sets up a CA, a user credential, a site, and an agent.
type world struct {
	ca      *gsi.CA
	user    *gsi.Credential
	clk     *fakeClock
	agent   *condorg.Agent
	site    *gram.Site
	myproxy *MyProxyClient // nil unless the world was built with a password
}

// newWorld builds the world. A non-empty pass also starts a MyProxy server
// and makes account "jfrey" on it, with that password, the agent's default
// renewal binding (TenancyOptions.MyProxyDefault).
func newWorld(t *testing.T, pass string) *world {
	t.Helper()
	clk := &fakeClock{now: time.Date(2001, 8, 6, 9, 0, 0, 0, time.UTC)}
	ca, err := gsi.NewCA("/O=Grid/CN=CA", clk.Now(), 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	user, err := ca.IssueUser("/O=Grid/CN=jfrey", clk.Now(), 30*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	cluster, _ := lrm.NewCluster(lrm.Config{Name: "s", Cpus: 4})
	rt := gram.NewFuncRuntime()
	rt.Register("task", func(ctx context.Context, args []string, _ []byte, stdout, _ io.Writer, _ map[string]string) error {
		d := 10 * time.Millisecond
		if len(args) > 0 {
			if p, err := time.ParseDuration(args[0]); err == nil {
				d = p
			}
		}
		select {
		case <-time.After(d):
			fmt.Fprintln(stdout, "ok")
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	})
	site, err := gram.NewSite(gram.SiteConfig{
		Name: "s", Cluster: cluster, Runtime: rt, StateDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)

	w := &world{ca: ca, user: user, clk: clk, site: site}
	var tenancy condorg.TenancyOptions
	if pass != "" {
		srv, err := NewMyProxyServer(MyProxyOptions{Clock: clk.Now})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		w.myproxy = NewMyProxyClient(srv.Addr(), nil, clk.Now)
		t.Cleanup(func() { w.myproxy.Close() })
		tenancy.MyProxyDefault = &condorg.MyProxyBinding{Addr: srv.Addr(), User: "jfrey", Pass: pass}
	}
	proxy, err := gsi.NewProxy(user, clk.Now(), 2*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	w.agent, err = condorg.NewAgent(condorg.AgentConfig{
		StateDir:   t.TempDir(),
		Credential: proxy,
		Clock:      clk.Now,
		Selector:   condorg.StaticSelector(site.GatekeeperAddr()),
		Probe:      condorg.ProbeOptions{Interval: 40 * time.Millisecond},
		Tenancy:    tenancy,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.agent.Close)
	return w
}

func (w *world) submitLong(t *testing.T) string {
	t.Helper()
	id, err := w.agent.Submit(condorg.SubmitRequest{
		Owner: "jfrey", Executable: gram.Program("task"), Args: []string{"30s"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestWarnBeforeExpiry(t *testing.T) {
	w := newWorld(t, "")
	id := w.submitLong(t)
	defer w.agent.Remove(id)
	mon := NewMonitor(MonitorConfig{
		Agent: w.agent, Owner: "jfrey", Clock: w.clk.Now, WarnThreshold: time.Hour,
	})
	// 2h left: no warning.
	if res := mon.Scan(); res.Warned || len(res.Held) != 0 {
		t.Fatalf("early scan acted: %+v", res)
	}
	// 30m left: warn once.
	w.clk.Advance(90 * time.Minute)
	res := mon.Scan()
	if !res.Warned {
		t.Fatalf("no warning at 30m left: %+v", res)
	}
	if res := mon.Scan(); res.Warned {
		t.Fatal("warning repeated on next scan")
	}
	msgs := w.agent.Mailbox().Messages("jfrey")
	if len(msgs) != 1 || !strings.Contains(msgs[0].Subject, "expiring") {
		t.Fatalf("mailbox = %+v", msgs)
	}
}

func TestExpiredCredentialHoldsJobs(t *testing.T) {
	w := newWorld(t, "")
	id := w.submitLong(t)
	mon := NewMonitor(MonitorConfig{
		Agent: w.agent, Owner: "jfrey", Clock: w.clk.Now, WarnThreshold: time.Hour,
	})
	w.clk.Advance(3 * time.Hour) // proxy (2h) now expired
	res := mon.Scan()
	if len(res.Held) != 1 || res.Held[0] != id {
		t.Fatalf("held = %v", res.Held)
	}
	info, _ := w.agent.Status(id)
	if info.State != condorg.Held || !strings.Contains(info.HoldReason, "credential") {
		t.Fatalf("job after expiry: %+v", info)
	}
	msgs := w.agent.Mailbox().Messages("jfrey")
	found := false
	for _, m := range msgs {
		if strings.Contains(m.Subject, "expired") && strings.Contains(m.Body, "cannot run again until") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no expiry e-mail: %+v", msgs)
	}
	// A second scan does not re-hold (nothing left to hold).
	if res := mon.Scan(); len(res.Held) != 0 {
		t.Fatalf("second scan held again: %v", res.Held)
	}
}

func TestRefreshReleasesAndCompletes(t *testing.T) {
	w := newWorld(t, "")
	id, err := w.agent.Submit(condorg.SubmitRequest{
		Owner: "jfrey", Executable: gram.Program("task"), Args: []string{"50ms"},
	})
	if err != nil {
		t.Fatal(err)
	}
	mon := NewMonitor(MonitorConfig{
		Agent: w.agent, Owner: "jfrey", Clock: w.clk.Now, WarnThreshold: time.Hour,
	})
	w.clk.Advance(3 * time.Hour)
	if res := mon.Scan(); len(res.Held) != 1 {
		t.Fatalf("expiry scan held %v", res.Held)
	}
	// User refreshes: new proxy from the long-lived user credential.
	fresh, err := gsi.NewProxy(w.user, w.clk.Now(), 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	res := mon.Refresh("jfrey", fresh)
	if len(res.Released) != 1 || res.Released[0] != id {
		t.Fatalf("released = %v", res.Released)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	info, err := w.agent.Wait(ctx, id)
	if err != nil || info.State != condorg.Completed {
		t.Fatalf("after refresh: %v %v (err=%q)", info.State, err, info.Error)
	}
}

func TestMonitorIgnoresIdleUsers(t *testing.T) {
	w := newWorld(t, "")
	mon := NewMonitor(MonitorConfig{
		Agent: w.agent, Owner: "jfrey", Clock: w.clk.Now, WarnThreshold: time.Hour,
	})
	w.clk.Advance(3 * time.Hour) // expired, but no queued jobs
	if res := mon.Scan(); res.Warned || len(res.Held) != 0 {
		t.Fatalf("monitor acted with no pending jobs: %+v", res)
	}
}

func TestMyProxyStoreGetDestroy(t *testing.T) {
	clk := &fakeClock{now: time.Date(2001, 8, 6, 9, 0, 0, 0, time.UTC)}
	ca, _ := gsi.NewCA("/O=Grid/CN=CA", clk.Now(), 365*24*time.Hour)
	user, _ := ca.IssueUser("/O=Grid/CN=u", clk.Now(), 30*24*time.Hour)
	longProxy, _ := gsi.NewProxy(user, clk.Now(), 7*24*time.Hour) // a week

	srv, err := NewMyProxyServer(MyProxyOptions{Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mc := NewMyProxyClient(srv.Addr(), nil, clk.Now)
	defer mc.Close()

	if err := mc.Store("u", "hunter2", longProxy); err != nil {
		t.Fatal(err)
	}
	short, err := mc.Get("u", "hunter2", 12*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if left := short.TimeLeft(clk.Now()); left > 12*time.Hour || left <= 0 {
		t.Fatalf("short proxy lifetime = %v", left)
	}
	if short.Subject() != "/O=Grid/CN=u" {
		t.Fatalf("short proxy subject = %q", short.Subject())
	}
	// Chain verifies against the CA.
	if _, err := gsi.VerifyChain(short.Chain, ca.Certificate(), clk.Now()); err != nil {
		t.Fatal(err)
	}
	// Wrong password.
	if _, err := mc.Get("u", "wrong", time.Hour); err == nil {
		t.Fatal("wrong password accepted")
	}
	// Unknown user.
	if _, err := mc.Get("ghost", "x", time.Hour); err == nil {
		t.Fatal("unknown user served")
	}
	// Destroy with wrong password fails; with right one succeeds.
	if err := mc.Destroy("u", "wrong"); err == nil {
		t.Fatal("destroy with wrong password succeeded")
	}
	if err := mc.Destroy("u", "hunter2"); err != nil {
		t.Fatal(err)
	}
	if _, err := mc.Get("u", "hunter2", time.Hour); err == nil {
		t.Fatal("destroyed credential still served")
	}
}

func TestMyProxyRefusesExpiredStored(t *testing.T) {
	clk := &fakeClock{now: time.Date(2001, 8, 6, 9, 0, 0, 0, time.UTC)}
	ca, _ := gsi.NewCA("/O=Grid/CN=CA", clk.Now(), 365*24*time.Hour)
	user, _ := ca.IssueUser("/O=Grid/CN=u", clk.Now(), 30*24*time.Hour)
	shortLived, _ := gsi.NewProxy(user, clk.Now(), time.Hour)
	srv, _ := NewMyProxyServer(MyProxyOptions{Clock: clk.Now})
	defer srv.Close()
	mc := NewMyProxyClient(srv.Addr(), nil, clk.Now)
	defer mc.Close()
	if err := mc.Store("u", "p", shortLived); err != nil {
		t.Fatal(err)
	}
	clk.Advance(2 * time.Hour)
	if _, err := mc.Get("u", "p", time.Hour); err == nil {
		t.Fatal("proxy derived from expired stored credential")
	}
	// Storing an already-expired credential is refused outright.
	if err := mc.Store("u2", "p", shortLived); err == nil {
		t.Fatal("expired credential stored")
	}
}

func TestAutoRenewalFromMyProxy(t *testing.T) {
	w := newWorld(t, "s3cret")
	id := w.submitLong(t)
	defer w.agent.Remove(id)

	// Deposit a week-long proxy in MyProxy.
	longProxy, _ := gsi.NewProxy(w.user, w.clk.Now(), 7*24*time.Hour)
	if err := w.myproxy.Store("jfrey", "s3cret", longProxy); err != nil {
		t.Fatal(err)
	}

	mon := NewMonitor(MonitorConfig{
		Agent: w.agent, Owner: "jfrey", Clock: w.clk.Now,
		WarnThreshold: time.Hour,
		RenewLifetime: 12 * time.Hour,
	})
	defer mon.Stop()
	// Let the agent proxy run down to 30 minutes: auto-renew, no hold.
	w.clk.Advance(90 * time.Minute)
	res := mon.Scan()
	if !res.Renewed {
		t.Fatalf("no auto-renewal: %+v", res)
	}
	if len(res.Held) != 0 {
		t.Fatalf("auto-renewal still held jobs: %v", res.Held)
	}
	if left := w.agent.OwnerCredential("jfrey").TimeLeft(w.clk.Now()); left < 11*time.Hour {
		t.Fatalf("owner credential lifetime after renewal = %v", left)
	}
	info, _ := w.agent.Status(id)
	if info.State == condorg.Held {
		t.Fatal("job held despite auto-renewal")
	}
	if got := mon.Stats(); got.Renewals != 1 || got.LastErr != nil {
		t.Fatalf("stats after renewal = %+v", got)
	}
}

func TestMonitorStartStop(t *testing.T) {
	w := newWorld(t, "")
	mon := NewMonitor(MonitorConfig{
		Agent: w.agent, Owner: "jfrey", Clock: w.clk.Now,
		Interval: 10 * time.Millisecond,
	})
	mon.Start()
	mon.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for {
		if mon.Stats().Scans >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background monitor never scanned")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mon.Stop()
	scans := mon.Stats().Scans
	time.Sleep(50 * time.Millisecond)
	if after := mon.Stats().Scans; after != scans {
		t.Fatal("monitor kept scanning after Stop")
	}
}

// One scan loop covers every owner with queued jobs, and each owner renews
// from their own MyProxy binding — the refreshed proxies carry the right
// identities.
func TestMultiOwnerRenewalPerBinding(t *testing.T) {
	w := newWorld(t, "")
	alice, err := w.ca.IssueUser("/O=Grid/CN=alice", w.clk.Now(), 30*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}

	srvJ, _ := NewMyProxyServer(MyProxyOptions{Clock: w.clk.Now})
	defer srvJ.Close()
	srvA, _ := NewMyProxyServer(MyProxyOptions{Clock: w.clk.Now})
	defer srvA.Close()
	longJ, _ := gsi.NewProxy(w.user, w.clk.Now(), 7*24*time.Hour)
	longA, _ := gsi.NewProxy(alice, w.clk.Now(), 7*24*time.Hour)
	mcJ := NewMyProxyClient(srvJ.Addr(), nil, w.clk.Now)
	defer mcJ.Close()
	mcA := NewMyProxyClient(srvA.Addr(), nil, w.clk.Now)
	defer mcA.Close()
	if err := mcJ.Store("jfrey", "pj", longJ); err != nil {
		t.Fatal(err)
	}
	if err := mcA.Store("alice", "pa", longA); err != nil {
		t.Fatal(err)
	}

	proxy, _ := gsi.NewProxy(w.user, w.clk.Now(), 2*time.Hour)
	agent, err := condorg.NewAgent(condorg.AgentConfig{
		StateDir:   t.TempDir(),
		Credential: proxy,
		Clock:      w.clk.Now,
		Selector:   condorg.StaticSelector(w.site.GatekeeperAddr()),
		Probe:      condorg.ProbeOptions{Interval: 40 * time.Millisecond},
		Tenancy: condorg.TenancyOptions{MyProxy: map[string]condorg.MyProxyBinding{
			"jfrey": {Addr: srvJ.Addr(), User: "jfrey", Pass: "pj"},
			"alice": {Addr: srvA.Addr(), User: "alice", Pass: "pa"},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	for _, owner := range []string{"jfrey", "alice"} {
		if _, err := agent.Submit(condorg.SubmitRequest{
			Owner: owner, Executable: gram.Program("task"), Args: []string{"30s"},
		}); err != nil {
			t.Fatal(err)
		}
	}

	mon := NewMonitor(MonitorConfig{
		Agent: agent, Clock: w.clk.Now, WarnThreshold: time.Hour,
		RenewLifetime: 12 * time.Hour,
	})
	defer mon.Stop()
	w.clk.Advance(90 * time.Minute) // both owners down to 30m
	res := mon.Scan()
	if len(res.Owners) != 2 {
		t.Fatalf("scanned owners = %+v", res.Owners)
	}
	for _, os := range res.Owners {
		if !os.Renewed || os.Err != nil || len(os.Held) != 0 {
			t.Fatalf("owner %q not renewed cleanly: %+v", os.Owner, os)
		}
	}
	if got := mon.Stats().Renewals; got != 2 {
		t.Fatalf("renewals = %d", got)
	}
	// Each owner's fresh proxy came from *their* server: the subjects differ.
	if s := agent.OwnerCredential("jfrey").Subject(); s != "/O=Grid/CN=jfrey" {
		t.Fatalf("jfrey renewed as %q", s)
	}
	if s := agent.OwnerCredential("alice").Subject(); s != "/O=Grid/CN=alice" {
		t.Fatalf("alice renewed as %q", s)
	}
}

// A failed renewal is not swallowed: Stats carries a typed *ScanError, the
// owner is notified, and the warn/hold ladder still runs on the old proxy.
func TestScanErrorSurfaced(t *testing.T) {
	w := newWorld(t, "nope")
	id := w.submitLong(t)
	// Nothing stored under "jfrey": every renewal attempt fails.
	mon := NewMonitor(MonitorConfig{
		Agent: w.agent, Owner: "jfrey", Clock: w.clk.Now, WarnThreshold: time.Hour,
	})
	defer mon.Stop()
	w.clk.Advance(90 * time.Minute)
	res := mon.Scan()
	if len(res.Owners) != 1 || res.Owners[0].Err == nil {
		t.Fatalf("scan error not reported: %+v", res.Owners)
	}
	if !res.Warned {
		t.Fatal("failed renewal suppressed the expiry warning")
	}
	var se *ScanError
	if err := mon.Stats().LastErr; !errors.As(err, &se) || se.Owner != "jfrey" || se.Op != "renew" {
		t.Fatalf("Stats().LastErr = %v", err)
	}
	found := false
	for _, m := range w.agent.Mailbox().Messages("jfrey") {
		if strings.Contains(m.Subject, "renewal failed") {
			found = true
		}
	}
	if !found {
		t.Fatal("no renewal-failure notification")
	}
	// The proxy eventually expires with renewal still failing: jobs hold.
	w.clk.Advance(time.Hour)
	if res := mon.Scan(); len(res.Held) != 1 || res.Held[0] != id {
		t.Fatalf("expiry with broken MyProxy did not hold: %+v", res)
	}
}

// The per-owner renewal jitter is deterministic and bounded.
func TestRenewJitterDeterministic(t *testing.T) {
	mon := NewMonitor(MonitorConfig{
		Agent: nil, Clock: gsi.WallClock,
		RenewLead: time.Hour, RenewJitter: 30 * time.Minute,
	})
	a, b := mon.leadFor("alice"), mon.leadFor("bob")
	for _, d := range []time.Duration{a, b} {
		if d < time.Hour || d >= 90*time.Minute {
			t.Fatalf("lead %v outside [1h, 1h30m)", d)
		}
	}
	if a == b {
		t.Fatal("distinct owners landed on identical jittered leads")
	}
	if mon.leadFor("alice") != a {
		t.Fatal("jitter not stable across calls")
	}
}
