package credmgr

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/gram"
	"condorg/internal/gsi"
	"condorg/internal/lrm"
	"condorg/internal/obs"
)

// paddedProgram inflates a runtime program name to n bytes so staging
// spans many chunks (mirrors the condorg staging tests).
func paddedProgram(name string, n int, fill byte) []byte {
	prog := gram.Program(name)
	if len(prog) >= n {
		return prog
	}
	return append(prog, bytes.Repeat([]byte{fill}, n-len(prog))...)
}

// credChaosRuntime counts COMPLETED executions per job key (args[0]) for
// the exactly-once assertion, and advances the virtual clock a little
// inside every execution so credential lifetime drains mid-run, not just
// between scheduler events.
func credChaosRuntime(mu *sync.Mutex, completions map[string]int, clk *fakeClock) *gram.FuncRuntime {
	rt := gram.NewFuncRuntime()
	rt.Register("chaos", func(ctx context.Context, args []string, _ []byte, stdout, _ io.Writer, _ map[string]string) error {
		d := 30 * time.Millisecond
		if len(args) > 1 {
			if p, err := time.ParseDuration(args[1]); err == nil {
				d = p
			}
		}
		clk.Advance(2 * time.Minute) // mid-run lifetime drain
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
		mu.Lock()
		completions[args[0]]++
		mu.Unlock()
		fmt.Fprintf(stdout, "chaos done %s\n", args[0])
		return nil
	})
	return rt
}

// runCredChaosSeed drives one seeded credential-expiry schedule: two
// owners' jobs run against authenticated, scope-enforcing sites on 2-hour
// proxies while the virtual clock lurches forward 8–20 minutes per event —
// expiring proxies mid-run and mid-stage-in. The multi-tenant monitor must
// keep both owners renewed from their MyProxy accounts and re-delegate
// in-band, so every job drains to Completed with zero lost work, zero
// double executions, and zero hold/release cycles.
func runCredChaosSeed(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	clk := &fakeClock{now: time.Date(2001, 8, 6, 9, 0, 0, 0, time.UTC)}
	var mu sync.Mutex
	completions := map[string]int{}
	rt := credChaosRuntime(&mu, completions, clk)

	ca, err := gsi.NewCA("/O=Grid/CN=CA", clk.Now(), 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	owners := []string{"jfrey", "alice"}
	users := make(map[string]*gsi.Credential, len(owners))
	gridmap := map[string]string{}
	for _, o := range owners {
		u, err := ca.IssueUser("/O=Grid/CN="+o, clk.Now(), 30*24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		users[o] = u
		gridmap["/O=Grid/CN="+o] = o
	}

	// Authenticated, scope-enforcing sites: every delegation the agent
	// sends is checked against the CA anchor AND its site scope.
	var gks []string
	const nSites = 2
	for i := 0; i < nSites; i++ {
		cluster, err := lrm.NewCluster(lrm.Config{Name: fmt.Sprintf("c%d", i), Cpus: 4})
		if err != nil {
			t.Fatal(err)
		}
		site, err := gram.NewSite(gram.SiteConfig{
			Name:          fmt.Sprintf("c%d", i),
			Anchor:        ca.Certificate(),
			Gridmap:       gsi.NewGridmap(gridmap),
			Cluster:       cluster,
			Runtime:       rt,
			StateDir:      t.TempDir(),
			Clock:         clk.Now,
			CommitTimeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(site.Close)
		gks = append(gks, site.GatekeeperAddr())
	}

	// One MyProxy server, one account per owner, week-long deposits.
	srv, err := NewMyProxyServer(MyProxyOptions{Clock: clk.Now})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	mc := NewMyProxyClient(srv.Addr(), nil, clk.Now)
	defer mc.Close()
	bindings := make(map[string]condorg.MyProxyBinding, len(owners))
	for _, o := range owners {
		long, err := gsi.NewProxy(users[o], clk.Now(), 7*24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if err := mc.Store(o, "pw-"+o, long); err != nil {
			t.Fatal(err)
		}
		bindings[o] = condorg.MyProxyBinding{Addr: srv.Addr(), User: o, Pass: "pw-" + o}
	}

	agent, err := condorg.NewAgent(condorg.AgentConfig{
		StateDir: t.TempDir(),
		Clock:    clk.Now,
		Selector: &condorg.RoundRobinSelector{Sites: gks},
		Probe:    condorg.ProbeOptions{Interval: 30 * time.Millisecond},
		// Per-owner bindings: the monitor renews each owner from their own
		// MyProxy account.
		Tenancy: condorg.TenancyOptions{MyProxy: bindings},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()
	// Each owner starts on their own short (2h) proxy — jobs must belong
	// to the subject the renewals will re-delegate, or the sites would
	// rightly refuse the mid-flight identity switch.
	for _, o := range owners {
		p, err := gsi.NewProxy(users[o], clk.Now(), 2*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		agent.SetOwnerCredential(o, p)
	}

	mon := NewMonitor(MonitorConfig{
		Agent: agent, Clock: clk.Now,
		WarnThreshold: 30 * time.Minute,
		RenewLead:     50 * time.Minute,
		RenewJitter:   10 * time.Minute,
		RenewLifetime: 2 * time.Hour,
	})
	defer mon.Stop()

	submitJob := func(i int, owner string) string {
		d := time.Duration(30+rng.Intn(90)) * time.Millisecond
		id, err := agent.Submit(condorg.SubmitRequest{
			Owner: owner,
			// A 320 KiB executable, a push of three parallel chunks: the
			// clock lurches land mid-stage-in, not only mid-run.
			Executable: paddedProgram("chaos", 5*64<<10, byte('a'+i)),
			Args:       []string{fmt.Sprintf("j%d", i), d.String()},
		})
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	ids := map[string]string{} // job id -> completion key
	job := 0
	for _, o := range owners {
		for k := 0; k < 2; k++ {
			ids[submitJob(job, o)] = fmt.Sprintf("j%d", job)
			job++
		}
	}

	// The storm: the virtual clock lurches forward while jobs stage and
	// run; the monitor scans after every lurch, as its Start loop would.
	// Fresh jobs join mid-storm so some submissions ride freshly renewed
	// proxies and some staging windows straddle a renewal.
	for ev := 0; ev < 14; ev++ {
		time.Sleep(time.Duration(20+rng.Intn(40)) * time.Millisecond)
		clk.Advance(time.Duration(8+rng.Intn(13)) * time.Minute)
		mon.Scan()
		if ev == 3 || ev == 7 {
			o := owners[rng.Intn(len(owners))]
			ids[submitJob(job, o)] = fmt.Sprintf("j%d", job)
			job++
		}
	}
	mon.Scan()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := agent.WaitAll(ctx); err != nil {
		for id := range ids {
			info, _ := agent.Status(id)
			t.Logf("job %s: state=%v hold=%q err=%q", id, info.State, info.HoldReason, info.Error)
		}
		t.Fatalf("queue never drained: %v", err)
	}

	st := mon.Stats()
	if st.Renewals < 1 {
		t.Fatalf("storm finished with zero proactive renewals: %+v", st)
	}
	if st.LastErr != nil {
		t.Fatalf("scan error during storm: %v", st.LastErr)
	}

	credRefreshes := 0
	for id, key := range ids {
		info, err := agent.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if info.State != condorg.Completed {
			t.Fatalf("job %s finished as %v (hold=%q err=%q)", id, info.State, info.HoldReason, info.Error)
		}
		mu.Lock()
		n := completions[key]
		mu.Unlock()
		if n < 1 {
			t.Fatalf("job %s reported Completed but never ran (lost work)", id)
		}
		tl, err := agent.Trace(id)
		if err != nil {
			t.Fatal(err)
		}
		if n > info.Resubmits+info.Migrations+1 {
			t.Fatalf("job %s ran to completion %d times with %d resubmits — double execution\ntrace: %+v",
				id, n, info.Resubmits, tl.Events)
		}
		for _, evt := range tl.Events {
			switch evt.Phase {
			case obs.PhaseCredRefresh:
				if evt.Class == "" {
					credRefreshes++
				}
			case obs.PhaseHold, obs.PhaseRelease:
				// Proactive renewal + in-band re-delegation means the
				// expiring proxies never parked a single job.
				t.Fatalf("job %s saw %q during the storm — renewal was not in-band:\n%+v",
					id, evt.Phase, tl.Events)
			}
		}
	}
	if credRefreshes < 1 {
		t.Fatal("storm finished without a single successful in-band re-delegation")
	}
}

// TestCredChaos is the seeded credential-expiry storm; each seed is one
// reproducible schedule:
//
//	go test -run 'TestCredChaos/seed=2' ./internal/credmgr/
func TestCredChaos(t *testing.T) {
	seeds := 5
	if testing.Short() {
		seeds = 3
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if !t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runCredChaosSeed(t, seed) }) {
			t.Fatalf("credential chaos failed at seed %d; reproduce with: go test -run 'TestCredChaos/seed=%d' ./internal/credmgr/", seed, seed)
		}
	}
}
