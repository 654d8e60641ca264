package glidein

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"condorg/internal/condor"
	"condorg/internal/gram"
	"condorg/internal/gridftp"
	"condorg/internal/lrm"
)

// glideinWorld wires a full Figure-2 topology: a user-side personal pool
// (collector, schedd, negotiator), a binary repository, and N GRAM sites
// whose runtimes carry the glidein bootstrap.
type glideinWorld struct {
	coll    *condor.Collector
	schedd  *condor.Schedd
	neg     *condor.Negotiator
	repo    *gridftp.Server
	sites   []*gram.Site
	factory *Factory
	jobRT   *condor.Runtime
}

func newGlideinWorld(t *testing.T, numSites, cpusPerSite int) *glideinWorld {
	t.Helper()
	w := &glideinWorld{}
	var err error
	w.coll, err = condor.NewCollector(condor.CollectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.coll.Close() })

	// User job registry: what the glided-in slots can execute.
	w.jobRT = condor.NewRuntime()
	w.jobRT.Register("work", func(_ context.Context, jc *condor.JobContext) error {
		fmt.Fprintf(jc.Stdout, "done %s\n", strings.Join(jc.Args, " "))
		return nil
	})

	// Central repository with the daemon payload.
	w.repo, err = gridftp.NewServer(t.TempDir(), gridftp.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.repo.Close() })
	ftp := gridftp.NewClient(nil, nil, 2)
	defer ftp.Close()
	if err := ftp.Put(w.repo.Addr(), StartdBlob, []byte("condor_startd v6.3 payload")); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < numSites; i++ {
		cluster, err := lrm.NewCluster(lrm.Config{Name: fmt.Sprintf("site%d", i), Cpus: cpusPerSite})
		if err != nil {
			t.Fatal(err)
		}
		rt := gram.NewFuncRuntime()
		InstallBootstrap(rt, w.jobRT, nil, nil, nil)
		site, err := gram.NewSite(gram.SiteConfig{
			Name:     fmt.Sprintf("site%d", i),
			Cluster:  cluster,
			Runtime:  rt,
			StateDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(site.Close)
		w.sites = append(w.sites, site)
	}

	w.schedd, err = condor.NewSchedd(condor.ScheddConfig{Name: "user", SpoolDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.schedd.Close)
	w.neg = condor.NewNegotiator(w.coll.Addr(), nil, nil, w.schedd)
	t.Cleanup(w.neg.Stop)

	w.factory = NewFactory(FactoryConfig{
		CollectorAddr:     w.coll.Addr(),
		RepoAddr:          w.repo.Addr(),
		Lease:             5 * time.Second,
		IdleTimeout:       2 * time.Second,
		AdvertiseInterval: 15 * time.Millisecond,
	})
	w.factory.Client().SetTimeouts(300*time.Millisecond, 3)
	t.Cleanup(w.factory.Close)
	return w
}

func (w *glideinWorld) waitSlots(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		if w.coll.Len() >= n {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("only %d slots joined the pool, want %d", w.coll.Len(), n)
}

func TestPilotJoinsPoolAndRunsJob(t *testing.T) {
	w := newGlideinWorld(t, 1, 2)
	if _, err := w.factory.SubmitPilot(w.sites[0].GatekeeperAddr(), "wisc"); err != nil {
		t.Fatal(err)
	}
	w.waitSlots(t, 1)

	// The glided-in slot carries the GlideIn markers.
	cc := condor.NewCollectorClient(w.coll.Addr(), nil, nil)
	defer cc.Close()
	ads, err := cc.Query("Machine", `GlideIn == "true"`)
	if err != nil || len(ads) != 1 {
		t.Fatalf("glidein ads = %d err=%v", len(ads), err)
	}
	if got := ads[0].EvalString("GlideInSite", ""); got != "wisc" {
		t.Fatalf("GlideInSite = %q", got)
	}

	// A pool job now matches and runs on the remote slot.
	id, _ := w.schedd.Submit(condor.JobAd("user", "work", "unit-7"))
	w.neg.Start(15 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	if err := w.schedd.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	j, _ := w.schedd.Job(id)
	if j.State != condor.PoolCompleted || !strings.Contains(string(j.Stdout), "done unit-7") {
		t.Fatalf("job %v stdout=%q err=%q", j.State, j.Stdout, j.Err)
	}
}

func TestPilotFailsWhenRepoUnreachable(t *testing.T) {
	w := newGlideinWorld(t, 1, 1)
	w.repo.Close() // repository offline: the bootstrap cannot fetch binaries
	pilot, err := w.factory.SubmitPilot(w.sites[0].GatekeeperAddr(), "wisc")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		st, err := w.factory.Status(pilot)
		if err == nil && st.State == gram.StateFailed {
			if !strings.Contains(st.Error, "fetch binaries") {
				t.Fatalf("failure reason = %q", st.Error)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("pilot with unreachable repo never failed")
}

func TestIdleGlideInRetires(t *testing.T) {
	w := newGlideinWorld(t, 1, 1)
	w.factory.cfg.IdleTimeout = 100 * time.Millisecond
	pilot, err := w.factory.SubmitPilot(w.sites[0].GatekeeperAddr(), "wisc")
	if err != nil {
		t.Fatal(err)
	}
	w.waitSlots(t, 1)
	// No jobs arrive; the daemon must retire and the GRAM job complete.
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		st, err := w.factory.Status(pilot)
		if err == nil && st.State == gram.StateDone {
			if w.coll.Len() != 0 {
				t.Fatal("retired glidein left its ad behind")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("idle glidein never retired (runaway daemon)")
}

func TestLeaseExpiryRetiresGlideIn(t *testing.T) {
	w := newGlideinWorld(t, 1, 1)
	w.factory.cfg.Lease = 150 * time.Millisecond
	w.factory.cfg.IdleTimeout = time.Hour // only the lease can end it
	pilot, err := w.factory.SubmitPilot(w.sites[0].GatekeeperAddr(), "wisc")
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		st, err := w.factory.Status(pilot)
		if err == nil && st.State == gram.StateDone {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("leased glidein never retired")
}

func TestFloodCreatesPersonalPool(t *testing.T) {
	w := newGlideinWorld(t, 3, 2)
	sites := map[string]string{}
	for i, s := range w.sites {
		sites[fmt.Sprintf("site%d", i)] = s.GatekeeperAddr()
	}
	pilots, err := w.factory.Flood(sites, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(pilots) != 6 {
		t.Fatalf("flood sent %d pilots, want 6", len(pilots))
	}
	w.waitSlots(t, 6)
	// 10 jobs across the 6-slot dynamic pool.
	for i := 0; i < 10; i++ {
		w.schedd.Submit(condor.JobAd("user", "work", fmt.Sprint(i)))
	}
	w.neg.Start(15 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := w.schedd.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	_, _, done := w.schedd.Counts()
	if done != 10 {
		t.Fatalf("completed %d/10", done)
	}
}

func TestPilotArgsRoundTrip(t *testing.T) {
	cfg := pilotConfig{
		collectorAddr: "1.2.3.4:9618", repoAddr: "5.6.7.8:2811",
		slotName: "g1", siteLabel: "anl",
		lease: time.Hour, idle: 10 * time.Minute, advertise: time.Second,
	}
	got, err := parsePilotArgs(pilotArgs(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("round trip %+v != %+v", got, cfg)
	}
	if _, err := parsePilotArgs([]string{"too", "few"}); err == nil {
		t.Fatal("short args accepted")
	}
	bad := pilotArgs(cfg)
	bad[4] = "not-a-duration"
	if _, err := parsePilotArgs(bad); err == nil {
		t.Fatal("bad lease accepted")
	}
}
