package benchmarks

// Full-stack integration tests: every subsystem at once, over real sockets
// with real authentication — the closest this repository gets to the
// deployments of §6.

import (
	"context"
	"fmt"
	"io"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/broker"
	"condorg/internal/condor"
	"condorg/internal/condorg"
	"condorg/internal/credmgr"
	"condorg/internal/dagman"
	"condorg/internal/glidein"
	"condorg/internal/gram"
	"condorg/internal/gridftp"
	"condorg/internal/gsi"
	"condorg/internal/lrm"
	"condorg/internal/mds"
)

func tempDir(t *testing.T) string { return t.TempDir() }

// TestSecureGridEndToEnd builds a fully authenticated three-site grid with
// MDS discovery, an MDS-brokered agent, per-site gridmaps, credential
// delegation, and a MyProxy-backed credential monitor — then runs a
// workload through it and crashes things.
func TestSecureGridEndToEnd(t *testing.T) {
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=IGTF-Test-CA", now, 365*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	user, _ := ca.IssueUser("/O=Grid/CN=jfrey", now, 30*24*time.Hour)
	proxy, _ := gsi.NewProxy(user, now, 12*time.Hour)

	// MDS directory (unauthenticated reads, like a public GIIS).
	giis, err := mds.NewServer(mds.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer giis.Close()

	// Three authenticated sites with gridmaps, advertising to MDS.
	var runs atomic.Int64
	var sites []*gram.Site
	for i, name := range []string{"wisc", "anl", "ncsa"} {
		rt := gram.NewFuncRuntime()
		rt.Register("task", func(ctx context.Context, args []string, _ []byte, stdout, _ io.Writer, _ map[string]string) error {
			runs.Add(1)
			d := 20 * time.Millisecond
			if len(args) > 0 {
				if p, err := time.ParseDuration(args[0]); err == nil {
					d = p
				}
			}
			select {
			case <-time.After(d):
				fmt.Fprintln(stdout, "secure task ok")
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		})
		cluster, _ := lrm.NewCluster(lrm.Config{Name: name, Cpus: 4})
		site, err := gram.NewSite(gram.SiteConfig{
			Name:    name,
			Anchor:  ca.Certificate(),
			Gridmap: gsi.NewGridmap(map[string]string{"/O=Grid/CN=jfrey": "jfrey"}),
			Cluster: cluster, Runtime: rt, StateDir: tempDir(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer site.Close()
		rep := broker.NewReporter(site, giis.Addr(), "x86_64", float64(i+1), time.Minute)
		rep.Start(50 * time.Millisecond)
		defer rep.Stop()
		sites = append(sites, site)
	}

	// MDS-brokered agent with the user's proxy, delegating to sites.
	b, err := broker.NewMDSBroker(giis.Addr(), "", "")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	// The user's long-lived credential waits in MyProxy; the agent's default
	// renewal binding names it.
	longProxy, _ := gsi.NewProxy(user, now, 7*24*time.Hour)
	mpSrv, _ := credmgr.NewMyProxyServer(credmgr.MyProxyOptions{})
	defer mpSrv.Close()
	mpCli := credmgr.NewMyProxyClient(mpSrv.Addr(), nil, nil)
	defer mpCli.Close()
	if err := mpCli.Store("jfrey", "pw", longProxy); err != nil {
		t.Fatal(err)
	}
	agent, err := condorg.NewAgent(condorg.AgentConfig{
		StateDir:   tempDir(t),
		Credential: proxy,
		Selector:   b,
		Probe:      condorg.ProbeOptions{Interval: 40 * time.Millisecond},
		Delegate:   6 * time.Hour,
		Tenancy: condorg.TenancyOptions{
			MyProxyDefault: &condorg.MyProxyBinding{Addr: mpSrv.Addr(), User: "jfrey", Pass: "pw"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer agent.Close()

	// MyProxy-backed credential monitor running alongside.
	mon := credmgr.NewMonitor(credmgr.MonitorConfig{
		Agent: agent, Owner: "jfrey",
		WarnThreshold: time.Hour, Interval: 50 * time.Millisecond,
	})
	mon.Start()
	defer mon.Stop()

	// Submit a batch; everything flows through GSI + MDS + GRAM.
	var ids []string
	for i := 0; i < 9; i++ {
		id, err := agent.Submit(condorg.SubmitRequest{
			Owner: "jfrey", Executable: gram.Program("task"),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := agent.WaitAll(ctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		info, _ := agent.Status(id)
		if info.State != condorg.Completed {
			t.Fatalf("job %s: %v (%s)", id, info.State, info.Error)
		}
	}
	if runs.Load() != 9 {
		t.Fatalf("executions = %d, want exactly 9", runs.Load())
	}

	// A long job survives a site machine crash mid-flight, under auth.
	id, _ := agent.Submit(condorg.SubmitRequest{
		Owner: "jfrey", Executable: gram.Program("task"), Args: []string{"300ms"},
	})
	deadline := time.Now().Add(10 * time.Second)
	var victim *gram.Site
	for victim == nil && time.Now().Before(deadline) {
		info, _ := agent.Status(id)
		if info.State == condorg.Running {
			for _, s := range sites {
				if s.GatekeeperAddr() == info.Site {
					victim = s
				}
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if victim == nil {
		t.Fatal("job never started")
	}
	victim.CrashGatekeeperMachine()
	time.Sleep(100 * time.Millisecond)
	if err := victim.RestartGatekeeperMachine(); err != nil {
		t.Fatal(err)
	}
	info, err := agent.Wait(ctx, id)
	if err != nil || info.State != condorg.Completed {
		t.Fatalf("crash-spanning job: %v err=%v (%s)", info.State, err, info.Error)
	}
	if runs.Load() != 10 {
		t.Fatalf("executions = %d, want exactly 10 (exactly-once across crash)", runs.Load())
	}
}

// TestGlideInDagPipeline combines DAGMan, the GlideIn personal pool, and
// GridFTP: a fan-out/fan-in DAG whose nodes execute on glided-in slots and
// whose fan-in stage verifies data shipped through GridFTP.
func TestGlideInDagPipeline(t *testing.T) {
	coll, err := condor.NewCollector(condor.CollectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer coll.Close()

	repo, _ := gridftp.NewServer(tempDir(t), gridftp.ServerOptions{})
	defer repo.Close()
	ftp := gridftp.NewClient(nil, nil, 2)
	defer ftp.Close()
	ftp.Put(repo.Addr(), glidein.StartdBlob, []byte("daemon payload"))

	jobRT := condor.NewRuntime()
	jobRT.Register("produce", func(_ context.Context, jc *condor.JobContext) error {
		// Produce a data file and ship it to the repository directly
		// from the execution slot.
		w := gridftp.NewClient(nil, nil, 2)
		defer w.Close()
		data := []byte(strings.Repeat(jc.Args[1]+"\n", 100))
		return w.Put(jc.Args[0], "data/"+jc.Args[1], data)
	})

	var sites []*gram.Site
	siteAddrs := map[string]string{}
	for i := 0; i < 2; i++ {
		cluster, _ := lrm.NewCluster(lrm.Config{Name: fmt.Sprintf("s%d", i), Cpus: 3})
		rt := gram.NewFuncRuntime()
		glidein.InstallBootstrap(rt, jobRT, nil, nil, nil)
		site, err := gram.NewSite(gram.SiteConfig{
			Name: fmt.Sprintf("s%d", i), Cluster: cluster, Runtime: rt, StateDir: tempDir(t),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer site.Close()
		sites = append(sites, site)
		siteAddrs[fmt.Sprintf("s%d", i)] = site.GatekeeperAddr()
	}

	schedd, _ := condor.NewSchedd(condor.ScheddConfig{Name: "dag", SpoolDir: tempDir(t)})
	defer schedd.Close()
	neg := condor.NewNegotiator(coll.Addr(), nil, nil, schedd)
	defer neg.Stop()
	neg.Start(15 * time.Millisecond)

	factory := glidein.NewFactory(glidein.FactoryConfig{
		CollectorAddr:     coll.Addr(),
		RepoAddr:          repo.Addr(),
		Lease:             time.Minute,
		IdleTimeout:       30 * time.Second,
		AdvertiseInterval: 15 * time.Millisecond,
	})
	defer factory.Close()
	if _, err := factory.Flood(siteAddrs, 2); err != nil {
		t.Fatal(err)
	}

	// The DAG: 4 producers fan into a verify node with a POST script.
	var dagText strings.Builder
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&dagText, "JOB p%d produce part%d\n", i, i)
	}
	dagText.WriteString("JOB verify verify-all\nSCRIPT POST verify recount\n")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&dagText, "PARENT p%d CHILD verify\n", i)
	}
	dag, err := dagman.Parse(dagText.String())
	if err != nil {
		t.Fatal(err)
	}

	postRan := atomic.Bool{}
	submit := func(ctx context.Context, node *dagman.Node) error {
		fields := strings.Fields(node.Spec)
		switch fields[0] {
		case "produce":
			id, err := schedd.Submit(condor.JobAd("dag", "produce", repo.Addr(), fields[1]))
			if err != nil {
				return err
			}
			deadline := time.Now().Add(20 * time.Second)
			for {
				j, _ := schedd.Job(id)
				if j.State == condor.PoolCompleted {
					return nil
				}
				if j.State.Terminal() {
					return fmt.Errorf("%s: %s", node.Name, j.Err)
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("%s: timeout in %v", node.Name, j.State)
				}
				select {
				case <-ctx.Done():
					return ctx.Err()
				case <-time.After(5 * time.Millisecond):
				}
			}
		case "verify-all":
			paths, err := ftp.List(repo.Addr(), "data/")
			if err != nil {
				return err
			}
			if len(paths) != 4 {
				return fmt.Errorf("repository has %d parts, want 4", len(paths))
			}
			return nil
		}
		return fmt.Errorf("unknown node %q", node.Spec)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := dagman.Execute(ctx, dag, dagman.ExecConfig{
		Submit:    submit,
		MaxActive: 3,
		RunScript: func(_ context.Context, _ *dagman.Node, script string, jobErr error) error {
			if script == "recount" && jobErr == nil {
				postRan.Store(true)
			}
			return jobErr
		},
	})
	if err != nil || !res.Succeeded() {
		t.Fatalf("pipeline: err=%v failed=%v", err, res.Failed)
	}
	if !postRan.Load() {
		t.Fatal("POST script never ran")
	}
	// Every part really is in the repository with intact checksums.
	for i := 0; i < 4; i++ {
		data, err := ftp.Get(repo.Addr(), fmt.Sprintf("data/part%d", i))
		if err != nil || !strings.Contains(string(data), fmt.Sprintf("part%d", i)) {
			t.Fatalf("part%d: %v", i, err)
		}
	}
}
