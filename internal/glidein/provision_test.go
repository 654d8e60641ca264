package glidein

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/broker"
	"condorg/internal/condor"
	"condorg/internal/condorg"
	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/gridftp"
	"condorg/internal/lrm"
	"condorg/internal/wire"
)

// elasticWorld wires the elastic-pool topology: a user collector, a binary
// repository, N real host sites whose runtimes carry the gatekeeper pilot,
// and a Condor-G agent in deferred-binding mode whose Adaptive broker
// learns pilot gatekeepers as the provisioner brings them up.
type elasticWorld struct {
	coll     *condor.Collector
	repo     *gridftp.Server
	hosts    map[string]string // label -> host gatekeeper address
	agent    *condorg.Agent
	adaptive *broker.Adaptive

	mu          sync.Mutex
	completions map[string]int
}

// paddedWork returns a runnable "work" program blob padded to n bytes, so
// staging spans several chunks.
func paddedWork(n int) []byte {
	prog := gram.Program("work")
	if n <= len(prog) {
		return prog
	}
	pad := make([]byte, n-len(prog))
	for i := range pad {
		pad[i] = '#'
	}
	return append(prog, pad...)
}

func newElasticWorld(t *testing.T, numHosts int, seed int64) *elasticWorld {
	t.Helper()
	w := &elasticWorld{hosts: map[string]string{}, completions: map[string]int{}}
	var err error
	w.coll, err = condor.NewCollector(condor.CollectorOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.coll.Close() })

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

	// User job registry shared by every pilot gatekeeper: "work" counts
	// COMPLETED executions per job key, so an incarnation killed by a
	// retiring pilot never counts — the counters measure the exactly-once
	// guarantee directly.
	jobRT := gram.NewFuncRuntime()
	jobRT.Register("work", func(ctx context.Context, args []string, _ []byte, stdout, _ io.Writer, _ map[string]string) error {
		d := 30 * time.Millisecond
		if len(args) > 1 {
			if p, err := time.ParseDuration(args[1]); err == nil {
				d = p
			}
		}
		select {
		case <-time.After(d):
		case <-ctx.Done():
			return ctx.Err()
		}
		w.mu.Lock()
		w.completions[args[0]]++
		w.mu.Unlock()
		fmt.Fprintf(stdout, "done %s\n", args[0])
		return nil
	})

	for i := 0; i < numHosts; i++ {
		label := fmt.Sprintf("host%d", i)
		cluster, err := lrm.NewCluster(lrm.Config{Name: label, Cpus: 8})
		if err != nil {
			t.Fatal(err)
		}
		siteRT := gram.NewFuncRuntime()
		InstallGatekeeperPilot(siteRT, jobRT, nil, nil, nil)
		site, err := gram.NewSite(gram.SiteConfig{
			Name:     label,
			Cluster:  cluster,
			Runtime:  siteRT,
			StateDir: t.TempDir(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(site.Close)
		w.hosts[label] = site.GatekeeperAddr()
	}

	w.adaptive = broker.NewAdaptive(nil)
	w.agent, err = condorg.NewAgent(condorg.AgentConfig{
		StateDir:     t.TempDir(),
		Selector:     w.adaptive,
		DeferBinding: true,
		Probe:        condorg.ProbeOptions{Interval: 30 * time.Millisecond},
		Retry:        condorg.RetryOptions{MaxResubmits: 20},
		Breaker: faultclass.BreakerConfig{
			Threshold: 1,
			BaseDelay: 25 * time.Millisecond,
			MaxDelay:  200 * time.Millisecond,
			Seed:      seed,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.agent.Close)
	return w
}

// newProvisioner builds a fast-paced provisioner over the world's hosts;
// mod tweaks the config before construction.
func (w *elasticWorld) newProvisioner(t *testing.T, mod func(*ProvisionerConfig)) *Provisioner {
	t.Helper()
	cfg := ProvisionerConfig{
		HostSites:     w.hosts,
		CollectorAddr: w.coll.Addr(),
		RepoAddr:      w.repo.Addr(),
		Demand:        w.agent.Backlog,
		Registry:      w.adaptive,
		SiteRetired:   w.agent.SiteRetired,
		Stage: func(addr string) (int64, int64) {
			for _, row := range w.agent.PipelineHealth() {
				if row.Site == addr {
					return int64(row.StageHits), int64(row.StageMisses)
				}
			}
			return 0, 0
		},
		Interval:          40 * time.Millisecond,
		Lease:             30 * time.Second,
		IdleTimeout:       500 * time.Millisecond,
		AdvertiseInterval: 40 * time.Millisecond,
		PilotCpus:         3,
		Obs:               w.agent.Obs(),
	}
	if mod != nil {
		mod(&cfg)
	}
	prov, err := NewProvisioner(cfg)
	if err != nil {
		t.Fatal(err)
	}
	prov.Client().SetTimeouts(300*time.Millisecond, 3)
	t.Cleanup(func() {
		prov.Drain()
		prov.Close()
	})
	return prov
}

// checkExactlyOnce asserts the chaos-test completion accounting for one
// job: it finished, it really ran, and every extra completed run is backed
// by a recorded resubmission or migration.
func (w *elasticWorld) checkExactlyOnce(t *testing.T, key, id string) condorg.JobInfo {
	t.Helper()
	info, err := w.agent.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.State != condorg.Completed {
		t.Fatalf("job %s (%s) finished as %v (err=%q)\nlog: %+v", id, key, info.State, info.Error, info.Log)
	}
	w.mu.Lock()
	n := w.completions[key]
	w.mu.Unlock()
	if n < 1 {
		t.Fatalf("job %s (%s) reported Completed but never ran to completion (lost work)", id, key)
	}
	if n > info.Resubmits+info.Migrations+1 {
		t.Fatalf("job %s (%s) ran to completion %d times with only %d resubmits / %d migrations — double execution",
			id, key, n, info.Resubmits, info.Migrations)
	}
	if info.Resubmits == 0 && info.Migrations == 0 && n != 1 {
		t.Fatalf("job %s (%s) was never resubmitted yet ran to completion %d times", id, key, n)
	}
	return info
}

// runElasticSoak drives one seeded elasticity schedule: a 10× load swing
// (burst → tenth of the burst → zero) with the pool required to follow the
// target within a bounded lag, every pilot required to retire on its own,
// and the usual zero-lost / zero-double accounting at the end.
func runElasticSoak(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	w := newElasticWorld(t, 3, seed)
	const maxPilots = 6
	prov := w.newProvisioner(t, func(cfg *ProvisionerConfig) {
		cfg.MaxPilots = maxPilots
	})
	prov.Start()

	// High phase: a burst the pool must scale up for. All jobs share one
	// executable, so every pilot's gatekeeper cache is exercised: one
	// transfer per pilot, hits after.
	const high = 30
	exe := paddedWork(2 * 64 << 10)
	ids := map[string]string{}
	for i := 0; i < high; i++ {
		key := fmt.Sprintf("hi%d", i)
		d := time.Duration(80+rng.Intn(120)) * time.Millisecond
		id, err := w.agent.Submit(condorg.SubmitRequest{
			Owner:      "u",
			Executable: exe,
			Args:       []string{key, d.String()},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[key] = id
	}

	// Bounded upward lag: the pool must grow toward the clamped target
	// while the burst is outstanding.
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := prov.Status()
		if len(st.Pilots) > maxPilots {
			t.Fatalf("pool %d pilots exceeds MaxPilots %d", len(st.Pilots), maxPilots)
		}
		if len(st.Pilots) >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never followed the load swing up: %+v", prov.Status())
		}
		time.Sleep(20 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	if err := w.agent.WaitAll(ctx); err != nil {
		t.Fatalf("high-phase queue never drained: %v\npool: %+v", err, prov.Status())
	}

	// Low phase: a tenth of the burst. The (possibly shrunken) pool must
	// still pick these up — deferred binding parks them until a pilot is up.
	const low = high / 10
	for i := 0; i < low; i++ {
		key := fmt.Sprintf("lo%d", i)
		id, err := w.agent.Submit(condorg.SubmitRequest{
			Owner:      "u",
			Executable: exe,
			Args:       []string{key, (50 * time.Millisecond).String()},
		})
		if err != nil {
			t.Fatal(err)
		}
		ids[key] = id
	}
	if err := w.agent.WaitAll(ctx); err != nil {
		t.Fatalf("low-phase queue never drained: %v\npool: %+v", err, prov.Status())
	}

	// Swing to zero: with no demand, every pilot must retire through the
	// idle guard and the collector must drain — no runaway daemons.
	deadline = time.Now().Add(20 * time.Second)
	for {
		st := prov.Status()
		if len(st.Pilots) == 0 && w.coll.Len() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never drained after demand went to zero: %d pilots, %d ads\n%+v",
				len(st.Pilots), w.coll.Len(), st)
		}
		time.Sleep(25 * time.Millisecond)
	}
	st := prov.Status()
	if st.Submitted == 0 {
		t.Fatal("soak ran with no pilots ever submitted")
	}
	if st.Retired != st.Submitted {
		t.Fatalf("submitted %d pilots but retired %d — a pilot leaked or was double-counted", st.Submitted, st.Retired)
	}
	if sites := w.adaptive.Sites(); len(sites) != 0 {
		t.Fatalf("broker still holds retired pilot sites: %v", sites)
	}

	for key, id := range ids {
		w.checkExactlyOnce(t, key, id)
	}
}

// TestElasticPoolSoak is the seeded elasticity soak of the autoscaler's
// acceptance: offered load swings 10×, the pool follows within bounded
// lag, every pilot retires, and no job is lost or run twice.
func TestElasticPoolSoak(t *testing.T) {
	seeds := 2
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if !t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { runElasticSoak(t, seed) }) {
			break
		}
	}
}

// TestAutoscalerRetiresPilotMidStageIn pins the satellite chaos schedule:
// the autoscaler scales the pool down while a job is mid-stage-in on the
// victim pilot (staging happens before the remote submit, so the pilot
// advertises zero active jobs and is a legitimate scale-down victim). The
// job must rebind and complete elsewhere exactly once.
func TestAutoscalerRetiresPilotMidStageIn(t *testing.T) {
	// Slow the pilots' staging plane so "mid-stage-in" is a wide,
	// deterministic window rather than a scheduling race.
	var stall atomic.Bool
	stall.Store(true)
	testPilotGatekeeperFaults = &wire.Faults{Delay: func(m string) time.Duration {
		if m == "gram.stage-chunk" && stall.Load() {
			return 100 * time.Millisecond
		}
		return 0
	}}
	defer func() { testPilotGatekeeperFaults = nil }()

	w := newElasticWorld(t, 2, 1)
	// forceIdle lies to the provisioner that demand hit zero, forcing a
	// scale-down decision at a moment the test controls.
	var forceIdle atomic.Bool
	prov := w.newProvisioner(t, func(cfg *ProvisionerConfig) {
		cfg.MaxPilots = 2
		cfg.Interval = 30 * time.Millisecond
		// Only the autoscaler retires pilots in this schedule.
		cfg.IdleTimeout = 30 * time.Second
		cfg.Lease = 60 * time.Second
		backlog := cfg.Demand
		cfg.Demand = func() int {
			if forceIdle.Load() {
				return 0
			}
			return backlog()
		}
	})
	prov.Start()

	// 32 MiB: eight windows of four 1 MiB chunks (the largest chunk a
	// push uses), at 100 ms per chunk ≈ 0.8 s of staging.
	id, err := w.agent.Submit(condorg.SubmitRequest{
		Owner:      "u",
		Executable: paddedWork(32 << 20),
		Args:       []string{"solo"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait until the job is bound to a pilot and its executable is
	// mid-transfer: some bytes acked, staging not done.
	var firstSite string
	deadline := time.Now().Add(15 * time.Second)
	for {
		info, err := w.agent.Status(id)
		if err == nil && info.Site != "" && info.Stage.Offset > 0 && !info.Stage.Done {
			firstSite = info.Site
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached mid-stage-in: %+v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Scale down now: the victim pilot advertises zero active jobs (the
	// job is only staging), so the autoscaler cancels it under the agent.
	forceIdle.Store(true)
	deadline = time.Now().Add(15 * time.Second)
	for prov.Status().Retired < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("autoscaler never retired the staging pilot: %+v", prov.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Restore demand; the pool regrows and the job must finish elsewhere.
	forceIdle.Store(false)
	stall.Store(false)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := w.agent.Wait(ctx, id); err != nil {
		info, _ := w.agent.Status(id)
		t.Fatalf("job never finished after pilot retirement: %v\ninfo: %+v", err, info)
	}

	info := w.checkExactlyOnce(t, "solo", id)
	w.mu.Lock()
	n := w.completions["solo"]
	w.mu.Unlock()
	if n != 1 {
		t.Fatalf("job ran to completion %d times, want exactly once", n)
	}
	if info.Site == firstSite {
		t.Fatalf("job completed on the retired pilot %s — it never moved", firstSite)
	}
	// The move must be on the record: either the dispatcher rebound the
	// contactless job away from the dead pilot, or (if the submit had
	// already landed) a site-lost resubmission.
	rebound := false
	for _, ev := range info.Log {
		if ev.Code == "BIND" && strings.Contains(ev.Text, "rebound") {
			rebound = true
		}
	}
	if !rebound && info.Resubmits == 0 {
		t.Fatalf("job moved from %s to %s with neither a rebind nor a resubmit recorded\nlog: %+v",
			firstSite, info.Site, info.Log)
	}
}

// TestGkPilotArgsRoundTrip pins the gatekeeper pilot's argument codec.
func TestGkPilotArgsRoundTrip(t *testing.T) {
	cfg := gkPilotConfig{
		collectorAddr: "127.0.0.1:9618",
		repoAddr:      "127.0.0.1:2811",
		slotName:      "glidein-gk-wisc-3",
		siteLabel:     "wisc",
		cpus:          4,
		lease:         2 * time.Hour,
		idle:          20 * time.Minute,
		advertise:     5 * time.Second,
	}
	got, err := parseGkPilotArgs(gkPilotArgs(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("round trip mangled config: %+v != %+v", got, cfg)
	}
	for _, bad := range [][]string{
		nil,
		{"c", "r", "slot", "site", "4", "1h", "1m"},          // short
		{"c", "r", "slot", "site", "zero", "1h", "1m", "5s"}, // bad cpus
		{"c", "r", "slot", "site", "4", "soon", "1m", "5s"},  // bad lease
		{"c", "r", "slot", "site", "4", "1h", "1m", "often"}, // bad advertise
	} {
		if _, err := parseGkPilotArgs(bad); err == nil {
			t.Fatalf("parseGkPilotArgs(%v) accepted a bad vector", bad)
		}
	}
}

// TestProvisionerConfigValidation pins the constructor's hard requirements.
func TestProvisionerConfigValidation(t *testing.T) {
	if _, err := NewProvisioner(ProvisionerConfig{Demand: func() int { return 0 }}); err == nil {
		t.Fatal("provisioner without host sites accepted")
	}
	if _, err := NewProvisioner(ProvisionerConfig{HostSites: map[string]string{"a": "127.0.0.1:1"}}); err == nil {
		t.Fatal("provisioner without a Demand source accepted")
	}
}
