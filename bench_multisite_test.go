package benchmarks

// Multi-site submission throughput: the workload the per-site GridManager
// pipelines exist for. Every gatekeeper and jobmanager request carries a
// simulated wide-area RTT, so the serial configuration (one remote
// operation at a time, the pre-pipeline behaviour) pays the full latency
// ladder per job while the pipelined agent overlaps it across sites. The
// one-faulted variants add a blackholed site with a submission wedged
// against it — the head-of-line scenario: serial throughput collapses
// behind the ~900ms timeout burns, pipelined throughput should not care.

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/lrm"
	"condorg/internal/wire"
)

// simulated one-way processing latency per remote request ("wide area").
const wanDelay = 5 * time.Millisecond

const multiSiteBatch = 16 // jobs per benchmark iteration

func benchDelaySite(b *testing.B, name string, runs *atomic.Int64, extra *wire.Faults) *gram.Site {
	b.Helper()
	cluster, err := lrm.NewCluster(lrm.Config{Name: name, Cpus: 8})
	if err != nil {
		b.Fatal(err)
	}
	faults := extra
	if faults == nil {
		faults = &wire.Faults{}
	}
	faults.SetDelay(func(string) time.Duration { return wanDelay })
	site, err := gram.NewSite(gram.SiteConfig{
		Name:             name,
		Cluster:          cluster,
		Runtime:          benchRuntime(runs),
		StateDir:         mustTempDir(b, "ms-"+name),
		GatekeeperFaults: faults,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(site.Close)
	return site
}

func runMultiSite(b *testing.B, numSites int, pipe condorg.PipelineOptions, faulted bool) {
	var runs atomic.Int64
	addrs := make([]string, numSites)
	for i := range addrs {
		site := benchDelaySite(b, fmt.Sprintf("ms%d", i), &runs, nil)
		addrs[i] = site.GatekeeperAddr()
	}
	agent, err := condorg.NewAgent(condorg.AgentConfig{
		StateDir: mustTempDir(b, "ms-agent"),
		Selector: &condorg.RoundRobinSelector{Sites: addrs},
		Probe:    condorg.ProbeOptions{Interval: 20 * time.Millisecond},
		Pipeline: pipe,
		// The breaker must never open: fast-fail would rescue the serial
		// configuration, and the point is to compare the pipelines.
		Breaker: faultclass.BreakerConfig{
			Threshold: 1000,
			BaseDelay: 10 * time.Millisecond,
			MaxDelay:  20 * time.Millisecond,
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(agent.Close)

	if faulted {
		// A blackholed site with one wedged submission churning against
		// it for the whole measurement; its timeout ladders (~900ms per
		// attempt) compete with the healthy traffic for pipeline slots.
		blackholed := &wire.Faults{}
		dead := benchDelaySite(b, "ms-dead", &runs, blackholed)
		blackholed.SetConn(nil, func() bool { return true }, nil)
		if _, err := agent.Submit(condorg.SubmitRequest{
			Owner: "bench", Executable: gram.Program("noop"),
			Site: dead.GatekeeperAddr(),
		}); err != nil {
			b.Fatal(err)
		}
		time.Sleep(50 * time.Millisecond) // let the wedged submit enter its pipeline
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := make([]string, 0, multiSiteBatch)
		for j := 0; j < multiSiteBatch; j++ {
			id, err := agent.Submit(condorg.SubmitRequest{
				Owner: "bench", Executable: gram.Program("noop"),
				Site: addrs[j%numSites],
			})
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
		for _, id := range ids {
			waitCompleted(b, agent, id)
		}
	}
	b.StopTimer()
	if got := runs.Load(); got != int64(multiSiteBatch*b.N) {
		b.Fatalf("ran %d jobs for %d submissions (exactly-once violated)", got, multiSiteBatch*b.N)
	}
	b.ReportMetric(float64(multiSiteBatch*b.N)/b.Elapsed().Seconds(), "jobs/s")
}

// BenchmarkMultiSiteSubmit — batches of jobs spread across N sites under a
// simulated WAN RTT, serial (PerSiteInFlight=1, MaxInFlight=1, the old
// single-goroutine GridManager's effective shape) versus the pipelined
// default, with and without one blackholed site in the mix.
func BenchmarkMultiSiteSubmit(b *testing.B) {
	serial := condorg.PipelineOptions{PerSiteInFlight: 1, MaxInFlight: 1}
	pipelined := condorg.PipelineOptions{} // NewAgent fills the defaults (4/64)
	for _, numSites := range []int{1, 4, 16} {
		for _, mode := range []struct {
			name string
			pipe condorg.PipelineOptions
		}{{"serial", serial}, {"pipelined", pipelined}} {
			b.Run(fmt.Sprintf("sites-%d/%s", numSites, mode.name), func(b *testing.B) {
				runMultiSite(b, numSites, mode.pipe, false)
			})
			if numSites > 1 {
				b.Run(fmt.Sprintf("sites-%d/%s/one-faulted", numSites, mode.name), func(b *testing.B) {
					runMultiSite(b, numSites, mode.pipe, true)
				})
			}
		}
	}
	once("MS", func() {
		fmt.Println("\n=== MultiSite: per-site pipeline throughput vs the serial GridManager ===")
		fmt.Println("5ms simulated WAN latency per request; one-faulted adds a blackholed site")
		fmt.Println("with a wedged submission burning ~900ms timeout ladders per attempt")
	})
}
