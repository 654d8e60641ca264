package benchmarks

// Observability overhead guard: the same submit burst with the metric
// registry enabled and disabled. The two numbers must stay within noise
// of each other — instrumentation on the persist hot path is a couple of
// atomic adds plus one mutexed ring write per histogram, and this bench
// exists so a regression (say, a lock added to a counter) shows up as a
// gap between the sub-benchmarks. See EXPERIMENTS.md for recorded runs.

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/gram"
)

// BenchmarkSubmitObsOverhead runs the 8-worker submit burst of
// BenchmarkSubmitBurst two ways: everything on (the default) and the metric
// registry off (the nil-registry no-op path) — this pair is the
// within-noise guard. A job's trace is a view of its history, which is
// always kept, so there is no tracing-off mode to compare.
func BenchmarkSubmitObsOverhead(b *testing.B) {
	for _, mode := range []struct {
		name string
		obs  condorg.ObsOptions
	}{
		{"enabled", condorg.ObsOptions{}},
		{"no-metrics", condorg.ObsOptions{Disabled: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var runs atomic.Int64
			site := benchSite(b, "obs", &runs, "", "")
			agent, err := condorg.NewAgent(condorg.AgentConfig{
				StateDir: mustTempDir(b, "agent"),
				Selector: condorg.StaticSelector(site.GatekeeperAddr()),
				Probe:    condorg.ProbeOptions{Interval: 30 * time.Millisecond},
				Obs:      mode.obs,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(agent.Close)
			const workers = 8
			b.ResetTimer()
			var wg sync.WaitGroup
			jobs := make(chan int)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range jobs {
						if _, err := agent.Submit(condorg.SubmitRequest{
							Owner: "bench", Executable: gram.Program("noop"),
						}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			for i := 0; i < b.N; i++ {
				jobs <- i
			}
			close(jobs)
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
			ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
			defer cancel()
			if err := agent.WaitAll(ctx); err != nil {
				b.Fatal(err)
			}
		})
	}
}
