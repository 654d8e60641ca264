package benchmarks

// Ablations: each benchmark removes one design mechanism the paper calls
// out and measures the damage, demonstrating why the mechanism exists.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/events"
	"condorg/internal/gcat"
	"condorg/internal/gram"
	"condorg/internal/lrm"
	"condorg/internal/sim"
	"condorg/internal/wire"
)

// BenchmarkA1_TwoPhaseVsRetry — remove the two-phase commit (§3.2) and
// exactly-once breaks: with auto-commit-on-submit, a lost submit response
// makes the naive client resubmit, and BOTH copies execute.
func BenchmarkA1_TwoPhaseVsRetry(b *testing.B) {
	type result struct {
		submissions int64
		executions  int64
	}
	run := func(autoCommit bool, naive bool, n int) result {
		var runs atomic.Int64
		faults := &wire.Faults{}
		cluster, _ := lrm.NewCluster(lrm.Config{Name: "a1", Cpus: 16})
		site, err := gram.NewSite(gram.SiteConfig{
			Name:             "a1",
			Cluster:          cluster,
			Runtime:          benchRuntime(&runs),
			StateDir:         mustTempDir(b, "a1"),
			GatekeeperFaults: faults,
			AutoCommit:       autoCommit,
			CommitTimeout:    time.Minute,
		})
		if err != nil {
			b.Fatal(err)
		}
		defer site.Close()
		// Drop every other submit response: the client always retries.
		var k int64
		faults.Set(nil, func(method string) bool {
			return method == "gram.batch-submit" && atomic.AddInt64(&k, 1)%2 == 1
		})
		for i := 0; i < n; i++ {
			if naive {
				// No submission ID, single-attempt wire calls, manual
				// retry with a FRESH identity each time — the
				// pre-2PC client.
				for {
					c := gram.NewClient(nil, nil)
					c.SetTimeouts(60*time.Millisecond, -1)
					contact, err := c.Submit(site.GatekeeperAddr(), gram.JobSpec{
						Executable: string(gram.Program("noop")),
					}, gram.SubmitOptions{})
					c.Close()
					if err == nil {
						_ = contact
						break
					}
				}
			} else {
				c := gram.NewClient(nil, nil)
				c.SetTimeouts(60*time.Millisecond, 10)
				contact, err := c.Submit(site.GatekeeperAddr(), gram.JobSpec{
					Executable: string(gram.Program("noop")),
				}, gram.SubmitOptions{SubmissionID: gram.NewSubmissionID()})
				if err != nil {
					b.Fatal(err)
				}
				if err := c.Commit(contact); err != nil {
					b.Fatal(err)
				}
				c.Close()
			}
		}
		// Let every started job finish.
		deadline := time.Now().Add(10 * time.Second)
		for site.Cluster().FreeCpus() != site.Cluster().Cpus() && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		time.Sleep(50 * time.Millisecond)
		return result{submissions: int64(n), executions: runs.Load()}
	}
	const jobs = 10
	var with, without result
	b.Run("with-2pc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			with = run(false, false, jobs)
			if with.executions != with.submissions {
				b.Fatalf("2PC produced %d executions for %d submissions", with.executions, with.submissions)
			}
		}
		b.ReportMetric(float64(with.executions-with.submissions), "duplicates")
	})
	b.Run("without-2pc", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			without = run(true, true, jobs)
		}
		if without.executions <= without.submissions {
			b.Fatalf("expected duplicate executions without 2PC, got %d for %d",
				without.executions, without.submissions)
		}
		b.ReportMetric(float64(without.executions-without.submissions), "duplicates")
	})
	once("A1", func() {
		fmt.Println("\n=== A1: two-phase commit vs naive retry, 50% submit-response loss ===")
		fmt.Printf("%-14s %12s %12s %12s\n", "protocol", "submissions", "executions", "duplicates")
		fmt.Printf("%-14s %12d %12d %12d\n", "2PC", with.submissions, with.executions, with.executions-with.submissions)
		fmt.Printf("%-14s %12d %12d %12d\n", "naive-retry", without.submissions, without.executions, without.executions-without.submissions)
	})
}

// BenchmarkA2_StableLog — remove the client-side stable log (§3.2/§4.2) and
// a submit-machine crash loses the queue: with the journal every job is
// recovered and completes; without it the agent restarts empty-handed.
func BenchmarkA2_StableLog(b *testing.B) {
	run := func(wipeState bool) (recovered int) {
		var runs atomic.Int64
		site := benchSite(b, "a2", &runs, "", "")
		stateDir := mustTempDir(b, "a2agent")
		a1, err := condorg.NewAgent(condorg.AgentConfig{
			StateDir: stateDir,
			Selector: condorg.StaticSelector(site.GatekeeperAddr()),
			Probe:    condorg.ProbeOptions{Interval: 30 * time.Millisecond},
		})
		if err != nil {
			b.Fatal(err)
		}
		var ids []string
		for i := 0; i < 5; i++ {
			id, err := a1.Submit(condorg.SubmitRequest{
				Owner: "bench", Executable: gram.Program("linger"), Args: []string{"200ms"},
			})
			if err != nil {
				b.Fatal(err)
			}
			ids = append(ids, id)
		}
		a1.Close() // crash
		if wipeState {
			os.RemoveAll(stateDir) // "no stable storage"
			os.MkdirAll(stateDir, 0o700)
		}
		a2, err := condorg.NewAgent(condorg.AgentConfig{
			StateDir: stateDir,
			Selector: condorg.StaticSelector(site.GatekeeperAddr()),
			Probe:    condorg.ProbeOptions{Interval: 30 * time.Millisecond},
		})
		if err != nil {
			b.Fatal(err)
		}
		defer a2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		for _, id := range ids {
			if info, err := a2.Wait(ctx, id); err == nil && info.State == condorg.Completed {
				recovered++
			}
		}
		return recovered
	}
	var withLog, withoutLog int
	b.Run("with-journal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			withLog = run(false)
			if withLog != 5 {
				b.Fatalf("journal recovered %d/5 jobs", withLog)
			}
		}
		b.ReportMetric(float64(withLog), "jobs-recovered")
	})
	b.Run("without-journal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			withoutLog = run(true)
			if withoutLog != 0 {
				b.Fatalf("no journal but %d jobs recovered?!", withoutLog)
			}
		}
		b.ReportMetric(float64(withoutLog), "jobs-recovered")
	})
	once("A2", func() {
		fmt.Println("\n=== A2: persistent job queue vs none across a submit-machine crash ===")
		fmt.Printf("with-journal:    %d/5 jobs recovered and completed\n", withLog)
		fmt.Printf("without-journal: %d/5 jobs recovered (queue lost)\n", withoutLog)
	})
}

// BenchmarkA3_IdleShutdown — remove the GlideIn idle timeout ("guarding
// against runaway daemons", §5) and unused pilots burn their whole lease.
func BenchmarkA3_IdleShutdown(b *testing.B) {
	run := func(idleTimeout time.Duration) (wastedCPUHours float64) {
		eng := events.NewEngine(3)
		site := sim.NewSite(eng, "s", 64, nil)
		m := sim.NewMetrics(eng)
		pool := sim.NewGlideinPool(eng, m)
		// 10 short jobs, 40 pilots with 8h leases: most pilots find no
		// work.
		for i := 0; i < 10; i++ {
			pool.AddJob(sim.JobSpec{ID: fmt.Sprintf("j%d", i), Owner: "u", Duration: 20 * time.Minute})
		}
		pool.SubmitPilots(site, 40, 8*time.Hour, idleTimeout)
		eng.Run()
		return pool.WastedCPUSeconds() / 3600
	}
	var withGuard, withoutGuard float64
	b.Run("idle-timeout-15m", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			withGuard = run(15 * time.Minute)
		}
		b.ReportMetric(withGuard, "wasted-cpu-hours")
	})
	b.Run("no-idle-timeout", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			withoutGuard = run(0)
		}
		b.ReportMetric(withoutGuard, "wasted-cpu-hours")
	})
	once("A3", func() {
		fmt.Println("\n=== A3: GlideIn idle shutdown guard, 40 pilots / 8h leases / 10 short jobs ===")
		fmt.Printf("idle-timeout 15m: %6.1f wasted CPU-hours\n", withGuard)
		fmt.Printf("no idle timeout:  %6.1f wasted CPU-hours (runaway daemons)\n", withoutGuard)
		if withoutGuard <= withGuard {
			fmt.Println("WARNING: guard showed no benefit")
		}
	})
}

// BenchmarkA4_GCatBuffering — remove G-Cat's scratch buffer (§6.3) and the
// application's writes couple to the network: each write blocks for the
// transfer. With buffering the writer runs at disk speed regardless.
func BenchmarkA4_GCatBuffering(b *testing.B) {
	const lines = 50
	const perChunkDelay = 2 * time.Millisecond
	writeLine := func(f *os.File, i int) {
		fmt.Fprintf(f, "SCF cycle %04d energy=-76.0210\n", i)
	}
	b.Run("buffered-gcat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mss, _ := gcat.NewMSS(gcat.MSSOptions{})
			mss.SetThrottle(func(int) { time.Sleep(perChunkDelay) })
			dir := mustTempDir(b, "a4")
			src := filepath.Join(dir, "out")
			os.WriteFile(src, nil, 0o600)
			g, _ := gcat.NewGCat(gcat.GCatConfig{
				SourcePath: src, MSSAddr: mss.Addr(), RemoteName: "out",
				ChunkSize: 64, Poll: time.Millisecond,
			})
			g.Start()
			f, _ := os.OpenFile(src, os.O_WRONLY|os.O_APPEND, 0)
			start := time.Now()
			for j := 0; j < lines; j++ {
				writeLine(f, j)
			}
			writerElapsed := time.Since(start)
			f.Close()
			g.Stop(10 * time.Second)
			mss.Close()
			b.ReportMetric(float64(writerElapsed.Microseconds()), "writer-us")
		}
	})
	b.Run("direct-network-writes", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mss, _ := gcat.NewMSS(gcat.MSSOptions{})
			mss.SetThrottle(func(int) { time.Sleep(perChunkDelay) })
			c := gcat.NewMSSClient(mss.Addr(), nil, nil)
			start := time.Now()
			for j := 0; j < lines; j++ {
				// The application writes straight over the network:
				// every line pays the transfer latency.
				if err := c.PutChunk("out", j, []byte(fmt.Sprintf("SCF cycle %04d energy=-76.0210\n", j))); err != nil {
					b.Fatal(err)
				}
			}
			writerElapsed := time.Since(start)
			c.Close()
			mss.Close()
			b.ReportMetric(float64(writerElapsed.Microseconds()), "writer-us")
		}
	})
	once("A4", func() {
		fmt.Println("\n=== A4: G-Cat scratch buffering vs direct network writes (2ms/chunk network) ===")
		fmt.Println("see writer-us metric: buffered writes run at disk speed; direct writes")
		fmt.Println("pay the network per line (~2ms x 50 lines)")
	})
}
