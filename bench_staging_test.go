package benchmarks

// Stage-in throughput: what the chunked push plane and the per-site
// executable cache buy over the old pull-on-demand path. Every remote
// request — gatekeeper ops AND reads against the agent's GASS spool —
// carries the simulated WAN latency, so the serial configuration pays one
// round trip per 64KiB chunk of every job's executable, while the cached
// configuration moves the bytes once and answers every later job with a
// single stage-check RPC.
//
//	serial   staging disabled: every job's site pulls the executable
//	chunked  staging on, every job carries a unique binary (pure push)
//	cached   staging on, all jobs share one binary (push once, then hit)

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/condorg"
	"condorg/internal/faultclass"
	"condorg/internal/gram"
	"condorg/internal/wire"
)

// stageExecSize is the benchmark executable size: 16 chunks at the default
// 64KiB chunk size, so both pull and push span several round trips.
const stageExecSize = 1 << 20

// stageExec builds a runnable noop program padded to stageExecSize whose
// content (and therefore hash) is unique per tag — or shared, when the
// same tag is reused.
func stageExec(tag string) []byte {
	prog := append(gram.Program("noop"), []byte(tag)...)
	pad := make([]byte, stageExecSize-len(prog))
	for i := range pad {
		pad[i] = byte(i)
	}
	return append(prog, pad...)
}

func runStageIn(b *testing.B, mode string) {
	var runs atomic.Int64
	site := benchDelaySite(b, "stage-"+mode, &runs, nil)

	// Reads against the agent's spool cross the WAN (the site pulls from
	// the submit machine), as do the site's stdout appends. The agent's
	// own spool writes are machine-local and stay fast.
	gassFaults := &wire.Faults{}
	gassFaults.SetDelay(func(m string) time.Duration {
		if m == "gass.read" || m == "gass.append" || m == "gass.stat" {
			return wanDelay
		}
		return 0
	})

	cfg := condorg.AgentConfig{
		StateDir: mustTempDir(b, "stage-agent-"+mode),
		Selector: condorg.StaticSelector(site.GatekeeperAddr()),
		Probe:    condorg.ProbeOptions{Interval: 20 * time.Millisecond},
		// Wide pipeline so both modes ramp the full batch; the comparison
		// is transfer strategy, not pipeline shape.
		Pipeline: condorg.PipelineOptions{PerSiteInFlight: 16, MaxInFlight: 64},
		Faults:   condorg.FaultOptions{GASS: gassFaults},
		Breaker: faultclass.BreakerConfig{
			Threshold: 1000,
			BaseDelay: 10 * time.Millisecond,
			MaxDelay:  20 * time.Millisecond,
		},
	}
	if mode == "serial" {
		cfg.Stage.Disabled = true
	}
	agent, err := condorg.NewAgent(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(agent.Close)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ids := make([]string, 0, multiSiteBatch)
		for j := 0; j < multiSiteBatch; j++ {
			tag := "shared"
			if mode == "chunked" {
				// Unique content per job and iteration: every transfer is
				// a genuine push, never a cache hit.
				tag = fmt.Sprintf("unique-%d-%d", i, j)
			}
			id, err := agent.Submit(condorg.SubmitRequest{
				Owner: "bench", Executable: stageExec(tag),
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
	jobs := float64(multiSiteBatch * b.N)
	b.ReportMetric(jobs/b.Elapsed().Seconds(), "jobs/s")
	b.ReportMetric(jobs*stageExecSize/(1<<20)/b.Elapsed().Seconds(), "MBstaged/s")
}

// BenchmarkStageIn — 16-job batches against one site under a simulated
// WAN, comparing the pull path (staging disabled), pure chunked pushes
// (unique binaries), and the content-addressed cache (shared binary).
func BenchmarkStageIn(b *testing.B) {
	for _, mode := range []string{"serial", "chunked", "cached"} {
		b.Run(mode, func(b *testing.B) { runStageIn(b, mode) })
	}
	once("ST", func() {
		fmt.Println("\n=== StageIn: chunked push + per-site executable cache vs pull-on-demand ===")
		fmt.Println("1MiB executables, 5ms simulated WAN latency per request, 4 chunk streams")
		fmt.Println("per site; 'cached' shares one binary across the batch (EXPERIMENTS.md)")
	})
}
