package main

// Isolated layer probes: each layer's public API driven alone, with no
// injected delay, from U goroutines, at the sizes the workloads use. They
// give each layer's cost per operation; multiplied by the per-job counts of
// the traced pass they should roughly add up to process.cpu_s_per_job on
// campaign (README "Residual").

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"condorg/bench/report"
	"condorg/internal/gass"
	"condorg/internal/gram"
	"condorg/internal/gsi"
	"condorg/internal/journal"
	"condorg/internal/lrm"
	"condorg/internal/obs"
	"condorg/internal/wire"
)

// probeTime is how long each probe keeps its operation running.
const probeTime = 150 * time.Millisecond

// probeResult is one probe's cost per operation.
type probeResult struct {
	ops    int64
	wallNS float64 // per operation, as one caller sees it
	cpuNS  float64 // process CPU per operation
	allocs float64 // heap allocations per operation
}

// timeOps runs op from U goroutines for probeTime. op gets its worker
// number and a per-worker iteration count; the first error stops the probe.
func timeOps(op func(worker, i int) error) (probeResult, error) {
	var (
		wg    sync.WaitGroup
		ops   atomic.Int64
		first atomic.Pointer[error]
		ms    runtime.MemStats
	)
	runtime.ReadMemStats(&ms)
	mallocs, cpu, start := ms.Mallocs, processCPU(), time.Now()
	deadline := start.Add(probeTime)
	for u := 0; u < users(); u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline) && first.Load() == nil; i++ {
				if err := op(u, i); err != nil {
					first.CompareAndSwap(nil, &err)
					return
				}
				ops.Add(1)
			}
		}(u)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if p := first.Load(); p != nil {
		return probeResult{}, *p
	}
	runtime.ReadMemStats(&ms)
	n := float64(max(ops.Load(), 1))
	return probeResult{
		ops:    ops.Load(),
		wallNS: float64(elapsed) * float64(users()) / n,
		cpuNS:  float64(processCPU()-cpu) / n,
		allocs: float64(ms.Mallocs-mallocs) / n,
	}, nil
}

// probeRecord is about the size of a journaled job record.
var probeRecord = map[string]any{
	"id": "gj123456", "owner": "owner042", "state": 1, "site": "127.0.0.1:40000",
	"submission_id": "0123456789abcdef0123456789abcdef",
	"spec": map[string]any{"executable": "gass://127.0.0.1:40001/spool/gj123456/exec", "args": []string{"campaign-s1-u0-b12-j7"},
		"stdout_url": "gass://127.0.0.1:40001/spool/gj123456/stdout", "executable_hash": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
	"trace": []string{"submit", "dispatch", "grid-submit", "commit", "pending", "active"},
}

// runProbes runs every probe under dir and adds its metric to out; the
// per-operation CPU of each goes to diag for the README's residual.
func runProbes(dir string, out, diag map[string]report.Metric) error {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	us := func(name string, r probeResult) {
		out[name] = report.Metric{Value: r.wallNS / 1e3, Unit: "us"}
		diag[name+".cpu_us"] = report.Metric{Value: r.cpuNS / 1e3, Unit: "us"}
	}
	for _, p := range []func(string, func(string, probeResult), map[string]report.Metric) error{
		probeJournal, probeWire, probeGram, probeGass, probeSmall,
	} {
		if err := p(dir, us, out); err != nil {
			return err
		}
	}
	return nil
}

func probeJournal(dir string, us func(string, probeResult), out map[string]report.Metric) error {
	for _, mode := range []struct {
		name string
		sync bool
	}{{"journal.put_sync_us", true}, {"journal.put_async_us", false}} {
		st, err := journal.OpenStoreOptions(filepath.Join(dir, mode.name), journal.StoreOptions{Sync: mode.sync})
		if err != nil {
			return err
		}
		r, err := timeOps(func(u, i int) error { return st.Put(fmt.Sprintf("gj%d-%d", u, i%500), probeRecord) })
		st.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", mode.name, err)
		}
		us(mode.name, r)
	}
	// Replay and verify what 10k state changes leave behind: rotated
	// segments, a folded snapshot and a live tail.
	const records = 10000
	replayDir := filepath.Join(dir, "journal.replay")
	st, err := journal.OpenStoreOptions(replayDir, journal.StoreOptions{})
	if err != nil {
		return err
	}
	for i := 0; i < records; i++ {
		if err := st.Put(fmt.Sprintf("gj%d", i%2500), probeRecord); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	start := time.Now()
	st, err = journal.OpenStoreOptions(replayDir, journal.StoreOptions{})
	if err != nil {
		return err
	}
	n := 0
	err = st.ForEach(func(string, json.RawMessage) error { n++; return nil })
	replay := time.Since(start)
	st.Close()
	if err != nil || n != 2500 {
		return fmt.Errorf("journal replay probe: %d keys, err %v", n, err)
	}
	start = time.Now()
	rep, err := journal.VerifyDir(replayDir)
	verify := time.Since(start)
	if err != nil || !rep.OK() {
		return fmt.Errorf("journal verify probe: %v", err)
	}
	out["journal.replay_ms_per_10k"] = report.Metric{Value: ms(int64(replay)), Unit: "ms"}
	out["journal.verify_ms_per_10k"] = report.Metric{Value: ms(int64(verify)), Unit: "ms"}
	return nil
}

// echoEntry is the payload of the wire probes: about one batch-submit entry.
type echoEntry struct {
	ID   string   `json:"id"`
	Exec string   `json:"exec"`
	Args []string `json:"args"`
	Hash string   `json:"hash"`
}

func probeWire(_ string, us func(string, probeResult), out map[string]report.Metric) error {
	srv, err := wire.NewServer(wire.ServerConfig{Name: "probe"})
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.Handle("echo", func(_ string, body json.RawMessage) (any, error) { return body, nil })
	one := []echoEntry{{ID: "0123456789abcdef", Exec: "gass://127.0.0.1:40001/spool/gj1/exec", Args: []string{"campaign-s1-u0-b12-j7"},
		Hash: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"}}
	batch := make([]echoEntry, 32)
	for i := range batch {
		batch[i] = one[0]
	}
	for _, p := range []struct {
		name, codec string
		req         []echoEntry
	}{
		{"wire.call_us.json", wire.CodecJSON, one},
		{"wire.call_us.binary", wire.CodecBinary, one},
		{"wire.batch32_us", wire.CodecBinary, batch},
	} {
		cli := wire.Dial(srv.Addr(), wire.ClientConfig{ServerName: "probe", Codec: p.codec})
		r, err := timeOps(func(int, int) error {
			var resp []echoEntry
			return cli.Call("echo", p.req, &resp)
		})
		cli.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		us(p.name, r)
		if p.name == "wire.call_us.binary" {
			out["wire.allocs_per_call"] = report.Metric{Value: r.allocs, Unit: "count"}
		}
	}
	return nil
}

func probeGram(dir string, us func(string, probeResult), out map[string]report.Metric) error {
	cluster, err := lrm.NewCluster(lrm.Config{Name: "probe", Cpus: 8})
	if err != nil {
		return err
	}
	rt := gram.NewFuncRuntime()
	rt.Register("noop", func(context.Context, []string, []byte, io.Writer, io.Writer, map[string]string) error { return nil })
	site, err := gram.NewSite(gram.SiteConfig{Name: "probe", Cluster: cluster, Runtime: rt, StateDir: filepath.Join(dir, "site")})
	if err != nil {
		return err
	}
	defer site.Close()
	gk := site.GatekeeperAddr()
	cli := gram.NewClient(nil, nil)
	defer cli.Close()
	cli.SetWire(wire.CodecBinary, false)

	var mu sync.Mutex
	var ids []string
	r, err := timeOps(func(int, int) error {
		c, err := cli.Submit(gk, gram.JobSpec{Executable: string(gram.Program("noop"))}, gram.SubmitOptions{SubmissionID: gram.NewSubmissionID()})
		if err != nil {
			return err
		}
		mu.Lock()
		ids = append(ids, c.JobID)
		mu.Unlock()
		return cli.Commit(c)
	})
	if err != nil {
		return fmt.Errorf("gram.two_phase_us: %w", err)
	}
	us("gram.two_phase_us", r)
	if len(ids) < 32 {
		return fmt.Errorf("gram probe: only %d jobs submitted", len(ids))
	}
	r, err = timeOps(func(int, int) error {
		res, err := cli.BatchStatus(gk, ids[:32])
		if err == nil && len(res) != 32 {
			err = fmt.Errorf("%d results for 32 jobs", len(res))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("gram.batch_status32_us: %w", err)
	}
	us("gram.batch_status32_us", r)

	payload := make([]byte, execSize)
	r, err = timeOps(func(int, int) error {
		_, _, err := cli.StageCheck(gk, gram.HashExecutable(payload[:64]))
		return err
	})
	if err != nil {
		return fmt.Errorf("gram.stage_check_us: %w", err)
	}
	us("gram.stage_check_us", r)
	// Push distinct 1 MiB executables in the agent's default 64 KiB
	// chunks: check, 16 chunks, commit.
	const chunk = 64 << 10
	r, err = timeOps(func(u, i int) error {
		data := append([]byte(fmt.Sprintf("#!condor noop\n%d-%d", u, i)), payload...)[:execSize]
		hash := gram.HashExecutable(data)
		if _, _, err := cli.StageCheck(gk, hash); err != nil {
			return err
		}
		for off := 0; off < len(data); off += chunk {
			if _, err := cli.StageChunk(gk, hash, int64(off), data[off:off+chunk]); err != nil {
				return err
			}
		}
		return cli.StageCommit(gk, hash, int64(len(data)))
	})
	if err != nil {
		return fmt.Errorf("gram.stage_push_mb_s: %w", err)
	}
	out["gram.stage_push_mb_s"] = report.Metric{Value: float64(users()) * execSize / 1e6 / (r.wallNS / 1e9), Unit: "MB/s"}
	return nil
}

func probeGass(dir string, us func(string, probeResult), out map[string]report.Metric) error {
	srv, err := gass.NewServer(filepath.Join(dir, "gass"), gass.ServerOptions{})
	if err != nil {
		return err
	}
	defer srv.Close()
	cli := gass.NewClient(nil, nil)
	defer cli.Close()
	big := srv.URLFor("exec")
	if err := cli.WriteFile(big, make([]byte, execSize)); err != nil {
		return err
	}
	r, err := timeOps(func(int, int) error {
		data, err := cli.ReadAll(big)
		if err == nil && len(data) != execSize {
			err = fmt.Errorf("read %d bytes", len(data))
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("gass.read_mb_s: %w", err)
	}
	out["gass.read_mb_s"] = report.Metric{Value: float64(users()) * execSize / 1e6 / (r.wallNS / 1e9), Unit: "MB/s"}
	line := []byte("campaign-s1-u0-b12-j7\n")
	r, err = timeOps(func(u, i int) error {
		_, err := cli.Append(srv.URLFor(fmt.Sprintf("out/%d-%d", u, i%64)), line)
		return err
	})
	if err != nil {
		return fmt.Errorf("gass.append_us: %w", err)
	}
	us("gass.append_us", r)
	return nil
}

// probeSmall covers the layers with no server of their own: the LRM's
// dispatch, GSI delegation and chain verification, and one obs observation.
func probeSmall(_ string, us func(string, probeResult), out map[string]report.Metric) error {
	cluster, err := lrm.NewCluster(lrm.Config{Name: "probe", Cpus: 8})
	if err != nil {
		return err
	}
	defer cluster.Close()
	r, err := timeOps(func(int, int) error {
		started := make(chan struct{})
		_, err := cluster.Submit(lrm.Job{Owner: "probe", Cpus: 1, Run: func(context.Context) error { close(started); return nil }}, 0)
		if err == nil {
			<-started
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("lrm.submit_to_start_us: %w", err)
	}
	us("lrm.submit_to_start_us", r)

	now := time.Now()
	ca, err := gsi.NewCA("/C=bench/CN=probe-ca", now, time.Hour)
	if err != nil {
		return err
	}
	user, err := ca.IssueUser("/C=bench/U=probe", now, time.Hour)
	if err != nil {
		return err
	}
	proxy, err := gsi.NewProxy(user, now, time.Hour)
	if err != nil {
		return err
	}
	r, err = timeOps(func(int, int) error { _, err := gsi.Delegate(proxy, now, time.Minute); return err })
	if err != nil {
		return fmt.Errorf("gsi.delegate_us: %w", err)
	}
	us("gsi.delegate_us", r)
	r, err = timeOps(func(int, int) error { _, err := gsi.VerifyChain(proxy.Chain, ca.Certificate(), now); return err })
	if err != nil {
		return fmt.Errorf("gsi.verify_chain_us: %w", err)
	}
	us("gsi.verify_chain_us", r)

	h := obs.NewRegistry().Histogram("probe_seconds")
	r, _ = timeOps(func(_, i int) error { h.Observe(float64(i)); return nil })
	out["obs.observe_ns"] = report.Metric{Value: r.wallNS, Unit: "ns"}
	return nil
}
