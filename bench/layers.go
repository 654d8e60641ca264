package main

// Per-layer attribution, measured from outside the program: counts at the
// seams (Delay hooks, wrapped Selector), deltas of the agent's own public
// MetricsSnapshot, Agent.Trace on a sample of jobs, and whole-process CPU
// and allocation. Spans inside the program are ROADMAP item 2.

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"

	"condorg/bench/report"
	"condorg/internal/obs"
)

// readout is one reading of every per-layer source; readouts subtract and
// add so a layer's activity over an interval is after.minus(before).
type readout struct {
	ctr        map[string]float64    // agent counters by base name (labels summed)
	hist       map[string][2]float64 // agent histograms by base name: {count, sum}
	rpcs       map[string]int64      // "<server>/<verb>" arrivals
	selCalls   int64
	selNS      int64
	staged     int64 // executable bytes received by the sites' push plane
	cpuNS      int64 // process user+system CPU
	mallocs    int64
	allocBytes int64
}

// readHarness reads the sources that live outside the agent.
func (w *world) readHarness() readout {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return readout{
		rpcs:       w.st.rpcs.snapshot(),
		selCalls:   w.st.sel.calls.Load(),
		selNS:      w.st.sel.ns.Load(),
		staged:     w.st.stagedBytes(),
		cpuNS:      processCPU(),
		mallocs:    int64(ms.Mallocs),
		allocBytes: int64(ms.TotalAlloc),
	}
}

// read adds the agent's metric registry, folded by base name.
func (w *world) read() readout {
	r := w.readHarness()
	r.ctr, r.hist = map[string]float64{}, map[string][2]float64{}
	for _, m := range w.st.agent.MetricsSnapshot() {
		base, _, _ := strings.Cut(m.Name, "{")
		switch m.Type {
		case "counter":
			r.ctr[base] += m.Value
		case "histogram":
			h := r.hist[base]
			r.hist[base] = [2]float64{h[0] + float64(m.Count), h[1] + m.Sum}
		}
	}
	return r
}

func (a readout) minus(b readout) readout { return a.combine(b, -1) }
func (a readout) plus(b readout) readout  { return a.combine(b, +1) }

func (a readout) combine(b readout, sign int64) readout {
	f := float64(sign)
	out := readout{
		ctr: map[string]float64{}, hist: map[string][2]float64{}, rpcs: map[string]int64{},
		selCalls: a.selCalls + sign*b.selCalls, selNS: a.selNS + sign*b.selNS,
		staged: a.staged + sign*b.staged, cpuNS: a.cpuNS + sign*b.cpuNS,
		mallocs: a.mallocs + sign*b.mallocs, allocBytes: a.allocBytes + sign*b.allocBytes,
	}
	for k, v := range a.ctr {
		out.ctr[k] = v
	}
	for k, v := range b.ctr {
		out.ctr[k] += f * v
	}
	for k, v := range a.hist {
		out.hist[k] = v
	}
	for k, v := range b.hist {
		h := out.hist[k]
		out.hist[k] = [2]float64{h[0] + f*v[0], h[1] + f*v[1]}
	}
	for k, v := range a.rpcs {
		out.rpcs[k] = v
	}
	for k, v := range b.rpcs {
		out.rpcs[k] += sign * v
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics turns the accumulated readout into the count-type per-layer
// metrics, normalised per measured job where that is the natural base.
func (w *world) layerMetrics(out map[string]report.Metric) {
	l, jobs := w.layer, float64(w.layerJobs)
	put := func(name string, v float64, unit string) { out[name] = report.Metric{Value: v, Unit: unit} }
	mean := func(name string) float64 { h := l.hist[name]; return ratio(h[1], h[0]) }

	g := rpcGroups(l.rpcs)
	put("wire.rpcs_per_job", ratio(float64(g["total"]), jobs), "count")
	for _, server := range []string{"gatekeeper", "jobmanager", "callback", "gass"} {
		put("wire.rpcs_per_job."+server, ratio(float64(g[server]), jobs), "count")
	}
	put("wire.status_rpcs_per_job", ratio(float64(g["status"]), jobs), "count")
	put("broker.select_us", ratio(float64(l.selNS)/1e3, float64(l.selCalls)), "us")

	// With Journal.Sync every flush is exactly one fsync.
	put("journal.fsyncs_per_job", ratio(l.hist["journal_flush_seconds"][0], jobs), "count")
	put("journal.records_per_flush", mean("journal_batch_records"), "count")
	put("gram.batch_size_mean", mean("gram_batch_size"), "count")
	put("gram.errors_per_job", ratio(l.ctr["gram_errors_total"], jobs), "count")
	hits, misses := l.ctr["stage_cache_hits_total"], l.ctr["stage_cache_misses_total"]
	put("gram.stage_hit_ratio", ratio(hits, hits+misses), "ratio")
	put("gram.staged_mb_per_s", ratio(float64(l.staged)/1e6, w.measuredSeconds()), "MB/s")
	put("condorg.pipeline.stalls_per_job", ratio(l.ctr["gm_worker_stalls_total"], jobs), "count")
	put("condorg.pipeline.probe_lag_ms", 1e3*mean("gm_probe_lag_seconds"), "ms")
	rejected := l.ctr["agent_owner_rejected_total"]
	put("condorg.ctl.rejected_share", ratio(rejected, rejected+l.ctr["agent_owner_admitted_total"]), "ratio")
	put("condorg.agent.resubmits_per_job", ratio(l.ctr["agent_resubmits_total"], jobs), "count")

	put("process.cpu_s_per_job", ratio(seconds(l.cpuNS), jobs), "s")
	put("process.allocs_per_job", ratio(float64(l.mallocs), jobs), "count")
	put("process.bytes_per_job", ratio(float64(l.allocBytes), jobs), "B")
}

// queueWaitMS is submit→dispatch from Agent.Trace on up to 200 measured
// jobs: the time a job sat in the agent before a pipeline worker took it.
func (w *world) queueWaitMS(measured []*job) float64 {
	step := max(1, len(measured)/200)
	var waits []float64
	for i := 0; i < len(measured); i += step {
		tl, err := w.st.agent.Trace(measured[i].id)
		if err != nil {
			continue
		}
		var submit, dispatch *obs.TraceEvent
		for k := range tl.Events {
			ev := &tl.Events[k]
			switch {
			case ev.Phase == obs.PhaseSubmit && submit == nil:
				submit = ev
			case ev.Phase == obs.PhaseDispatch && dispatch == nil:
				dispatch = ev
			}
		}
		if submit != nil && dispatch != nil {
			waits = append(waits, float64(dispatch.Wall.Sub(submit.Wall))/1e6)
		}
	}
	return report.Median(waits)
}

// fdsPerJob is what one completed job keeps open for as long as its site
// lives: a site never closes the JobManager of a finished job, so its
// listener and its callback and GASS connections (two descriptors each,
// both ends being in this process) stay — 4.9 per job measured on campaign
// (README "Findings").
const fdsPerJob = 5

// jobBudget is how many jobs this process can run before it would run out
// of file descriptors. The limit is first raised as far as the kernel lets
// this user raise it; where that is not far, the budget ends a run's window
// early instead of letting submissions fail with EMFILE.
func jobBudget() int64 {
	const want = 1 << 18
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return 1 << 30
	}
	if lim.Cur < want {
		raised := syscall.Rlimit{Cur: want, Max: max(lim.Max, want)}
		if syscall.Setrlimit(syscall.RLIMIT_NOFILE, &raised) != nil {
			raised = syscall.Rlimit{Cur: lim.Max, Max: lim.Max}
			_ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &raised) // the soft limit stays; the budget below reads it
		}
		_ = syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim)
	}
	// 1000 descriptors are kept for everything that is not per job.
	return max(int64(lim.Cur)-1000, 0) / fdsPerJob
}

// processCPU is the user+system CPU time this process has used, in ns.
func processCPU() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// peakRSSMB is VmHWM: the most memory the process ever had resident.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// fsType names the filesystem under dir, since fsync cost is a property of
// the disk, not of the program.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794C7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
