package main

// From observations to metrics: the correctness oracle, the end-to-end
// metrics of BENCHMARK.json, and the harness-clock job segments.

import (
	"fmt"
	"path/filepath"
	"sort"

	"condorg/bench/report"
	"condorg/internal/journal"
)

// maxProblems bounds the oracle failures kept in prose.
const maxProblems = 10

// allJobs flattens the ledger.
func (w *world) allJobs() []*job {
	var jobs []*job
	for _, b := range w.batches {
		jobs = append(jobs, b.jobs...)
	}
	return jobs
}

// oracle checks every job the run attempted: submitted and acknowledged,
// ended Completed with ExitOK inside the wait limit, its body ran exactly
// once on exactly the bytes submitted, and (on the sample) its stdout came
// back. It returns attempted, failed, and the first failures in prose.
func (w *world) oracle() (attempted, failed int, problems []string) {
	fail := func(format string, args ...any) {
		failed++
		if len(problems) < maxProblems {
			problems = append(problems, fmt.Sprintf(format, args...))
		}
	}
	for _, j := range w.allJobs() {
		attempted++
		switch runs := j.runs.Load(); {
		case j.err != "":
			fail("%s: %s", j.tag, j.err)
		case runs != 1:
			fail("%s: program body ran %d times, want exactly once", j.tag, runs)
		case j.badExec.Load():
			fail("%s: site ran bytes other than the executable submitted", j.tag)
		}
	}
	if n := w.rt.unknown.Load(); n > 0 {
		fail("%d program bodies ran for tags the generator never made", n)
	}
	return attempted, failed, problems
}

// verifyJournals proves every agent StateDir the run wrote, offline, the
// way `condorg audit verify` does; call it after the agent is closed.
func verifyJournals(stateRoot string) []string {
	var problems []string
	agents, _ := filepath.Glob(filepath.Join(stateRoot, "agent*"))
	for _, dir := range agents {
		queue := filepath.Join(dir, "queue")
		for _, d := range append([]string{queue}, journal.PartitionDirs(filepath.Join(queue, "parts"))...) {
			rep, err := journal.VerifyDir(d)
			if err != nil || !rep.OK() {
				problems = append(problems, fmt.Sprintf("journal.VerifyDir(%s): %v", d, err))
			}
		}
	}
	return problems
}

// measuredSeconds is the length of the measured interval: the window for
// the loop workloads, the summed restart→drained times for recovery.
func (w *world) measuredSeconds() float64 {
	if w.def.name == "recovery" {
		var total int64
		for _, ns := range w.recoverNS {
			total += ns
		}
		return seconds(total)
	}
	return seconds(w.w1 - w.w0)
}

// throughput is jobs completed per second. A closed-loop client's batches
// tile its time, so each client's rate is taken over whole batches — the
// jobs of its batches that ended inside the window, over the time from the
// first of those batches' start to the last one's end — and the clients'
// rates add up. Cutting at the window's edges instead would quantise the
// count by up to a batch per client (±10% on staging). Recovery has no
// loop: its rate is jobs recovered per second of restart→drained time.
func (w *world) throughput(measured int) float64 {
	if w.def.name == "recovery" {
		return ratio(float64(measured), w.measuredSeconds())
	}
	type cycle struct {
		jobs       int
		start, end int64
	}
	perUser := map[int]*cycle{}
	for _, b := range w.batches {
		if b.end < w.w0 || b.end >= w.w1 {
			continue
		}
		c := perUser[b.user]
		if c == nil {
			c = &cycle{start: b.start}
			perUser[b.user] = c
		}
		c.start, c.end = min(c.start, b.start), max(c.end, b.end)
		for _, j := range b.jobs {
			if j.err == "" {
				c.jobs++
			}
		}
	}
	var rate float64
	for _, c := range perUser {
		rate += ratio(float64(c.jobs), seconds(c.end-c.start))
	}
	return rate
}

// measuredJobs are the error-free jobs whose outcome became known inside
// the window, in completion order.
func (w *world) measuredJobs() []*job {
	var jobs []*job
	for _, j := range w.allJobs() {
		if j.err == "" && j.done >= w.w0 && j.done < w.w1 {
			jobs = append(jobs, j)
		}
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].done < jobs[b].done })
	return jobs
}

func (j *job) latencyNS() int64 {
	if j.from != 0 {
		return j.done - j.from
	}
	return j.done - j.post
}

// timing collects samples of one duration metric in milliseconds.
type timing []float64

func (t *timing) add(ns int64) { *t = append(*t, ms(ns)) }

// endToEnd fills the metrics a user of the system sees. Every workload
// reports every one of them (batch size 1 makes a job its own batch).
func (w *world) endToEnd(jobs []*job, run *report.Run) {
	var ack, lat, makespan timing
	for _, j := range jobs {
		ack.add(j.ack - j.post)
		lat.add(j.latencyNS())
	}
	for _, b := range w.batches {
		if b.end >= w.w0 && b.end < w.w1 {
			makespan.add(b.end - b.start)
		}
	}
	setup := make([]float64, len(w.setupNS))
	for i, ns := range w.setupNS {
		setup[i] = seconds(ns)
	}
	put := func(name string, v float64, unit string, samples int) {
		run.Metrics[name] = report.Metric{Value: v, Unit: unit}
		run.Samples[name] = samples
	}
	put("setup_s", report.Median(setup), "s", len(setup))
	put("jobs_per_s", w.throughput(len(jobs)), "1/s", len(jobs))
	put("job_latency_p50_ms", report.Median(lat), "ms", len(lat))
	put("job_latency_p95_ms", report.Quantile(lat, 0.95), "ms", len(lat))
	put("makespan_p50_ms", report.Median(makespan), "ms", len(makespan))
	put("rss_mb", peakRSSMB(), "MB", 1)
	// Demoted from end-to-end: one fsync wait, it swings 30-40% between
	// back-to-back runs on a shared disk (README "Demoted metrics"). The
	// traced pass reports the same interval as seg.ack_ms.
	run.Diagnostic["submit_ack_p50_ms"] = report.Metric{Value: report.Median(ack), Unit: "ms"}
	if w.def.name == "recovery" {
		run.Diagnostic["recover_s"] = report.Metric{Value: report.Median(makespan) / 1e3, Unit: "s"}
	}
}

// segments fills the four harness-clock segments that partition a job's
// latency exactly (post → ack → body entered → body returned → outcome
// known), the per-class latencies of the staging workload, and recovery's
// replay/reconnect split.
func (w *world) segments(jobs []*job, out map[string]report.Metric) {
	var ack, toStart, run, notify, hit, miss timing
	for _, j := range jobs {
		enter, exit := j.enter.Load(), j.exit.Load()
		ack.add(j.ack - j.post)
		toStart.add(enter - j.ack)
		run.add(exit - enter)
		notify.add(j.done - exit)
		switch j.class {
		case "hit":
			hit.add(j.latencyNS())
		case "miss":
			miss.add(j.latencyNS())
		}
	}
	put := func(name string, t timing) { out[name] = report.Metric{Value: report.Median(t), Unit: "ms"} }
	put("seg.ack_ms", ack)
	put("seg.to_start_ms", toStart)
	put("seg.run_ms", run)
	put("seg.notify_ms", notify)
	put("gram.stage.hit_job_ms", hit)
	put("gram.stage.miss_job_ms", miss)
	var replay, reconnect []float64
	for i, ns := range w.replayNS {
		replay = append(replay, seconds(ns))
		reconnect = append(reconnect, seconds(w.recoverNS[i]-ns))
	}
	out["journal.replay_s"] = report.Metric{Value: report.Median(replay), Unit: "s"}
	out["condorg.reconnect_s"] = report.Metric{Value: report.Median(reconnect), Unit: "s"}
}

// jobSpans renders the ledger as spans: a root per batch, a child per job,
// and the job's four segments below it.
func (w *world) jobSpans() {
	for _, b := range w.batches {
		root := w.spans.add("batch", b.start, b.end, 0, "")
		for _, j := range b.jobs {
			if j.err != "" {
				continue
			}
			enter, exit := j.enter.Load(), j.exit.Load()
			id := w.spans.add("job", j.post, j.done, root, j.tag)
			w.spans.add("seg.ack", j.post, j.ack, id, j.tag)
			w.spans.add("seg.to_start", j.ack, enter, id, j.tag)
			w.spans.add("seg.run", enter, exit, id, j.tag)
			w.spans.add("seg.notify", exit, j.done, id, j.tag)
		}
	}
}
