package main

// One workload, one process: set up (several times, for a steady setup_s),
// warm up, measure, tear down, check, report.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"condorg/bench/report"
)

// setupsPerRun stack constructions are timed per run and their median is
// setup_s; the last one is the stack the workload then runs on.
const setupsPerRun = 7

// execute runs the workload's measured phase on a built stack.
func (w *world) execute() error {
	if w.def.name == "recovery" {
		return w.runRecovery()
	}
	w.runLoops()
	return nil
}

// runWorkload runs one workload end to end and returns its result. With
// opt.trace the result carries the per-layer metrics instead of the
// end-to-end ones.
func runWorkload(name string, opt runOptions) (*report.Run, error) {
	def := workloads[name]
	if def == nil {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadOrder)
	}
	// Quiesce the disk first: writeback a previous process left behind
	// (staging leaves hundreds of MB) would otherwise be billed to this
	// run's fsyncs.
	syscall.Sync()
	w := newWorld(def, opt)
	for n := 0; n < opt.setups; n++ {
		if n > 0 {
			w.teardown()
		}
		if err := w.buildStack(n); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", n, err)
		}
	}
	err := w.execute()
	measured := w.measuredJobs()
	var queueWait float64
	if opt.trace && err == nil {
		w.layerJobs = len(measured)
		queueWait = w.queueWaitMS(measured)
	}
	stateRoot := w.st.cfg.stateRoot
	w.st.close()
	journalProblems := verifyJournals(stateRoot)
	os.RemoveAll(stateRoot)
	syscall.Sync()
	if err != nil {
		return nil, err
	}

	run := &report.Run{
		Workload: name, Seed: opt.seed, Seconds: opt.seconds, Trace: opt.trace,
		Metrics: map[string]report.Metric{}, Samples: map[string]int{}, Diagnostic: map[string]report.Metric{},
	}
	run.Attempted, run.Failed, run.Problems = w.oracle()
	run.Failed += len(journalProblems)
	run.Problems = append(run.Problems, journalProblems...)
	if len(measured) == 0 {
		run.Failed++
		run.Problems = append(run.Problems, "no job completed inside the measured window")
	}
	run.Correct = run.Failed == 0

	if !opt.trace {
		w.endToEnd(measured, run)
		return run, nil
	}
	w.segments(measured, run.Metrics)
	w.layerMetrics(run.Metrics)
	run.Metrics["condorg.pipeline.queue_wait_ms"] = report.Metric{Value: queueWait, Unit: "ms"}
	// The traced pass also reports the end-to-end numbers it saw, so the
	// caller can state what tracing cost; they are never the headline.
	traced := &report.Run{Metrics: map[string]report.Metric{}, Samples: map[string]int{}, Diagnostic: map[string]report.Metric{}}
	w.endToEnd(measured, traced)
	for name, m := range traced.Metrics {
		run.Diagnostic["traced."+name] = m
	}
	for verb, n := range w.layer.rpcs {
		run.Diagnostic["wire.rpcs_per_job."+verb] = report.Metric{Value: ratio(float64(n), float64(w.layerJobs)), Unit: "count"}
	}
	w.jobSpans()
	if err := w.writeTrace(); err != nil {
		return nil, err
	}
	return run, nil
}

// writeTrace dumps the in-memory spans to bench/out/trace_<workload>.json.
func (w *world) writeTrace() error {
	dir := filepath.Join(w.opt.root, "bench", "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(w.spans.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace_"+w.def.name+".json"), raw, 0o644)
}
