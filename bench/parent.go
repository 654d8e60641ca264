package main

// The all-workloads mode: every workload untraced and then traced, each in
// a re-exec'd child process, folded into one result file; plus the
// sensitivity self-test built on the same children.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	"condorg/bench/report"
)

// parent drives child processes of this same binary.
type parent struct {
	root    string
	spec    *report.Spec
	seconds int
	delayMS int
}

// child runs one workload in a fresh process and returns its result. The
// child's own table goes straight to our standard output.
func (p parent) child(workload string, seed int64, trace bool, delayMS int) (*report.Run, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	outDir := filepath.Join(p.root, "bench", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	runOut := filepath.Join(outDir, fmt.Sprintf("run_%s_%d.json", workload, os.Getpid()))
	defer os.Remove(runOut)
	traceArg := "0"
	if trace {
		traceArg = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(p.seconds), "-trace", traceArg, "-root", p.root,
		"-delay-ms", strconv.Itoa(delayMS), "-run-out", runOut)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	runErr := cmd.Run()
	raw, err := os.ReadFile(runOut)
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: child left no result (%v)", workload, seed, runErr)
	}
	var res report.Run
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

func (p parent) env() report.Env {
	stateRoot := filepath.Join(p.root, ".bench_build")
	os.MkdirAll(stateRoot, 0o755)
	return report.Env{
		Nproc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit(p.root), FSType: fsType(stateRoot), Users: users(), DelayMS: p.delayMS,
	}
}

// commit names the checked-out commit, "+dirty" when the tree differs from
// it, "unknown" outside a git checkout.
func commit(root string) string {
	head, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	name := strings.TrimSpace(string(head))
	if status, err := exec.Command("git", "-C", root, "status", "--porcelain").Output(); err == nil && len(status) > 0 {
		name += "+dirty"
	}
	return name
}

// runAll is the one command of the issue: all workloads, untraced then
// traced, reps times on consecutive seeds, into one result file.
func (p parent) runAll(seed int64, reps int, out string, merge bool) error {
	if out == "" {
		out = filepath.Join(p.root, "bench", "out", "result.json")
	}
	file := &report.File{Schema: 1, Env: p.env(), Seconds: p.seconds}
	if merge {
		if old, err := report.LoadFile(out); err == nil {
			if old.Env != file.Env || old.Seconds != file.Seconds {
				return fmt.Errorf("%s was measured elsewhere (%+v, %d s); not merging", out, old.Env, old.Seconds)
			}
			file = old
		}
	}
	attempted, failed := map[string]int{}, map[string]int{}
	for rep := 0; rep < reps; rep++ {
		s := seed + int64(rep)
		file.Seeds = append(file.Seeds, s)
		for _, wl := range workloadOrder {
			plain, err := p.child(wl, s, false, p.delayMS)
			if err != nil {
				return err
			}
			traced, err := p.child(wl, s, true, p.delayMS)
			if err != nil {
				return err
			}
			// What tracing cost: the traced pass's own end-to-end
			// numbers against the untraced pass's.
			for name, m := range plain.Metrics {
				if t, ok := traced.Diagnostic["traced."+name]; ok && m.Value != 0 {
					traced.Diagnostic["trace_overhead_pct."+name] = report.Metric{Value: 100 * (t.Value - m.Value) / m.Value, Unit: "%"}
				}
			}
			for _, r := range []*report.Run{plain, traced} {
				file.Add(r)
				attempted[wl] += r.Attempted
				failed[wl] += r.Failed
			}
		}
	}
	file.Summarise()
	if file.FailedOpsShare == nil {
		file.FailedOpsShare = map[string]float64{}
	}
	bad := 0
	for _, wl := range workloadOrder {
		file.FailedOpsShare[wl] = ratio(float64(failed[wl]), float64(attempted[wl]))
		bad += failed[wl]
	}
	if err := report.SaveJSON(out, file); err != nil {
		return err
	}
	printFile(os.Stdout, p.spec, file)
	fmt.Printf("result file: %s\n", out)
	if bad > 0 {
		return fmt.Errorf("%d operations failed the oracle", bad)
	}
	return nil
}

// selfTest checks that the benchmark can see what it claims to see:
// doubling the injected delay must be flagged on interactive's
// job_latency_p50_ms, and a plain rerun must flag nothing. Sets are run
// interleaved (A, B, doubled; A, B, doubled; ...) so drift hits all alike.
func (p parent) selfTest(seed int64, reps int) error {
	reps = max(reps, 3)
	sets := []struct {
		name  string
		delay int
		file  *report.File
	}{{"baseline", p.delayMS, nil}, {"rerun", p.delayMS, nil}, {"doubled-delay", 2 * p.delayMS, nil}}
	for i := range sets {
		sets[i].file = &report.File{Schema: 1, Env: p.env(), Seconds: p.seconds}
	}
	for rep := 0; rep < reps; rep++ {
		for i := range sets {
			res, err := p.child("interactive", seed+int64(rep), false, sets[i].delay)
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("interactive failed its oracle under %s", sets[i].name)
			}
			sets[i].file.Add(res)
		}
	}
	for i := range sets {
		sets[i].file.Summarise()
	}
	rerun := report.Diff(p.spec, sets[0].file, sets[1].file)
	doubled := report.Diff(p.spec, sets[0].file, sets[2].file)
	fmt.Printf("baseline vs rerun (want nothing):\n%s", report.FormatMoves(rerun))
	fmt.Printf("baseline vs doubled delay (want job_latency_p50_ms REGRESSED):\n%s", report.FormatMoves(doubled))
	if len(rerun) > 0 {
		return fmt.Errorf("self-test: a plain rerun was flagged")
	}
	for _, m := range doubled {
		if m.Metric == "job_latency_p50_ms" && m.Verdict == report.Regressed {
			fmt.Println("self-test passed")
			return nil
		}
	}
	return fmt.Errorf("self-test: doubling the injected delay was not flagged on job_latency_p50_ms")
}

// printRun prints one run's metrics by name with unit, sample count and,
// for end-to-end metrics, the regression bound.
func printRun(w io.Writer, spec *report.Spec, r *report.Run) {
	pass := "end-to-end (untraced)"
	if r.Trace {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "== %s seed %d, %d s, %s: %d operations, %d failed\n", r.Workload, r.Seed, r.Seconds, pass, r.Attempted, r.Failed)
	for _, name := range report.Names(r.Metrics) {
		m := r.Metrics[name]
		line := fmt.Sprintf("%-36s %14.4f %-6s", name, m.Value, m.Unit)
		if n, ok := r.Samples[name]; ok {
			line += fmt.Sprintf(" n=%-6d", n)
		}
		if b, ok := spec.Bound(name); ok {
			line += fmt.Sprintf(" bound %.0f%%", 100*b)
		}
		fmt.Fprintln(w, line)
	}
	for _, name := range report.Names(r.Diagnostic) {
		m := r.Diagnostic[name]
		fmt.Fprintf(w, "  diagnostic %-48s %14.4f %s\n", name, m.Value, m.Unit)
	}
	for _, prob := range r.Problems {
		fmt.Fprintln(w, "  PROBLEM:", prob)
	}
}

// printFile prints a result set: per workload, every cell's median,
// quartiles and range.
func printFile(w io.Writer, spec *report.Spec, f *report.File) {
	fmt.Fprintf(w, "\n%d repetition(s) of %d s on %d cores (GOMAXPROCS %d, %s, commit %s, state on %s, U=%d, delay %d ms)\n",
		len(f.Seeds), f.Seconds, f.Env.Nproc, f.Env.GoMaxProcs, f.Env.GoVersion, f.Env.Commit, f.Env.FSType, f.Env.Users, f.Env.DelayMS)
	for _, wl := range workloadOrder {
		fmt.Fprintf(w, "== %s (failed_ops_share %.4f)\n", wl, f.FailedOpsShare[wl])
		for _, kind := range []string{"end_to_end", "per_layer", "diagnostic"} {
			for _, name := range report.Names(f.Cells[wl]) {
				c := f.Cells[wl][name]
				if c.Kind != kind {
					continue
				}
				line := fmt.Sprintf("  %-11s %-48s %14.4f %-6s q1 %.4f q3 %.4f max-min %.4f n=%d",
					kind, name, c.Median, c.Unit, c.Q1, c.Q3, c.Range, len(c.Values))
				if b, ok := spec.Bound(name); ok && kind == "end_to_end" {
					line += fmt.Sprintf("  spread %.1f%% bound %.0f%%", 100*report.Spread(c.Values), 100*b)
				}
				fmt.Fprintln(w, line)
			}
		}
	}
}
