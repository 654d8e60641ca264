// Command bench is the repository benchmark: four workloads through the
// real loopback stack, end-to-end metrics with fixed bounds, and per-layer
// attribution measured from outside the program. See README.md.
//
// With -workload it runs that one workload in this process and prints, as
// the last line of standard output, the JSON object BENCHMARK.json's
// contract asks for. Without it, it runs every workload — untraced, then
// traced — each in a re-exec'd child so that RSS, GC state and caches do
// not leak between them, prints every metric by name and unit, and writes a
// result file.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"condorg/bench/report"
)

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	root     string
	delayMS  int
	runOut   string
	reps     int
	out      string
	merge    bool
	selftest bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in-process (default: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: same seed, same inputs")
	flag.IntVar(&o.seconds, "seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced pass: report the per-layer metrics instead of the end-to-end ones")
	flag.StringVar(&o.root, "root", "", "checkout root (default: nearest parent directory holding BENCHMARK.json)")
	flag.IntVar(&o.delayMS, "delay-ms", 5, "injected delay per request on every gatekeeper, JobManager, callback and remote-GASS server")
	flag.StringVar(&o.runOut, "run-out", "", "also write the full run result as JSON to this file (used by the parent process)")
	flag.IntVar(&o.reps, "reps", 1, "all-workloads mode: repetitions, on seeds seed..seed+reps-1")
	flag.StringVar(&o.out, "out", "", "all-workloads mode: result file (default bench/out/result.json)")
	flag.BoolVar(&o.merge, "merge", false, "all-workloads mode: add the repetitions to an existing -out file")
	flag.BoolVar(&o.selftest, "selftest", false, "sensitivity self-test: doubled delay must be flagged, a plain rerun must not")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	root, err := findRoot(o.root)
	if err != nil {
		return err
	}
	spec, err := report.LoadSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	if o.seconds <= 0 {
		o.seconds = spec.RunSeconds
	}
	if o.workload == "" {
		p := parent{root: root, spec: spec, seconds: o.seconds, delayMS: o.delayMS}
		if o.selftest {
			return p.selfTest(o.seed, o.reps)
		}
		return p.runAll(o.seed, o.reps, o.out, o.merge)
	}
	opt := runOptions{
		root: root, seed: o.seed, seconds: o.seconds, trace: o.trace == 1,
		delay: time.Duration(o.delayMS) * time.Millisecond, setups: setupsPerRun,
	}
	res, err := runWorkload(o.workload, opt)
	if err != nil {
		return err
	}
	if opt.trace {
		if err := tracedExtras(res, opt); err != nil {
			return err
		}
	}
	printRun(os.Stdout, spec, res)
	if o.runOut != "" {
		if err := report.SaveJSON(o.runOut, res); err != nil {
			return err
		}
	}
	fmt.Println(res.Line())
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed the oracle", o.workload, res.Failed, res.Attempted)
	}
	return nil
}

// findRoot locates the checkout root: the given directory, or the nearest
// parent of the working directory that holds BENCHMARK.json.
func findRoot(root string) (string, error) {
	if root != "" {
		return filepath.Abs(root)
	}
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		up := filepath.Dir(dir)
		if up == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or above; pass -root")
		}
		dir = up
	}
}
