package main

// What a traced pass adds beyond the workload itself: the entry-depth peel
// (interactive only), the generator honesty check, and the layer probes.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"condorg/bench/report"
	"condorg/internal/gateway"
)

// tracedExtras completes a traced run's per-layer metrics.
func tracedExtras(res *report.Run, opt runOptions) error {
	gatewaySelf, ctlSelf := 0.0, 0.0
	if res.Workload == "interactive" {
		var err error
		if gatewaySelf, ctlSelf, err = peel(opt, res.Diagnostic); err != nil {
			return fmt.Errorf("peel: %w", err)
		}
	}
	res.Metrics["gateway.self_ms"] = report.Metric{Value: gatewaySelf, Unit: "ms"}
	res.Metrics["condorg.ctl.self_ms"] = report.Metric{Value: ctlSelf, Unit: "ms"}

	posts, err := generatorCeiling()
	if err != nil {
		return fmt.Errorf("generator check: %w", err)
	}
	res.Metrics["gen.max_posts_per_s"] = report.Metric{Value: posts, Unit: "1/s"}
	// On campaign every job is one POST, so its job rate is its POST rate;
	// a generator that cannot do 10× that would be part of the result.
	if rate := res.Diagnostic["traced.jobs_per_s"].Value; res.Workload == "campaign" && posts < 10*rate {
		res.Failed++
		res.Correct = false
		res.Problems = append(res.Problems, fmt.Sprintf("generator tops out at %.0f POST/s, under 10× the campaign's %.0f POST/s", posts, rate))
	}
	return runProbes(filepath.Join(opt.root, ".bench_build", "state", fmt.Sprintf("%d-probes", os.Getpid())), res.Metrics, res.Diagnostic)
}

// peel runs the interactive loop on one stack with every client rotating
// through the three entry depths job by job, so the depths see the same
// machine at the same time, and attributes the latency differences:
// gateway.self_ms = gateway − ctl, condorg.ctl.self_ms = ctl − Agent.Submit.
func peel(opt runOptions, diag map[string]report.Metric) (gatewaySelf, ctlSelf float64, err error) {
	opt.trace, opt.setups = false, 1
	w := newWorld(workloads["interactive"], opt)
	w.depths = []depth{depthGateway, depthCtl, depthAgent}
	if err := w.buildStack(0); err != nil {
		return 0, 0, err
	}
	defer w.teardown()
	w.runLoops()
	if _, failed, problems := w.oracle(); failed > 0 {
		return 0, 0, fmt.Errorf("%d operations failed: %v", failed, problems)
	}
	lat, ack := make([]timing, len(w.depths)), make([]timing, len(w.depths))
	for _, j := range w.measuredJobs() {
		lat[j.via].add(j.latencyNS())
		ack[j.via].add(j.ack - j.post)
	}
	p50 := make([]float64, len(w.depths))
	for i, d := range w.depths {
		p50[i] = report.Median(lat[i])
		diag["peel.job_latency_p50_ms."+string(d)] = report.Metric{Value: p50[i], Unit: "ms"}
		diag["peel.submit_ack_p50_ms."+string(d)] = report.Metric{Value: report.Median(ack[i]), Unit: "ms"}
	}
	return p50[0] - p50[1], p50[1] - p50[2], nil
}

// generatorCeiling drives the gateway client loops against a stub that
// answers POST /v1/jobs instantly, for one second, and returns POSTs per
// second: what the generator can do when the system costs nothing.
func generatorCeiling() (float64, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req gateway.SubmitRequest
		json.NewDecoder(r.Body).Decode(&req)
		json.NewEncoder(w).Encode(gateway.SubmitResponse{ID: "gj0"})
	})}
	go srv.Serve(lis) // returns once srv.Close() below closes lis
	defer srv.Close()

	const span = time.Second
	var posts atomic.Int64
	var firstErr atomic.Pointer[error]
	var wg sync.WaitGroup
	start := time.Now()
	for u := 0; u < users(); u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			e := newGatewayEntry(lis.Addr().String())
			defer e.close()
			j := &job{tag: "generator-check", program: "noop", owner: u}
			for time.Since(start) < span {
				if _, err := e.submit(j); err != nil {
					firstErr.CompareAndSwap(nil, &err)
					return
				}
				posts.Add(1)
			}
		}(u)
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return 0, *p
	}
	return float64(posts.Load()) / time.Since(start).Seconds(), nil
}
