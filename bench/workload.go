package main

// The workloads. Three are closed loops of U clients over batches of jobs
// (batch size 1 = interactive); recovery is a repeated crash-restart drill.
// Every workload yields the same observations — per-job post/ack/done
// stamps and per-batch makespans — so one set of end-to-end metrics covers
// all four.

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"condorg/internal/condorg"
)

// users is U: the number of closed-loop clients, one connection each.
func users() int { return min(runtime.NumCPU(), 4) }

const (
	// execSize is the size of a staged executable in the staging workload.
	execSize = 1 << 20
	// stdoutSampleShare of jobs have their stdout fetched and compared.
	stdoutSampleShare = 0.05
	// recoveryJobs is N: jobs Active on the sites when the agent goes down.
	// Fixed so that one repetition (fill, crash, restart, drain) takes
	// about 1.5 s on the 2-core reference box; see README "How N was fixed".
	recoveryJobs = 128
	// recoveryMinReps keeps the median meaningful when --seconds is short.
	recoveryMinReps = 3
)

// workloadDef is the static shape of a workload.
type workloadDef struct {
	name   string
	sites  int
	cpus   int
	owners int // 0 = one per client
	batch  int
	entry  depth
	// compose returns the batch'th batch of client u (jobs tagged and
	// classed, owners assigned); rng is that client's seeded stream.
	compose func(w *world, u, batch int, rng *rand.Rand) []*job
}

var workloads = map[string]*workloadDef{
	"interactive": {name: "interactive", sites: 4, cpus: 8, batch: 1, entry: depthGateway, compose: composeNoop},
	"campaign":    {name: "campaign", sites: 16, cpus: 8, owners: 100, batch: 32, entry: depthGateway, compose: composeNoop},
	"staging":     {name: "staging", sites: 4, cpus: 8, batch: 16, entry: depthAgent, compose: composeStaging},
	"recovery":    {name: "recovery", sites: 4, cpus: recoveryJobs / 4, batch: recoveryJobs, entry: depthAgent},
}

// workloadOrder is the order workloads are listed and run in.
var workloadOrder = []string{"interactive", "campaign", "staging", "recovery"}

func (d *workloadDef) ownerCount() int {
	if d.owners > 0 {
		return d.owners
	}
	return users()
}

// batchRec is one batch as the client saw it.
type batchRec struct {
	user       int
	jobs       []*job
	start, end int64
}

// world is one run of one workload: the stack, the generator state and
// everything observed.
type world struct {
	def   *workloadDef
	opt   runOptions
	clk   *clock
	spans *spanLog
	rt    *benchRuntime
	st    *stack
	// depths are the doors each client rotates through: the workload's
	// own, or all three for the entry-depth peel.
	depths []depth

	// ownerOrder is the seeded permutation batches draw owners from.
	ownerOrder []int
	ownerNext  atomic.Int64
	mu         sync.Mutex
	batches    []*batchRec
	// jobsLeft counts down the process's job budget (see jobBudget); at
	// zero the clients stop and the window closes at stoppedAt.
	jobsLeft  atomic.Int64
	stoppedAt atomic.Int64

	setupNS []int64 // one per stack construction
	// window is [w0, w1) in clock ns: only operations completing inside
	// it are measured.
	w0, w1 int64
	// layer accumulates the per-layer read-outs over the measured
	// intervals (traced runs only); layerJobs is the jobs they cover.
	layer     readout
	layerJobs int
	// recovery only
	recoverNS, replayNS []int64
}

// runOptions are the knobs of one run.
type runOptions struct {
	root    string // checkout root
	seed    int64
	seconds int
	trace   bool
	delay   time.Duration
	setups  int // stack constructions to time (last one is kept)
}

func (o runOptions) warmup() time.Duration {
	return min(2*time.Second, time.Duration(o.seconds)*time.Second/4)
}

func newWorld(def *workloadDef, opt runOptions) *world {
	w := &world{def: def, opt: opt, clk: newClock(), depths: []depth{def.entry}}
	if opt.trace {
		w.spans = &spanLog{}
	}
	rng := rand.New(rand.NewSource(opt.seed))
	w.ownerOrder = rng.Perm(def.ownerCount())
	padding := make([]byte, execSize)
	rng.Read(padding)
	w.rt = newRuntime(w.clk, padding)
	w.jobsLeft.Store(jobBudget())
	return w
}

// spend takes n jobs from the budget; false means it is used up, and the
// first refusal marks where the measured window must end.
func (w *world) spend(n int) bool {
	if w.jobsLeft.Add(-int64(n)) >= 0 {
		return true
	}
	w.stoppedAt.CompareAndSwap(0, w.clk.now())
	return false
}

func (w *world) newJob(u, batch, k int) *job {
	j := &job{
		tag:     fmt.Sprintf("%s-s%d-u%d-b%d-j%d", w.def.name, w.opt.seed, u, batch, k),
		program: "noop",
	}
	w.rt.register(j)
	return j
}

// composeNoop builds a batch of noop jobs under the next owner of the
// seeded permutation (with one owner per client that is the client's own).
func composeNoop(w *world, u, batch int, rng *rand.Rand) []*job {
	owner := u
	if w.def.owners > 0 {
		owner = w.ownerOrder[int(w.ownerNext.Add(1)-1)%len(w.ownerOrder)]
	}
	jobs := make([]*job, w.def.batch)
	for k := range jobs {
		j := w.newJob(u, batch, k)
		j.owner = owner
		j.sample = rng.Float64() < stdoutSampleShare
		jobs[k] = j
	}
	return jobs
}

// composeStaging builds 8 jobs on the shared 1 MiB executable and 8 on
// unique ones, in seeded order.
func composeStaging(w *world, u, batch int, rng *rand.Rand) []*job {
	jobs := composeNoop(w, u, batch, rng)
	for k, j := range jobs {
		if k < len(jobs)/2 {
			j.class, j.label = "hit", "shared"
		} else {
			j.class, j.label = "miss", j.tag
		}
	}
	rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	return jobs
}

// buildStack constructs the stack under a fresh state directory and runs
// one job through the workload's own door; the elapsed time is one setup_s
// observation.
func (w *world) buildStack(n int) error {
	start := w.clk.now()
	root := filepath.Join(w.opt.root, ".bench_build", "state", fmt.Sprintf("%d-%s-%d", os.Getpid(), w.def.name, n))
	if err := os.MkdirAll(root, 0o700); err != nil {
		return err
	}
	st, err := newStack(stackConfig{
		stateRoot: root,
		sites:     w.def.sites,
		cpus:      w.def.cpus,
		owners:    w.def.ownerCount(),
		frontDoor: w.def.entry != depthAgent,
		delay:     w.opt.delay,
		seed:      w.opt.seed,
	}, w.rt, w.clk, w.spans)
	if err != nil {
		return err
	}
	w.st = st
	first := w.newJob(0, -n-1, 0)
	e := st.newClient(w.depths[:1])
	defer e.close()
	w.runBatch(e, 0, []*job{first})
	if first.err != "" {
		return fmt.Errorf("first job after set-up: %s", first.err)
	}
	w.setupNS = append(w.setupNS, w.clk.now()-start)
	return nil
}

// teardown closes the stack and removes its state.
func (w *world) teardown() {
	root := w.st.cfg.stateRoot
	w.st.close()
	os.RemoveAll(root)
}

// runBatch submits every job of the batch, then waits for each in order,
// stamping the job ledger; failures are recorded on the job, never fatal.
func (w *world) runBatch(e entry, u int, jobs []*job) {
	b := &batchRec{user: u, jobs: jobs, start: w.clk.now()}
	for _, j := range jobs {
		j.post = w.clk.now()
		id, err := e.submit(j)
		j.ack = w.clk.now()
		if err != nil {
			j.err = "submit: " + err.Error()
			continue
		}
		j.id = id
	}
	for _, j := range jobs {
		if j.id == "" {
			continue
		}
		w.waitJob(e, j)
	}
	b.end = w.clk.now()
	w.mu.Lock()
	w.batches = append(w.batches, b)
	w.mu.Unlock()
}

// waitJob waits for the job's outcome, stamps when it became known, and
// records anything other than Completed with ExitOK as the job's failure.
func (w *world) waitJob(e entry, j *job) {
	info, err := e.wait(j)
	j.done = w.clk.now()
	switch {
	case err != nil:
		j.err = "wait: " + err.Error()
	case info.State != condorg.Completed || !info.ExitOK:
		j.err = fmt.Sprintf("ended %v exit_ok=%v: %s", info.State, info.ExitOK, info.Error)
	}
}

// stdoutGrace is how long a sampled job's stdout may trail its Completed
// state: a JobManager streams output on its own 10 ms tick, so the final
// append can land after the completion callback (README "Findings").
const stdoutGrace = 2 * time.Second

// checkStdout is the stdout oracle: every sampled, otherwise healthy job
// must hand back exactly the tag its body echoed. It runs after the
// client's measured loop, so it costs no job any latency.
func checkStdout(e entry, jobs []*job) {
	for _, j := range jobs {
		if !j.sample || j.err != "" {
			continue
		}
		var out []byte
		var err error
		ok := waitUntil(stdoutGrace, func() bool {
			out, err = e.stdout(j)
			return err == nil && string(out) == j.tag+"\n"
		})
		switch {
		case err != nil:
			j.err = "stdout: " + err.Error()
		case !ok:
			j.err = fmt.Sprintf("stdout %q, want the tag", out)
		}
	}
}

// runLoops drives U closed-loop clients through warm-up and the measured
// window; a batch in flight when the window ends is drained, not counted.
func (w *world) runLoops() {
	start := w.clk.now()
	w.w0 = start + int64(w.opt.warmup())
	w.w1 = w.w0 + int64(time.Duration(w.opt.seconds)*time.Second)
	var wg sync.WaitGroup
	for u := 0; u < users(); u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(w.opt.seed<<8 + int64(u)))
			e := w.st.newClient(w.depths)
			defer e.close()
			var mine []*job
			for batch := 0; w.clk.now() < w.w1 && w.spend(w.def.batch); batch++ {
				jobs := w.def.compose(w, u, batch, rng)
				w.runBatch(e, u, jobs)
				mine = append(mine, jobs...)
			}
			checkStdout(e, mine)
		}(u)
	}
	// Per-layer read-outs are taken at the window's edges, from here, so
	// the client loops never pause for them.
	if w.opt.trace {
		time.Sleep(time.Duration(w.w0 - w.clk.now()))
		before := w.read()
		time.Sleep(time.Duration(w.w1 - w.clk.now()))
		w.layer = w.read().minus(before)
	}
	wg.Wait()
	if at := w.stoppedAt.Load(); at != 0 {
		w.w1 = min(w.w1, at)
	}
}

// runRecovery repeats the §4.2 drill until the window is used up: fill a
// fresh agent with N jobs Active at the sites, close it, let every job
// finish while it is down, then time NewAgent on the same StateDir until
// every job is known terminal.
func (w *world) runRecovery() error {
	w.w0 = w.clk.now()
	limit := w.w0 + int64(time.Duration(w.opt.seconds)*time.Second)
	for rep := 0; (rep < recoveryMinReps || w.clk.now() < limit) && w.spend(recoveryJobs); rep++ {
		if rep > 0 {
			// A fresh agent on a fresh StateDir, so every repetition
			// replays the same amount of history.
			w.st.agent.Close()
			w.st.agentCfg.StateDir = filepath.Join(w.st.cfg.stateRoot, fmt.Sprintf("agent-rep%d", rep))
			if err := w.st.reopenAgent(); err != nil {
				return err
			}
		}
		if err := w.recoveryRep(rep); err != nil {
			return fmt.Errorf("repetition %d: %w", rep, err)
		}
	}
	w.w1 = w.clk.now()
	return nil
}

func (w *world) recoveryRep(rep int) error {
	gate := make(chan struct{})
	w.rt.setGate(gate)
	b := &batchRec{jobs: make([]*job, recoveryJobs)}
	e := w.st.newClient(w.depths)
	for k := range b.jobs {
		j := w.newJob(0, rep, k)
		j.program = "gate"
		j.owner = k % len(w.st.owners)
		j.sample = k%20 == 0
		b.jobs[k] = j
		j.post = w.clk.now()
		id, err := e.submit(j)
		j.ack = w.clk.now()
		if err != nil {
			close(gate)
			return fmt.Errorf("fill: %w", err)
		}
		j.id = id
	}
	all := func(stamp func(*job) int64) func() bool {
		return func() bool {
			for _, j := range b.jobs {
				if stamp(j) == 0 {
					return false
				}
			}
			return true
		}
	}
	if !waitUntil(waitTimeout, all(func(j *job) int64 { return j.enter.Load() })) {
		close(gate)
		return fmt.Errorf("fill: not all %d jobs became active", recoveryJobs)
	}
	w.st.agent.Close() // the submit machine goes down
	close(gate)
	if !waitUntil(waitTimeout, all(func(j *job) int64 { return j.exit.Load() })) {
		return fmt.Errorf("jobs did not finish while the agent was down")
	}

	// The restarted agent's registry starts empty, so only the
	// harness-side counters need a "before".
	var before readout
	if w.opt.trace {
		before = w.readHarness()
	}
	b.start = w.clk.now()
	if err := w.st.reopenAgent(); err != nil {
		return err
	}
	replayed := w.clk.now()
	// "Blind time" per job: restart → this job known terminal.
	var wg sync.WaitGroup
	for _, j := range b.jobs {
		wg.Add(1)
		go func(j *job) {
			defer wg.Done()
			w.waitJob(e, j)
		}(j)
	}
	wg.Wait()
	b.end = w.clk.now()
	checkStdout(e, b.jobs)
	if w.opt.trace {
		w.layer = w.layer.plus(w.read().minus(before))
	}
	w.spans.add("journal.replay", b.start, replayed, 0, "")
	w.spans.add("condorg.reconnect", replayed, b.end, 0, "")
	w.recoverNS = append(w.recoverNS, b.end-b.start)
	w.replayNS = append(w.replayNS, replayed-b.start)
	// A recovered job's latency is its blind time: restart → known done.
	for _, j := range b.jobs {
		j.from = b.start
	}
	w.batches = append(w.batches, b)
	return nil
}
