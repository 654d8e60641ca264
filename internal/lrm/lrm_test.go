package lrm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// waitState polls until the job reaches a terminal state or times out.
func waitState(t *testing.T, c *Cluster, id string, want State) JobStatus {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() && st.State != want {
			t.Fatalf("job %s reached %v, want %v (err=%q)", id, st.State, want, st.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %v", id, want)
	return JobStatus{}
}

func TestSubmitRunComplete(t *testing.T) {
	c, err := NewCluster(Config{Name: "pbs", Cpus: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ran := atomic.Bool{}
	id, err := c.Submit(Job{Owner: "u", Run: func(context.Context) error {
		ran.Store(true)
		return nil
	}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, c, id, Completed)
	if !ran.Load() {
		t.Fatal("payload did not run")
	}
	if st.Started.Before(st.Queued) || st.Finished.Before(st.Started) {
		t.Fatalf("timestamps out of order: %+v", st)
	}
	if c.FreeCpus() != 2 {
		t.Fatalf("free CPUs = %d after completion, want 2", c.FreeCpus())
	}
}

func TestFailedJob(t *testing.T) {
	c, _ := NewCluster(Config{Name: "x", Cpus: 1})
	defer c.Close()
	id, _ := c.Submit(Job{Run: func(context.Context) error { return errors.New("segfault") }}, 0)
	st := waitState(t, c, id, Failed)
	if st.Error != "segfault" {
		t.Fatalf("error = %q", st.Error)
	}
}

func TestWalltimeEnforced(t *testing.T) {
	c, _ := NewCluster(Config{Name: "x", Cpus: 1})
	defer c.Close()
	id, _ := c.Submit(Job{
		WallLimit: 20 * time.Millisecond,
		Run: func(ctx context.Context) error {
			<-ctx.Done()
			return ctx.Err()
		},
	}, 0)
	waitState(t, c, id, TimedOut)
}

func TestCancelQueuedAndRunning(t *testing.T) {
	c, _ := NewCluster(Config{Name: "x", Cpus: 1})
	defer c.Close()
	block := make(chan struct{})
	running, _ := c.Submit(Job{Run: func(ctx context.Context) error {
		close(block)
		<-ctx.Done()
		return ctx.Err()
	}}, 0)
	<-block
	queued, _ := c.Submit(Job{Run: func(context.Context) error { return nil }}, 0)
	if st, _ := c.Status(queued); st.State != Queued {
		t.Fatalf("second job state = %v, want queued", st.State)
	}
	if err := c.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, queued, Cancelled)
	if err := c.Cancel(running); err != nil {
		t.Fatal(err)
	}
	waitState(t, c, running, Cancelled)
	// Cancel after terminal is a no-op.
	if err := c.Cancel(running); err != nil {
		t.Fatal(err)
	}
	if err := c.Cancel("nope"); err == nil {
		t.Fatal("cancel of unknown job succeeded")
	}
}

func TestCapacityRespected(t *testing.T) {
	c, _ := NewCluster(Config{Name: "x", Cpus: 3})
	defer c.Close()
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		c.Submit(Job{Run: func(context.Context) error {
			defer wg.Done()
			mu.Lock()
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			mu.Unlock()
			time.Sleep(5 * time.Millisecond)
			mu.Lock()
			inFlight--
			mu.Unlock()
			return nil
		}}, 0)
	}
	wg.Wait()
	if maxInFlight > 3 {
		t.Fatalf("concurrency %d exceeded capacity 3", maxInFlight)
	}
}

func TestOversizedJobRejected(t *testing.T) {
	c, _ := NewCluster(Config{Name: "x", Cpus: 2})
	defer c.Close()
	if _, err := c.Submit(Job{Cpus: 3}, 0); err == nil {
		t.Fatal("job larger than cluster accepted")
	}
}

func TestDuplicateIDRejected(t *testing.T) {
	c, _ := NewCluster(Config{Name: "x", Cpus: 4})
	defer c.Close()
	block := make(chan struct{})
	defer close(block)
	if _, err := c.Submit(Job{ID: "j1", Run: func(context.Context) error { <-block; return nil }}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(Job{ID: "j1"}, 0); err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

func TestSubmitAfterClose(t *testing.T) {
	c, _ := NewCluster(Config{Name: "x", Cpus: 1})
	c.Close()
	if _, err := c.Submit(Job{}, 0); err == nil {
		t.Fatal("submit after close succeeded")
	}
	c.Close() // idempotent
}

func TestStatusCallbackSequence(t *testing.T) {
	var mu sync.Mutex
	var states []State
	done := make(chan struct{})
	c, _ := NewCluster(Config{Name: "x", Cpus: 1, OnEvent: func(s JobStatus) {
		mu.Lock()
		states = append(states, s.State)
		mu.Unlock()
		if s.State.Terminal() {
			close(done)
		}
	}})
	defer c.Close()
	c.Submit(Job{Run: func(context.Context) error { return nil }}, 0)
	<-done
	mu.Lock()
	defer mu.Unlock()
	want := []State{Queued, Running, Completed}
	if len(states) != 3 {
		t.Fatalf("events = %v, want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("events = %v, want %v", states, want)
		}
	}
}

// TestConcurrentSubmitEvents: Submit reports the Queued transition from a
// copy taken under the cluster lock, so a concurrent Submit's scheduling
// pass — which may already be starting the job — neither races with the
// report nor replaces it (run under -race).
func TestConcurrentSubmitEvents(t *testing.T) {
	var mu sync.Mutex
	queued := map[string]int{}
	c, err := NewCluster(Config{Name: "x", Cpus: 4, OnEvent: func(s JobStatus) {
		if s.State == Queued {
			mu.Lock()
			queued[s.ID]++
			mu.Unlock()
			// Yield between Submit's report and its own scheduling pass,
			// so other submitters get to start this job first.
			runtime.Gosched()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const submitters, perSubmitter = 8, 25
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSubmitter; i++ {
				if _, err := c.Submit(Job{Owner: "u", Run: func(context.Context) error { return nil }}, 0); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(queued) != submitters*perSubmitter {
		t.Fatalf("%d jobs reported Queued, want %d", len(queued), submitters*perSubmitter)
	}
	for id, n := range queued {
		if n != 1 {
			t.Fatalf("job %s reported Queued %d times", id, n)
		}
	}
}

// --- policy unit tests (pure functions, no goroutines) ---

func qj(id, owner string, cpus int) *QueuedJob {
	return &QueuedJob{ID: id, Owner: owner, Cpus: cpus}
}

func ids(jobs []*QueuedJob) string {
	s := ""
	for i, j := range jobs {
		if i > 0 {
			s += ","
		}
		s += j.ID
	}
	return s
}

func TestFIFOHeadOfLineBlocking(t *testing.T) {
	queue := []*QueuedJob{qj("a", "u", 4), qj("b", "u", 1)}
	if got := ids(FIFO{}.Select(queue, 2, nil)); got != "" {
		t.Fatalf("FIFO started %q past a blocked head", got)
	}
	if got := ids(FIFO{}.Select(queue, 5, nil)); got != "a,b" {
		t.Fatalf("FIFO with room = %q, want a,b", got)
	}
}

func TestBackfillJumpsBlockedHead(t *testing.T) {
	queue := []*QueuedJob{qj("big", "u", 4), qj("small", "u", 1), qj("med", "u", 2)}
	if got := ids(Backfill{}.Select(queue, 3, nil)); got != "small,med" {
		t.Fatalf("backfill = %q, want small,med", got)
	}
}

func TestFairShareBalancesOwners(t *testing.T) {
	queue := []*QueuedJob{
		qj("a1", "alice", 1), qj("a2", "alice", 1),
		qj("b1", "bob", 1),
	}
	// Alice already has 2 running; Bob has 0 — Bob goes first.
	got := FairShare{}.Select(queue, 2, []string{"alice", "alice"})
	if ids(got) != "b1,a1" {
		t.Fatalf("fairshare = %q, want b1,a1", ids(got))
	}
}

func TestPolicyByName(t *testing.T) {
	for _, name := range []string{"", "fifo", "backfill", "fairshare"} {
		if _, err := PolicyByName(name); err != nil {
			t.Fatalf("PolicyByName(%q): %v", name, err)
		}
	}
	if _, err := PolicyByName("lottery"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// Property: no policy ever over-commits CPUs or schedules a job twice.
func TestQuickPoliciesNeverOvercommit(t *testing.T) {
	policies := []Policy{FIFO{}, Backfill{}, FairShare{}}
	f := func(sizes []uint8, free uint8) bool {
		var queue []*QueuedJob
		for i, s := range sizes {
			queue = append(queue, qj(fmt.Sprintf("j%d", i), fmt.Sprintf("u%d", i%3), int(s%8)+1))
		}
		for _, p := range policies {
			picks := p.Select(queue, int(free%32), nil)
			total := 0
			seen := map[string]bool{}
			for _, j := range picks {
				if seen[j.ID] {
					return false
				}
				seen[j.ID] = true
				total += j.Cpus
			}
			if total > int(free%32) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestWaitChange follows one job through every transition without polling,
// and checks that Close releases waiters on jobs that can no longer move and
// lets waiters on running jobs see the kill.
func TestWaitChange(t *testing.T) {
	c, err := NewCluster(Config{Name: "pbs", Cpus: 1})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	first, err := c.Submit(Job{Run: func(context.Context) error { <-release; return nil }}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The single CPU is taken: the second job stays Queued until release.
	second, err := c.Submit(Job{Run: func(ctx context.Context) error { <-ctx.Done(); return nil }}, 0)
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		st  JobStatus
		err error
	}
	started := make(chan result, 1)
	go func() {
		st, err := c.WaitChange(second, Queued)
		started <- result{st, err}
	}()
	select {
	case r := <-started:
		t.Fatalf("WaitChange returned %+v before any transition", r)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if r := <-started; r.err != nil || r.st.State != Running {
		t.Fatalf("after release: %+v, want Running", r)
	}
	// A state already left behind returns at once.
	if st, err := c.WaitChange(first, Queued); err != nil || st.State == Queued {
		t.Fatalf("WaitChange(first, Queued) = %+v, %v", st, err)
	}
	st, err := c.WaitChange(first, Running)
	if err != nil || st.State != Completed {
		t.Fatalf("WaitChange(first, Running) = %+v, %v; want Completed", st, err)
	}
	if _, err := c.WaitChange("nope", Queued); err == nil {
		t.Fatal("WaitChange on an unknown job succeeded")
	}

	// Two waiters across Close: one on a finished job (nothing will ever
	// change), one on the job Close is about to kill.
	stuck := make(chan result, 1)
	killed := make(chan result, 1)
	go func() {
		st, err := c.WaitChange(first, Completed)
		stuck <- result{st, err}
	}()
	go func() {
		st, err := c.WaitChange(second, Running)
		killed <- result{st, err}
	}()
	time.Sleep(10 * time.Millisecond)
	c.Close()
	for name, ch := range map[string]chan result{"finished": stuck, "running": killed} {
		select {
		case r := <-ch:
			switch name {
			case "finished":
				if !errors.Is(r.err, ErrClosed) {
					t.Errorf("waiter on the finished job: %+v, want ErrClosed", r)
				}
			case "running":
				if r.err != nil || r.st.State != Cancelled {
					t.Errorf("waiter on the running job: %+v, want Cancelled", r)
				}
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Close left the waiter on the %s job blocked", name)
		}
	}
	if _, err := c.WaitChange(first, Completed); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitChange after Close = %v, want ErrClosed", err)
	}
}

// TestLRMReleasesPayload: the cluster keeps a finished job's record (status
// queries need it) but lets go of its Run closure and whatever that
// captured — at a grid site, the staged executable. Every way of finishing
// releases it, and Cancel, WaitChange and Close on the record still behave.
func TestLRMReleasesPayload(t *testing.T) {
	c, err := NewCluster(Config{Name: "pbs", Cpus: 4})
	if err != nil {
		t.Fatal(err)
	}
	var freed atomic.Int64
	submit := func(run func(ctx context.Context, exe []byte) error) string {
		exe := make([]byte, 1<<20) // what stageAndSubmit's closure captures
		runtime.SetFinalizer(&exe[0], func(*byte) { freed.Add(1) })
		id, err := c.Submit(Job{Owner: "u", Run: func(ctx context.Context) error { return run(ctx, exe) }}, 0)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	completed := submit(func(context.Context, []byte) error { return nil })
	failed := submit(func(context.Context, []byte) error { return errors.New("boom") })
	running := make(chan struct{})
	cancelled := submit(func(ctx context.Context, _ []byte) error { close(running); <-ctx.Done(); return nil })
	waitState(t, c, completed, Completed)
	waitState(t, c, failed, Failed)
	<-running
	if err := c.Cancel(cancelled); err != nil {
		t.Fatal(err)
	}
	if st, err := c.WaitChange(cancelled, Running); err != nil || st.State != Cancelled {
		t.Fatalf("WaitChange across the cancel = %+v, %v", st, err)
	}

	c.mu.Lock()
	for _, id := range []string{completed, failed, cancelled} {
		if c.jobs[id].job.Run != nil {
			t.Errorf("finished job %s still references its Run", id)
		}
	}
	c.mu.Unlock()
	for i := 0; i < 50 && freed.Load() < 3; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if freed.Load() != 3 {
		t.Fatalf("%d of 3 finished payloads were collected", freed.Load())
	}

	// The payload-less records keep answering.
	if st, err := c.Status(failed); err != nil || st.State != Failed || st.Error != "boom" {
		t.Fatalf("Status(failed) = %+v, %v", st, err)
	}
	if err := c.Cancel(completed); err != nil {
		t.Fatalf("Cancel of a finished job: %v", err)
	}
	if st, err := c.WaitChange(completed, Running); err != nil || st.State != Completed {
		t.Fatalf("WaitChange(completed, Running) = %+v, %v", st, err)
	}
	if c.FreeCpus() != 4 {
		t.Fatalf("free CPUs = %d with nothing running, want 4", c.FreeCpus())
	}
	c.Close()
	if _, err := c.WaitChange(completed, Completed); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitChange after Close = %v, want ErrClosed", err)
	}

	// A job that never ran lets go too: cancelled while queued behind a
	// busy CPU, or still queued when the cluster closes.
	one, err := NewCluster(Config{Name: "pbs", Cpus: 1})
	if err != nil {
		t.Fatal(err)
	}
	c = one
	freed.Store(0)
	busy := make(chan struct{})
	submit(func(ctx context.Context, _ []byte) error { close(busy); <-ctx.Done(); return nil })
	<-busy
	queuedCancel := submit(func(context.Context, []byte) error { return nil })
	queuedClose := submit(func(context.Context, []byte) error { return nil })
	if err := c.Cancel(queuedCancel); err != nil {
		t.Fatal(err)
	}
	c.Close()
	c.mu.Lock()
	for _, id := range []string{queuedCancel, queuedClose} {
		if rec := c.jobs[id]; rec.status.State != Cancelled || rec.job.Run != nil {
			t.Errorf("queued job %s: %v, still references its Run: %v", id, rec.status.State, rec.job.Run != nil)
		}
	}
	c.mu.Unlock()
	for i := 0; i < 50 && freed.Load() < 3; i++ {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if freed.Load() != 3 {
		t.Fatalf("%d of 3 payloads were collected after cancel-while-queued and Close", freed.Load())
	}
}
