package mw

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func randMatrix(rng *rand.Rand, n int) [][]float64 {
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			m[i][j] = float64(rng.Intn(20))
		}
	}
	return m
}

func TestSolveLAPKnown(t *testing.T) {
	cost := [][]float64{
		{4, 1, 3},
		{2, 0, 5},
		{3, 2, 2},
	}
	res, err := SolveLAP(cost)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost != 5 { // 1 + 2 + 2
		t.Fatalf("cost = %v, want 5", res.Cost)
	}
	// Assignment is a permutation achieving the cost.
	seen := map[int]bool{}
	total := 0.0
	for i, j := range res.RowToCol {
		if seen[j] {
			t.Fatalf("column %d assigned twice", j)
		}
		seen[j] = true
		total += cost[i][j]
	}
	if total != res.Cost {
		t.Fatalf("assignment cost %v != reported %v", total, res.Cost)
	}
}

func TestSolveLAPErrors(t *testing.T) {
	if _, err := SolveLAP(nil); err == nil {
		t.Fatal("empty matrix accepted")
	}
	if _, err := SolveLAP([][]float64{{1, 2}, {3}}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestSolveLAPSingle(t *testing.T) {
	res, err := SolveLAP([][]float64{{7}})
	if err != nil || res.Cost != 7 || res.RowToCol[0] != 0 {
		t.Fatalf("1x1: %+v err=%v", res, err)
	}
}

// Property: JV matches brute force on random instances up to 7x7.
func TestQuickLAPMatchesBruteForce(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz)%6 + 2
		rng := rand.New(rand.NewSource(seed))
		cost := randMatrix(rng, n)
		res, err := SolveLAP(cost)
		if err != nil {
			return false
		}
		return res.Cost == lapBruteForce(cost)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestQAPSolveKnownTiny(t *testing.T) {
	// 3 facilities in a line with distances 0/1/2; flows favor putting
	// the heavy pair adjacent.
	q := &QAP{
		Flow: [][]float64{
			{0, 10, 1},
			{10, 0, 1},
			{1, 1, 0},
		},
		Dist: [][]float64{
			{0, 1, 2},
			{1, 0, 1},
			{2, 1, 0},
		},
	}
	sol, err := q.Solve()
	if err != nil {
		t.Fatal(err)
	}
	want := qapBruteForce(q)
	if sol.Cost != want {
		t.Fatalf("B&B cost %v, brute force %v", sol.Cost, want)
	}
	if q.Objective(sol.Perm) != sol.Cost {
		t.Fatalf("reported perm does not achieve reported cost")
	}
	if sol.LAPsSolved == 0 {
		t.Fatal("no LAP bounds were computed")
	}
}

// Property: B&B equals brute force on random QAPs up to 6x6, and pruning
// actually happens (nodes seen < full tree for nontrivial instances).
func TestQuickQAPMatchesBruteForce(t *testing.T) {
	f := func(seed int64, sz uint8) bool {
		n := int(sz)%4 + 3 // 3..6
		rng := rand.New(rand.NewSource(seed))
		q := &QAP{Flow: randMatrix(rng, n), Dist: randMatrix(rng, n)}
		sol, err := q.Solve()
		if err != nil {
			return false
		}
		if sol.Cost != qapBruteForce(q) {
			return false
		}
		return sol.Perm == nil || q.Objective(sol.Perm) == sol.Cost
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQAPValidate(t *testing.T) {
	bad := &QAP{Flow: [][]float64{{1}}, Dist: [][]float64{{1}, {2, 3}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("malformed QAP accepted")
	}
	if _, err := bad.Solve(); err == nil {
		t.Fatal("Solve of malformed QAP succeeded")
	}
}

func TestQAPSubtreeDecomposition(t *testing.T) {
	// Solving each root subtree independently and taking the min equals
	// the full solve — the Master-Worker decomposition's correctness.
	rng := rand.New(rand.NewSource(11))
	q := &QAP{Flow: randMatrix(rng, 5), Dist: randMatrix(rng, 5)}
	full, _ := q.Solve()
	best := math.Inf(1)
	for _, prefix := range q.RootTasks() {
		sol := q.SolveSubtree(prefix, math.Inf(1))
		if sol.Cost < best {
			best = sol.Cost
		}
	}
	if best != full.Cost {
		t.Fatalf("decomposed min %v != full solve %v", best, full.Cost)
	}
	// With a tight incumbent the subtree prunes to nothing.
	sol := q.SolveSubtree(q.RootTasks()[0], 0)
	if sol.Perm != nil {
		t.Fatal("subtree beat an impossible incumbent")
	}
}

// --- Master/Worker framework ---

type sqTask struct {
	X int `json:"x"`
}

type sqResult struct {
	Y int `json:"y"`
}

func squareWorker(_ context.Context, task Task, _ json.RawMessage) (any, any, error) {
	var in sqTask
	if err := json.Unmarshal(task.Payload, &in); err != nil {
		return nil, nil, err
	}
	return sqResult{Y: in.X * in.X}, nil, nil
}

func TestMasterWorkerBasic(t *testing.T) {
	m, err := NewMaster(MasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for i := 1; i <= 20; i++ {
		if _, err := m.AddTask(sqTask{X: i}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			RunWorker(context.Background(), m.Addr(), fmt.Sprintf("w%d", w), squareWorker)
		}(w)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	if err := m.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	results := m.Results()
	if len(results) != 20 {
		t.Fatalf("results = %d", len(results))
	}
	for id, r := range results {
		var out sqResult
		json.Unmarshal(r.Payload, &out)
		if out.Y != id*id {
			t.Fatalf("task %d -> %d", id, out.Y)
		}
	}
	// Every completion is credited to a worker, however the scheduler
	// happened to spread the tasks over them.
	credited := 0
	for _, n := range m.WorkerStats() {
		credited += n
	}
	if credited != 20 {
		t.Fatalf("worker stats %v credit %d completions, want 20", m.WorkerStats(), credited)
	}
}

func TestMasterLeaseRedispatch(t *testing.T) {
	m, err := NewMaster(MasterOptions{Lease: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	m.AddTask(sqTask{X: 3})
	// A worker that fetches and dies: lease must expire and the task be
	// re-dispatched to a healthy worker.
	dead := make(chan struct{})
	go RunWorker(context.Background(), m.Addr(), "dier", func(context.Context, Task, json.RawMessage) (any, any, error) {
		close(dead)
		select {} // never returns: simulates a crashed worker holding a lease
	})
	<-dead
	done := make(chan error, 1)
	go func() {
		_, err := RunWorker(context.Background(), m.Addr(), "healthy", squareWorker)
		done <- err
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Second)
	defer cancel()
	if err := m.Wait(ctx); err != nil {
		t.Fatal("task never completed after lease expiry")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if stats := m.WorkerStats(); stats["healthy"] != 1 {
		t.Fatalf("stats = %v", stats)
	}
}

func TestWorkerErrorTriggersRetryElsewhere(t *testing.T) {
	m, _ := NewMaster(MasterOptions{Lease: 30 * time.Millisecond})
	defer m.Close()
	m.AddTask(sqTask{X: 2})
	attempt := 0
	var mu sync.Mutex
	_, err := RunWorker(context.Background(), m.Addr(), "flaky", func(ctx context.Context, task Task, sh json.RawMessage) (any, any, error) {
		mu.Lock()
		attempt++
		a := attempt
		mu.Unlock()
		if a == 1 {
			return nil, nil, errors.New("transient")
		}
		return squareWorker(ctx, task, sh)
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempt < 2 {
		t.Fatalf("attempts = %d", attempt)
	}
	if done, total := m.Progress(); done != 1 || total != 1 {
		t.Fatalf("progress = %d/%d", done, total)
	}
}

func TestSharedStateBroadcast(t *testing.T) {
	m, _ := NewMaster(MasterOptions{})
	defer m.Close()
	m.SetShared(map[string]float64{"incumbent": 100})
	m.AddTask(sqTask{X: 1})
	var seen float64
	RunWorker(context.Background(), m.Addr(), "w", func(_ context.Context, task Task, shared json.RawMessage) (any, any, error) {
		var s map[string]float64
		json.Unmarshal(shared, &s)
		seen = s["incumbent"]
		return sqResult{Y: 1}, map[string]float64{"incumbent": 42}, nil
	})
	if seen != 100 {
		t.Fatalf("worker saw shared=%v", seen)
	}
	var s map[string]float64
	if ok, _ := m.Shared(&s); !ok || s["incumbent"] != 42 {
		t.Fatalf("master shared after update = %v", s)
	}
}

func TestMasterWorkerSolvesQAP(t *testing.T) {
	// End-to-end §6.1 in miniature: the master decomposes the B&B tree,
	// workers solve subtrees sharing the incumbent, the global best
	// matches the sequential solve.
	rng := rand.New(rand.NewSource(5))
	q := &QAP{Flow: randMatrix(rng, 6), Dist: randMatrix(rng, 6)}
	sequential, _ := q.Solve()

	m, _ := NewMaster(MasterOptions{Lease: 5 * time.Second})
	defer m.Close()
	type qapTask struct {
		Prefix []int `json:"prefix"`
	}
	type sharedState struct {
		Incumbent float64 `json:"incumbent"`
	}
	m.SetShared(sharedState{Incumbent: math.Inf(1)})
	for _, prefix := range q.RootTasks() {
		m.AddTask(qapTask{Prefix: prefix})
	}
	worker := func(_ context.Context, task Task, shared json.RawMessage) (any, any, error) {
		var in qapTask
		if err := json.Unmarshal(task.Payload, &in); err != nil {
			return nil, nil, err
		}
		incumbent := math.Inf(1)
		var s sharedState
		if shared != nil && json.Unmarshal(shared, &s) == nil && s.Incumbent > 0 {
			incumbent = s.Incumbent
		}
		sol := q.SolveSubtree(in.Prefix, incumbent)
		var update any
		if sol.Perm != nil && sol.Cost < incumbent {
			update = sharedState{Incumbent: sol.Cost}
		}
		return sol, update, nil
	}
	var wg sync.WaitGroup
	var totalLAPs int64
	var mu sync.Mutex
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			RunWorker(context.Background(), m.Addr(), fmt.Sprintf("w%d", w), worker)
		}(w)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := m.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	best := math.Inf(1)
	for _, r := range m.Results() {
		var sol QAPSolution
		json.Unmarshal(r.Payload, &sol)
		mu.Lock()
		totalLAPs += sol.LAPsSolved
		mu.Unlock()
		if sol.Perm != nil && sol.Cost < best {
			best = sol.Cost
		}
	}
	if best != sequential.Cost {
		t.Fatalf("distributed best %v != sequential %v", best, sequential.Cost)
	}
	if totalLAPs == 0 {
		t.Fatal("no LAPs solved")
	}
}

func TestMasterClosedAddTask(t *testing.T) {
	m, _ := NewMaster(MasterOptions{})
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	if _, err := m.AddTask(sqTask{}); err == nil {
		t.Fatal("AddTask on closed master succeeded")
	}
	m.Close()
}

func TestWaitNoTasks(t *testing.T) {
	m, _ := NewMaster(MasterOptions{})
	defer m.Close()
	if err := m.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}
