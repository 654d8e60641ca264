package condorg

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"condorg/internal/gram"
	"condorg/internal/journal"
	"condorg/internal/lrm"
)

// The agent's spool (DESIGN.md §8): every payload once under objects/
// <sha256>, every job's output as streams of the GASS server's one append
// log, one user log per owner under logs/ — so a job creates no file of its
// own.

// bytesRuntime runs jobs, checking that the site handed each the executable
// the test submitted for it (by args[0], its tag); runs counts executions
// by tag.
type bytesRuntime struct {
	mu   sync.Mutex
	want map[string][]byte
	runs map[string]int
	bad  []string // tags that ran on other bytes
}

func newBytesRuntime() *bytesRuntime {
	return &bytesRuntime{want: make(map[string][]byte), runs: make(map[string]int)}
}

// expect registers a job's tag and the executable it must run on.
func (r *bytesRuntime) expect(tag string, exec []byte) {
	r.mu.Lock()
	r.want[tag] = exec
	r.mu.Unlock()
}

func (r *bytesRuntime) Run(_ context.Context, exec []byte, args []string, _ []byte, stdout, _ io.Writer, _ map[string]string) error {
	r.mu.Lock()
	if !bytes.Equal(exec, r.want[args[0]]) {
		r.bad = append(r.bad, args[0])
	}
	r.runs[args[0]]++
	r.mu.Unlock()
	fmt.Fprintf(stdout, "ran %s\n", args[0])
	return nil
}

// checkRanOnce fails unless every expected job ran exactly once, on its
// executable, and nothing else ran.
func (r *bytesRuntime) checkRanOnce(t *testing.T) {
	t.Helper()
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.bad) > 0 {
		t.Fatalf("jobs %v ran on bytes other than their submitted executable", r.bad)
	}
	for tag := range r.want {
		if r.runs[tag] != 1 {
			t.Fatalf("job %s ran %d times, want 1 (all runs %v)", tag, r.runs[tag], r.runs)
		}
	}
	if len(r.runs) != len(r.want) {
		t.Fatalf("%d distinct jobs ran, want %d", len(r.runs), len(r.want))
	}
}

// newRuntimeSite is a site whose jobs run on rt.
func newRuntimeSite(t *testing.T, rt gram.Runtime) *gram.Site {
	t.Helper()
	cluster, err := lrm.NewCluster(lrm.Config{Name: "spool-site", Cpus: 8})
	if err != nil {
		t.Fatal(err)
	}
	site, err := gram.NewSite(gram.SiteConfig{
		Name: "spool-site", Cluster: cluster, Runtime: rt, StateDir: t.TempDir(), CommitTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(site.Close)
	return site
}

// dirEntries lists the names in dir (nil when it does not exist).
func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// countFiles counts the regular files under dir.
func countFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestSubmitCreatesNoPerJobFiles: a job creates no file and no directory,
// its output included. Once each of two owners has run a job and its
// output is home, thirty-eight more jobs and their output leave the state
// directory holding exactly as many files: one object, one user log per
// owner, the append log, no per-job file or directory. Sixteen concurrent
// submits of a new executable write its object once, and every job runs
// once on exactly those bytes.
func TestSubmitCreatesNoPerJobFiles(t *testing.T) {
	t.Run("shared", func(t *testing.T) {
		exec := paddedProgram("shared", 4096, 's')
		rt := newBytesRuntime()
		site := newRuntimeSite(t, rt)
		dir := t.TempDir()
		a, err := NewAgent(AgentConfig{
			StateDir: dir,
			Selector: StaticSelector(site.GatekeeperAddr()),
			Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		const n = 40
		ids := make([]string, n)
		run := func(from, to int) {
			t.Helper()
			for i := from; i < to; i++ {
				tag := fmt.Sprintf("j%d", i)
				rt.expect(tag, exec)
				id, err := a.Submit(SubmitRequest{Owner: []string{"amy", "ben"}[i%2], Executable: exec, Args: []string{tag}})
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = id
			}
			for i := from; i < to; i++ {
				waitAgentState(t, a, ids[i], Completed)
				want := fmt.Sprintf("ran j%d\n", i)
				waitFor(t, ids[i]+"'s output", 5*time.Second, func() bool {
					out, err := a.Stdout(ids[i])
					return err == nil && string(out) == want
				})
			}
		}
		run(0, 2) // each owner's first job
		first := countFiles(t, dir)
		run(2, n)
		if got := countFiles(t, dir); got != first {
			t.Fatalf("the state directory holds %d files after %d jobs, %d after each owner's first", got, n, first)
		}
		rt.checkRanOnce(t)
		spool := filepath.Join(dir, "spool")
		if got := dirEntries(t, filepath.Join(spool, "objects")); len(got) != 1 || got[0] != gram.HashExecutable(exec) {
			t.Fatalf("objects/ holds %v, want only the executable's hash", got)
		}
		if got := dirEntries(t, filepath.Join(dir, "logs")); len(got) != 2 {
			t.Fatalf("logs/ holds %v, want one user log per owner", got)
		}
		if got := dirEntries(t, filepath.Join(spool, "out")); got != nil {
			t.Fatalf("the spool holds per-job output files: %v", got)
		}
		if got := dirEntries(t, filepath.Join(spool, "jobs")); got != nil {
			t.Fatalf("the spool grew per-job directories: %v", got)
		}
		if got := a.obs.Counter("agent_spool_writes_total").Value(); got != 1 {
			t.Fatalf("%d spool objects written for one executable", got)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		rt := newBytesRuntime()
		site := newRuntimeSite(t, rt)
		dir := t.TempDir()
		a, err := NewAgent(AgentConfig{
			StateDir: dir,
			Selector: StaticSelector(site.GatekeeperAddr()),
			Probe:    ProbeOptions{Interval: 40 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		// Open the owner's shard first, so the submits race on the spool
		// alone. Each round is a burst of submits of a new executable.
		if _, err := a.shard("amy"); err != nil {
			t.Fatal(err)
		}
		const rounds, n = 6, 16
		var ids []string
		for r := 0; r < rounds; r++ {
			exec := paddedProgram("fresh", 1<<20, byte('a'+r))
			burst := make([]string, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			start := make(chan struct{})
			for i := range burst {
				tag := fmt.Sprintf("r%dc%d", r, i)
				rt.expect(tag, exec)
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					<-start
					burst[i], errs[i] = a.Submit(SubmitRequest{Owner: "amy", Executable: exec, Args: []string{tag}})
				}(i)
			}
			close(start)
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("round %d submit %d: %v", r, i, err)
				}
			}
			if got := a.obs.Counter("agent_spool_writes_total").Value(); got != int64(r+1) {
				t.Fatalf("round %d: %d spool writes so far, want one per executable (%d)", r, got, r+1)
			}
			ids = append(ids, burst...)
		}
		for _, id := range ids {
			waitAgentState(t, a, id, Completed)
		}
		rt.checkRanOnce(t)
		if got := dirEntries(t, filepath.Join(dir, "spool", "objects")); len(got) != rounds {
			t.Fatalf("objects/ holds %d entries for %d executables", len(got), rounds)
		}
		if got := dirEntries(t, filepath.Join(dir, "spool", "partial")); got != nil {
			t.Fatalf("temp files left behind: %v", got)
		}
	})
}

// journalHas reports whether a queue partition holds key.
func journalHas(t *testing.T, st *journal.Store, key string) bool {
	t.Helper()
	found := false
	if err := st.ForEach(func(k string, _ json.RawMessage) error {
		found = found || k == key
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return found
}

// TestSharedSpoolSurvivesFinishUnderHA: two jobs of one owner share an
// executable under HA. The first finishing must not drop the replicated
// payload the second still needs: after the primary dies, the promoted
// standby materializes the object from its journal and the second job runs
// once, on those bytes. Its own end then releases the key.
func TestSharedSpoolSurvivesFinishUnderHA(t *testing.T) {
	exec := paddedProgram("ha-shared", 2*stageChunkMin, 'h')
	rt := newBytesRuntime()
	rt.expect("first", exec)
	rt.expect("second", exec)
	// The first job runs at one site. The second is accepted unbound (the
	// primary's selector has no site) and only the promoted agent binds it,
	// to another site, whose cache is empty: that site can get the
	// executable only from the promoted agent's spool.
	firstSite, secondSite := newRuntimeSite(t, rt), newRuntimeSite(t, rt)
	key := spoolKeyPrefix + "objects/" + gram.HashExecutable(exec)

	primary, err := NewAgent(AgentConfig{
		StateDir:     t.TempDir(),
		Selector:     StaticSelector(""),
		DeferBinding: true,
		Probe:        ProbeOptions{Interval: 40 * time.Millisecond},
		HA:           HAOptions{Enabled: true, SyncTimeout: 2 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewControlServer(primary)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewStandby(StandbyConfig{Primary: ctl.Addr(), StateDir: t.TempDir(), LeaseTTL: 600 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	first, err := primary.Submit(SubmitRequest{Owner: "amy", Site: firstSite.GatekeeperAddr(), Executable: exec, Args: []string{"first"}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := primary.Submit(SubmitRequest{Owner: "amy", Executable: exec, Args: []string{"second"}})
	if err != nil {
		t.Fatal(err)
	}
	waitAgentState(t, primary, first, Completed)
	sh := primary.shardIfPresent("amy")
	waitFor(t, first+" to leave the active index", 5*time.Second, func() bool {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		return sh.active[first] == nil
	})
	if !journalHas(t, sh.store, key) {
		t.Fatalf("finishing %s dropped %s while %s still names it", first, key, second)
	}
	waitStandbyCaughtUp(t, sb, primary)

	ctl.Close()
	primary.Close()
	select {
	case <-sb.TakeoverCh():
	case <-time.After(10 * time.Second):
		t.Fatal("standby never declared the primary dead")
	}
	promoted, err := sb.Takeover(AgentConfig{
		Selector:     StaticSelector(secondSite.GatekeeperAddr()),
		DeferBinding: true,
		Probe:        ProbeOptions{Interval: 40 * time.Millisecond},
		HA:           HAOptions{Enabled: true},
	})
	if err != nil {
		t.Fatalf("takeover: %v", err)
	}
	defer promoted.Close()
	waitAgentState(t, promoted, second, Completed)
	rt.checkRanOnce(t)
	waitFor(t, "the last job's end to release "+key, 5*time.Second, func() bool {
		return !journalHas(t, promoted.shardIfPresent("amy").store, key)
	})
}
