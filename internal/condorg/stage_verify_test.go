package condorg

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/gram"
	"condorg/internal/obs"
)

// stageRPCs counts the stage verbs reaching w's gatekeeper. The first
// gram.stage-check waits for hold to close (nil: none waits), so a test
// can change the spool object after Submit and before the push reads it.
type stageRPCs struct{ check, chunk, commit atomic.Int64 }

func countStageRPCs(w *stageWorld, hold chan struct{}) *stageRPCs {
	n := &stageRPCs{}
	w.faults.SetDelay(func(m string) time.Duration {
		switch m {
		case "gram.stage-check":
			if n.check.Add(1) == 1 && hold != nil {
				<-hold
			}
		case "gram.stage-chunk":
			n.chunk.Add(1)
		case "gram.stage-commit":
			n.commit.Add(1)
		}
		return 0
	})
	return n
}

// spoolObject is the path of exec's object in w's agent spool.
func (w *stageWorld) spoolObject(exec []byte) string {
	return filepath.Join(w.dir, "spool", "objects", gram.HashExecutable(exec))
}

// stageEvents returns the details of a job's stage events.
func stageEvents(t *testing.T, a *Agent, id string) []string {
	t.Helper()
	tl, err := a.Trace(id)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, ev := range tl.Events {
		if ev.Phase == obs.PhaseStage {
			out = append(out, ev.Detail)
		}
	}
	return out
}

// TestStagePushCommitsWithLastChunk: the chunk that completes an object
// commits it, so a push of up to 1 MiB is one gram.stage-chunk and no
// gram.stage-commit, and 3 MiB is three 1 MiB chunks in one window, again
// with no commit. The site holds the object whole afterwards.
func TestStagePushCommitsWithLastChunk(t *testing.T) {
	for _, tc := range []struct{ size, chunks int }{
		{1 << 20, 1},
		{3 << 20, 3},
	} {
		t.Run(fmt.Sprintf("%dMiB", tc.size>>20), func(t *testing.T) {
			w := newStageWorld(t)
			rpcs := countStageRPCs(w, nil)
			exec := paddedProgram("task", tc.size, 'c')
			id, err := w.agent.Submit(SubmitRequest{Owner: "u", Executable: exec})
			if err != nil {
				t.Fatal(err)
			}
			if info := waitAgentState(t, w.agent, id, Completed); !info.ExitOK || info.Stage.CacheHit {
				t.Fatalf("job after a push: %+v", info)
			}
			if got := rpcs.chunk.Load(); got != int64(tc.chunks) {
				t.Fatalf("%d stage-chunk RPCs for %d bytes, want %d", got, tc.size, tc.chunks)
			}
			if got := rpcs.commit.Load(); got != 0 {
				t.Fatalf("%d stage-commit RPCs, want 0: the last chunk commits", got)
			}
			if got := w.site.StageBytesReceived(); got != int64(tc.size) {
				t.Fatalf("site received %d chunk bytes, want exactly the file (%d)", got, tc.size)
			}
			events := strings.Join(stageEvents(t, w.agent, id), "\n")
			if want := fmt.Sprintf("in %d chunks", tc.chunks); !strings.Contains(events, want) {
				t.Fatalf("stage events %q do not say %q", events, want)
			}
		})
	}
}

// TestStageCorruptBytesFailLastChunk: bytes that do not hash to the
// object's name fail the chunk that completes it. The site discards the
// partial, and the agent takes the failed-commit route (stageFailed: a
// counted attempt, a requeue, a fresh push from zero) rather than
// re-sending the window; after maxStageAttempts it leaves the executable
// to the site's pull.
func TestStageCorruptBytesFailLastChunk(t *testing.T) {
	w := newStageWorld(t)
	hold := make(chan struct{})
	rpcs := countStageRPCs(w, hold)
	const size = 1 << 20
	exec := paddedProgram("task", size, 'k')
	id, err := w.agent.Submit(SubmitRequest{Owner: "u", Executable: exec})
	if err != nil {
		t.Fatal(err)
	}
	// Flip the object's last byte in the spool while the push waits at its
	// stage-check: same size, other content.
	obj := w.spoolObject(exec)
	corrupt := append([]byte(nil), exec...)
	corrupt[size-1] ^= 0xff
	if err := os.Chmod(obj, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(obj, corrupt, 0o600); err != nil {
		t.Fatal(err)
	}
	close(hold)

	waitFor(t, "staging to give up", 10*time.Second, func() bool {
		info, err := w.agent.Status(id)
		return err == nil && info.Stage.Done
	})
	info, err := w.agent.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	if info.Stage.Attempts != maxStageAttempts {
		t.Fatalf("stage attempts = %d, want %d (each corrupt push a counted attempt)", info.Stage.Attempts, maxStageAttempts)
	}
	if got := rpcs.chunk.Load(); got != maxStageAttempts {
		t.Fatalf("%d stage-chunk RPCs, want one per attempt (%d): no chunk re-sent within an attempt", got, maxStageAttempts)
	}
	if got := rpcs.commit.Load(); got != 0 {
		t.Fatalf("%d stage-commit RPCs, want 0", got)
	}
	events := stageEvents(t, w.agent, id)
	failed := 0
	for _, d := range events {
		if strings.Contains(d, "transfer error") {
			t.Fatalf("a hash mismatch entered the in-window resume: %q", d)
		}
		if strings.Contains(d, "failed") && strings.Contains(d, "content hash") {
			failed++
		}
	}
	if failed != maxStageAttempts-1 { // the last failure's event is the fallback's
		t.Fatalf("%d failed-stage events naming the hash mismatch in %q, want %d", failed, events, maxStageAttempts-1)
	}
	if last := events[len(events)-1]; !strings.Contains(last, "pre-stage abandoned after") {
		t.Fatalf("last stage event %q, want the fallback to the site's pull", last)
	}
	cache := filepath.Join(w.siteDir, "stage-cache")
	if left, _ := filepath.Glob(filepath.Join(cache, "partial", "*")); len(left) != 0 {
		t.Fatalf("partial upload left at the site: %v", left)
	}
	if _, err := os.Stat(filepath.Join(cache, "objects", gram.HashExecutable(exec))); !os.IsNotExist(err) {
		t.Fatalf("corrupt bytes were cached under the object's name (stat: %v)", err)
	}
}

// TestStageShortSpoolFailsPush: a spool object shorter than the size the
// job recorded fails the push before a byte is sent: no stage-chunk
// reaches the site, and its breaker counts nothing.
func TestStageShortSpoolFailsPush(t *testing.T) {
	w := newStageWorld(t)
	hold := make(chan struct{})
	rpcs := countStageRPCs(w, hold)
	const size = 1 << 20
	exec := paddedProgram("task", size, 'h')
	id, err := w.agent.Submit(SubmitRequest{Owner: "u", Executable: exec, Args: []string{"5s"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(w.spoolObject(exec), size/2); err != nil {
		t.Fatal(err)
	}
	close(hold)
	waitFor(t, "staging to give up", 10*time.Second, func() bool {
		info, err := w.agent.Status(id)
		return err == nil && info.Stage.Done
	})
	if got := rpcs.chunk.Load(); got != 0 {
		t.Fatalf("%d stage-chunk RPCs for a short spool object, want 0", got)
	}
	events := stageEvents(t, w.agent, id)
	if last := events[len(events)-1]; !strings.Contains(last, "pre-stage abandoned (spool read") ||
		!strings.Contains(last, fmt.Sprintf("%d of %d bytes", size/2, size)) {
		t.Fatalf("last stage event %q, want the push abandoned for the short spool object", last)
	}
	rows := w.agent.PipelineHealth()
	if len(rows) == 0 {
		t.Fatal("no site health rows while the job is live")
	}
	for _, row := range rows {
		if row.Breaker != "closed" || row.Fails != 0 {
			t.Fatalf("site health after a short spool object: %+v", row)
		}
	}
}
