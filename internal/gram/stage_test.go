package gram

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/gass"
	"condorg/internal/wire"
)

// TestStagePartAdvance: out-of-order chunk ranges merge into the
// contiguous ack only once the gap before them is filled.
func TestStagePartAdvance(t *testing.T) {
	p := &stagePart{}
	if got := p.advance(10, 20); got != 0 {
		t.Fatalf("ack after gap write = %d, want 0", got)
	}
	if got := p.advance(30, 40); got != 0 {
		t.Fatalf("ack after second gap write = %d, want 0", got)
	}
	if got := p.advance(0, 10); got != 20 {
		t.Fatalf("ack after filling first gap = %d, want 20", got)
	}
	if got := p.advance(20, 30); got != 40 {
		t.Fatalf("ack after filling second gap = %d, want 40", got)
	}
	// Overlapping re-sends are idempotent.
	if got := p.advance(0, 25); got != 40 {
		t.Fatalf("ack after overlapping re-send = %d, want 40", got)
	}
}

// TestStageCacheResume: the .off sidecar survives a cache reopen (site
// restart), so the resume point is the persisted ack, not zero — and
// chunks written beyond the ack before the crash are re-sent safely.
func TestStageCacheResume(t *testing.T) {
	root := t.TempDir()
	c, err := newStageCache(root)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte(strings.Repeat("stage-cache-resume ", 100))
	hash := HashExecutable(data)

	if _, err := c.write(hash, 0, data[:500]); err != nil {
		t.Fatal(err)
	}
	// An out-of-order chunk lands but cannot be acked yet.
	if acked, err := c.write(hash, 700, data[700:900]); err != nil || acked != 500 {
		t.Fatalf("acked = %d, err = %v; want 500", acked, err)
	}

	// Simulate a site restart: a fresh cache over the same directory.
	c2, err := newStageCache(root)
	if err != nil {
		t.Fatal(err)
	}
	present, off := c2.check(hash)
	if present || off != 500 {
		t.Fatalf("check after reopen = (%v, %d), want (false, 500)", present, off)
	}
	// Resume from the ack; the previously written out-of-order range is
	// forgotten and re-sent.
	if _, err := c2.write(hash, 500, data[500:]); err != nil {
		t.Fatal(err)
	}
	if err := c2.commit(hash, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	got, ok := c2.get(hash)
	if !ok || string(got) != string(data) {
		t.Fatalf("cached object missing or corrupt after resume")
	}
	// Commit cleans the partial state.
	if present, off := c2.check(hash); !present || off != 0 {
		t.Fatalf("check after commit = (%v, %d), want (true, 0)", present, off)
	}
}

// TestStageCommitVerifyDiscard: a commit whose assembled bytes do not
// match the claimed hash discards the partial, so the next attempt
// restarts from zero rather than resuming corrupt state.
func TestStageCommitVerifyDiscard(t *testing.T) {
	c, err := newStageCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("the real executable bytes")
	hash := HashExecutable(data)
	if _, err := c.write(hash, 0, []byte("corrupted executable bytes!!!")[:len(data)]); err != nil {
		t.Fatal(err)
	}
	if err := c.commit(hash, int64(len(data))); err == nil {
		t.Fatal("commit of corrupt partial succeeded")
	}
	if present, off := c.check(hash); present || off != 0 {
		t.Fatalf("check after failed commit = (%v, %d), want (false, 0)", present, off)
	}
	// Short partials are rejected too.
	if _, err := c.write(hash, 0, data[:4]); err != nil {
		t.Fatal(err)
	}
	if err := c.commit(hash, int64(len(data))); err == nil {
		t.Fatal("commit of short partial succeeded")
	}
}

// TestStageCachePutConcurrent: pulls of one executable racing each other
// (and a push commit of the same hash) each rename their own complete temp
// file into place, so a get that hits always returns the full bytes.
func TestStageCachePutConcurrent(t *testing.T) {
	c, err := newStageCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Each round is a fresh hash: the race is between the first writers of
	// an object, so it has to be run more than once to be seen.
	for round := 0; round < 20 && !t.Failed(); round++ {
		data := bytes.Repeat([]byte(fmt.Sprintf("concurrent-put-%02d ", round)), 16<<10) // 288 KiB: a torn write shows
		hash := HashExecutable(data)
		var readers, writers sync.WaitGroup
		stop := make(chan struct{})
		for i := 0; i < 2; i++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if got, ok := c.get(hash); ok && !bytes.Equal(got, data) {
						t.Errorf("round %d: get returned %d of %d bytes", round, len(got), len(data))
						return
					}
				}
			}()
		}
		for i := 0; i < 6; i++ {
			writers.Add(1)
			go func(i int) {
				defer writers.Done()
				if i == 0 {
					// One of the racers arrives by the push path.
					if _, err := c.write(hash, 0, data); err != nil {
						t.Error(err)
					}
					if err := c.commit(hash, int64(len(data))); err != nil {
						t.Error(err)
					}
					return
				}
				if err := c.put(hash, data); err != nil {
					t.Error(err)
				}
			}(i)
		}
		writers.Wait()
		close(stop)
		readers.Wait()
		if got, ok := c.get(hash); !ok || !bytes.Equal(got, data) {
			t.Fatalf("round %d: object missing or short after every writer returned", round)
		}
	}
	left, _ := filepath.Glob(filepath.Join(c.root, "partial", "*"))
	if len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// TestStageUploadsDoNotSerialize: the cache lock is per hash — a writer
// parked inside one upload does not hold up a chunk of another.
func TestStageUploadsDoNotSerialize(t *testing.T) {
	c, err := newStageCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, b := HashExecutable([]byte("a")), HashExecutable([]byte("b"))
	held, err := c.acquire(a)
	if err != nil || held == nil {
		t.Fatalf("acquire = %v, %v", held, err)
	}
	defer held.mu.Unlock()
	done := make(chan error, 1)
	go func() {
		_, err := c.write(b, 0, []byte("b"))
		if err == nil {
			err = c.commit(b, 1)
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("an upload of another hash waited for this one's lock")
	}
}

// TestStageHashValidation: only 64-char lowercase hex reaches the
// filesystem — anything else (traversal attempts included) is rejected.
func TestStageHashValidation(t *testing.T) {
	for _, bad := range []string{
		"", "abc", "../../../../etc/passwd",
		strings.Repeat("A", 64), // uppercase
		strings.Repeat("g", 64), // non-hex
		strings.Repeat("a", 63) + "/",
	} {
		if validHash(bad) {
			t.Errorf("validHash(%q) = true", bad)
		}
	}
	if !validHash(HashExecutable([]byte("x"))) {
		t.Error("validHash rejected a real sha256")
	}
}

// TestStageFaultClass: a stage-in failure already classified AuthExpired
// keeps its class (the agent must hold the job, not resubmit); everything
// else is the site's loss.
func TestStageFaultClass(t *testing.T) {
	authErr := faultclass.New(faultclass.AuthExpired, errors.New("proxy expired"))
	if got := stageFaultClass(authErr); got != faultclass.AuthExpired {
		t.Fatalf("stageFaultClass(auth) = %v, want AuthExpired", got)
	}
	if got := stageFaultClass(errors.New("connection refused")); got != faultclass.SiteLost {
		t.Fatalf("stageFaultClass(raw) = %v, want SiteLost", got)
	}
}

// TestStageWireProtocol: the full check → chunk → commit conversation
// against a live gatekeeper, including idempotent re-sends and the
// present-answer for a second client pushing the same binary.
func TestStageWireProtocol(t *testing.T) {
	g := newTestGrid(t)
	gk := g.site.GatekeeperAddr()
	data := []byte(strings.Repeat("wire-protocol-blob ", 64))
	hash := HashExecutable(data)

	present, off, err := g.client.StageCheck(gk, hash)
	if err != nil || present || off != 0 {
		t.Fatalf("initial StageCheck = (%v, %d, %v), want (false, 0, nil)", present, off, err)
	}
	half := int64(len(data) / 2)
	if acked, err := g.client.StageChunk(gk, hash, 0, data[:half]); err != nil || acked != half {
		t.Fatalf("first chunk acked = %d, err = %v; want %d", acked, err, half)
	}
	if acked, err := g.client.StageChunk(gk, hash, half, data[half:]); err != nil || acked != int64(len(data)) {
		t.Fatalf("second chunk acked = %d, err = %v; want %d", acked, err, len(data))
	}
	if err := g.client.StageCommit(gk, hash, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	// Committed: a second client asking about the same content is told so.
	if present, _, err := g.client.StageCheck(gk, hash); err != nil || !present {
		t.Fatalf("StageCheck after commit = (%v, %v), want (true, nil)", present, err)
	}
	// Chunks for a committed object ack without rewriting anything.
	if acked, err := g.client.StageChunk(gk, hash, 0, data[:half]); err != nil || acked != half {
		t.Fatalf("post-commit chunk acked = %d, err = %v", acked, err)
	}
	// A bogus hash never reaches the filesystem.
	if _, _, err := g.client.StageCheck(gk, "../escape"); err == nil {
		t.Fatal("StageCheck accepted a traversal hash")
	}
}

// TestStageInCacheHit: a job whose spec carries ExecutableHash is served
// from the site cache once the bytes are staged — the site never pulls
// over GASS again for the same content.
func TestStageInCacheHit(t *testing.T) {
	g := newTestGrid(t)
	gk := g.site.GatekeeperAddr()
	prog := Program("echo")
	hash := HashExecutable(prog)

	// Pre-stage the bytes the way the agent's data plane would.
	if _, err := g.client.StageChunk(gk, hash, 0, prog); err != nil {
		t.Fatal(err)
	}
	if err := g.client.StageCommit(gk, hash, int64(len(prog))); err != nil {
		t.Fatal(err)
	}

	outURL := g.gassS.URLFor("out/echo.out")
	contact := g.submitAndCommit(t, JobSpec{
		// The executable reference points at a GASS path that does NOT
		// exist: a pull would fail, so success proves the cache served it.
		Executable:     g.gassS.URLFor("bin/missing").String(),
		ExecutableHash: hash,
		Args:           []string{"hello"},
		StdoutURL:      outURL.String(),
	})
	st := waitGramState(t, g.client, contact, StateDone)
	if !st.ExitOK {
		t.Fatalf("job failed: %+v", st)
	}
	hits, _ := g.site.StageCacheStats()
	if hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	// Output streaming is asynchronous to the Done state.
	deadline := time.Now().Add(2 * time.Second)
	for {
		out, err := g.gassC.ReadAll(outURL)
		if err == nil && strings.Contains(string(out), "hello") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stdout = %q, err = %v", out, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStageInHashMismatchRejected: a client that claims hash H but whose
// spool serves different bytes must not poison the cache — stage-in fails
// and nothing is stored under H.
func TestStageInHashMismatchRejected(t *testing.T) {
	g := newTestGrid(t)
	ref := g.stageProgram(t, "echo")
	wrong := HashExecutable([]byte("some other program entirely"))
	contact := g.submitAndCommit(t, JobSpec{
		Executable:     ref,
		ExecutableHash: wrong,
		Args:           []string{"x"},
	})
	st := waitGramState(t, g.client, contact, StateFailed)
	if !strings.Contains(st.Error, "hash") {
		t.Fatalf("error = %q, want hash mismatch", st.Error)
	}
	if _, ok := g.site.stage.get(wrong); ok {
		t.Fatal("mismatched bytes were cached under the claimed hash")
	}
}

// TestPullResumableContinuesAfterReset: the site's GASS pull survives
// connection resets by re-asking from the last received offset — the
// read count proves it continued rather than restarting from byte zero.
func TestPullResumableContinuesAfterReset(t *testing.T) {
	var faults wire.Faults
	gs, err := gass.NewServer(t.TempDir(), gass.ServerOptions{Faults: &faults})
	if err != nil {
		t.Fatal(err)
	}
	defer gs.Close()
	gc := gass.NewClient(nil, nil)
	defer gc.Close()

	// 8 chunks' worth of payload.
	payload := make([]byte, 8*gass.ChunkSize)
	for i := range payload {
		payload[i] = byte(i)
	}
	u := gs.URLFor("big/blob")
	if err := gc.WriteFile(u, payload); err != nil {
		t.Fatal(err)
	}

	// Reset the response of every third read: the pull must resume, not
	// restart.
	var reads atomic.Int64
	faults.SetConn(nil, nil, func(m string) bool {
		if m != "gass.read" {
			return false
		}
		return reads.Add(1)%3 == 0
	})

	site := &Site{}
	puller := gass.NewClient(nil, nil)
	defer puller.Close()
	got, err := site.pullResumable(puller, u)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("pulled %d bytes, want %d", len(got), len(payload))
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("byte %d differs", i)
		}
	}
	// 8 data chunks + 1 EOF probe + the torn reads that were retried. A
	// restart-from-zero strategy would need well over twice that.
	if n := reads.Load(); n > 14 {
		t.Fatalf("pull made %d reads; resuming should need at most 14", n)
	}
}

// TestStageInAuthExpiredHoldsClass: a stage pull that fails with an
// expired credential keeps AuthExpired so the agent holds the job instead
// of blindly resubmitting. Uses a GASS server that always rejects with a
// typed auth fault via the remote error path.
func TestStageInAuthExpiredHoldsClass(t *testing.T) {
	err := faultclass.New(faultclass.AuthExpired, fmt.Errorf("proxy expired at %s", time.Now().Format(time.RFC3339)))
	if got := stageFaultClass(fmt.Errorf("stage-in: %w", err)); got != faultclass.AuthExpired {
		t.Fatalf("wrapped auth fault classified %v", got)
	}
}
