package gram

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"condorg/internal/faultclass"
	"condorg/internal/wire"
)

// objectFile writes data to a file of its own and opens it for sections.
func objectFile(t *testing.T, data []byte) *os.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "object")
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// cachedObject reads a committed object straight from the site's cache
// directory, failing the test when it is not there.
func cachedObject(t *testing.T, stateDir, hash string) []byte {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(stateDir, "stage-cache", "objects", hash))
	if err != nil {
		t.Fatalf("object not cached: %v", err)
	}
	return got
}

// noPartials fails the test when the site's cache holds an upload in
// flight.
func noPartials(t *testing.T, stateDir string) {
	t.Helper()
	if left, _ := filepath.Glob(filepath.Join(stateDir, "stage-cache", "partial", "*")); len(left) != 0 {
		t.Fatalf("partial files left: %v", left)
	}
}

// TestStageProbePatternPromotes: a client that never says the object's
// size (64 KiB StageChunks, then StageCommit, as the benchmark's probe
// pushes) still gets its object cached — by the commit, since no chunk
// knew it was the last.
func TestStageProbePatternPromotes(t *testing.T) {
	dir := t.TempDir()
	g := newTestGrid(t, func(c *SiteConfig) { c.StateDir = dir })
	gk := g.site.GatekeeperAddr()
	data := bytes.Repeat([]byte("probe-pattern "), 20<<10) // 280 KiB: five chunks
	hash := HashExecutable(data)
	const chunk = 64 << 10
	for off := 0; off < len(data); off += chunk {
		end := min(off+chunk, len(data))
		if acked, err := g.client.StageChunk(gk, hash, int64(off), data[off:end]); err != nil || acked != int64(end) {
			t.Fatalf("chunk at %d: acked %d, err %v", off, acked, err)
		}
	}
	if present, off, err := g.client.StageCheck(gk, hash); err != nil || present || off != int64(len(data)) {
		t.Fatalf("before the commit: present %v, offset %d, err %v; want acked but not cached", present, off, err)
	}
	if err := g.client.StageCommit(gk, hash, int64(len(data))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cachedObject(t, dir, hash), data) {
		t.Fatal("cached object differs from the pushed bytes")
	}
	noPartials(t, dir)
}

// TestStageResumeAcrossSiteRestart: a push of more than 1 MiB that a site
// restart interrupts resumes at the ack the site persisted, and the chunk
// that completes it verifies the whole object — the persisted prefix
// included, which the restarted site hashes from its part file — and
// commits it without a StageCommit. A prefix that changed on disk while
// the site was down fails that verification instead.
func TestStageResumeAcrossSiteRestart(t *testing.T) {
	const mib = 1 << 20
	data := make([]byte, 3*mib)
	for i := range data {
		data[i] = byte(i * 31 / 7)
	}
	hash := HashExecutable(data)
	total := int64(len(data))
	obj := objectFile(t, data)
	section := func(i int64) wire.Section { return wire.Section{File: obj, Off: i * mib, N: mib} }

	for _, damage := range []bool{false, true} {
		dir := t.TempDir()
		g := newTestGrid(t, func(c *SiteConfig) { c.StateDir = dir })
		gk := g.site.GatekeeperAddr()
		// The first chunk is acked; the third lands out of order and is
		// forgotten with the site.
		if acked, err := g.client.StageSection(gk, hash, total, section(0)); err != nil || acked != mib {
			t.Fatalf("first chunk: acked %d, err %v", acked, err)
		}
		if acked, err := g.client.StageSection(gk, hash, total, section(2)); err != nil || acked != mib {
			t.Fatalf("out-of-order chunk: acked %d, err %v", acked, err)
		}
		g.site.Close()
		if damage {
			part := filepath.Join(dir, "stage-cache", "partial", hash+".part")
			f, err := os.OpenFile(part, os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteAt([]byte{^data[100]}, 100)
			f.Close()
		}
		g2 := newTestGrid(t, func(c *SiteConfig) { c.StateDir, c.GatekeeperAddr = dir, gk })
		if present, off, err := g2.client.StageCheck(gk, hash); err != nil || present || off != mib {
			t.Fatalf("after the restart: present %v, offset %d, err %v; want resume at %d", present, off, err, mib)
		}
		if acked, err := g2.client.StageSection(gk, hash, total, section(1)); err != nil || acked != 2*mib {
			t.Fatalf("resumed chunk: acked %d, err %v", acked, err)
		}
		acked, err := g2.client.StageSection(gk, hash, total, section(2))
		if damage {
			if err == nil || !wire.IsRemote(err) {
				t.Fatalf("last chunk over a damaged prefix: acked %d, err %v; want the site's refusal", acked, err)
			}
			if present, off, err := g2.client.StageCheck(gk, hash); err != nil || present || off != 0 {
				t.Fatalf("after the refusal: present %v, offset %d, err %v; want the partial discarded", present, off, err)
			}
		} else {
			if err != nil || acked != total {
				t.Fatalf("last chunk: acked %d, err %v; want %d", acked, err, total)
			}
			if !bytes.Equal(cachedObject(t, dir, hash), data) {
				t.Fatal("cached object differs from the pushed bytes")
			}
		}
		noPartials(t, dir)
	}
}

// TestStageShortSectionSparesBreaker: a chunk whose file is shorter than
// its section fails at the sender with wire.ErrShortSection. Nothing
// reaches the gatekeeper, the call is not retried, and the site's breaker
// — which opens at the first failure here — hears nothing of it.
func TestStageShortSectionSparesBreaker(t *testing.T) {
	faults := &wire.Faults{}
	var chunks atomic.Int64
	faults.SetDelay(func(m string) time.Duration {
		if m == "gram.stage-chunk" {
			chunks.Add(1)
		}
		return 0
	})
	g := newTestGrid(t, func(c *SiteConfig) { c.GatekeeperFaults = faults })
	gk := g.site.GatekeeperAddr()
	g.client.SetBreakerConfig(faultclass.BreakerConfig{Threshold: 1})
	data := bytes.Repeat([]byte{7}, 100<<10)
	obj := objectFile(t, data[:50<<10])
	_, err := g.client.StageSection(gk, HashExecutable(data), int64(len(data)),
		wire.Section{File: obj, Off: 0, N: int64(len(data))})
	if !errors.Is(err, wire.ErrShortSection) {
		t.Fatalf("short section: err %v, want wire.ErrShortSection", err)
	}
	if n := chunks.Load(); n != 0 {
		t.Fatalf("%d stage-chunk requests reached the gatekeeper", n)
	}
	if st := g.client.SiteHealth(gk); st != faultclass.Closed {
		t.Fatalf("breaker %v after a short section, want closed", st)
	}
	if info := g.client.HealthSnapshot()[gk]; info.Fails != 0 {
		t.Fatalf("breaker counted %d failures", info.Fails)
	}
	// The session is fine: a whole section goes through on it.
	whole := objectFile(t, data)
	if acked, err := g.client.StageSection(gk, HashExecutable(data), int64(len(data)),
		wire.Section{File: whole, Off: 0, N: int64(len(data))}); err != nil || acked != int64(len(data)) {
		t.Fatalf("whole section: acked %d, err %v", acked, err)
	}
}
