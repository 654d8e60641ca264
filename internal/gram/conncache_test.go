package gram

import (
	"encoding/json"
	"slices"
	"sync"
	"testing"
	"time"

	"condorg/internal/gsi"
	"condorg/internal/wire"
)

// fakeConn records its own closing.
type fakeConn struct {
	key    string
	closed *[]string
}

// open counts the entries c holds open, idle included.
func (c *connCache[K, C]) open() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

func newFakeCache(keepIdle bool) (*connCache[string, fakeConn], *[]string) {
	var closed []string
	c := newConnCache(func(k string) fakeConn { return fakeConn{key: k, closed: &closed} },
		func(f fakeConn) { *f.closed = append(*f.closed, f.key) }, keepIdle)
	return c, &closed
}

// TestConnCacheShares: holders of one key share one entry, and it closes
// with its last holder, not before.
func TestConnCacheShares(t *testing.T) {
	c, closed := newFakeCache(false)
	a, b := c.acquire("x"), c.acquire("x")
	if a != b {
		t.Fatal("two acquires of one key got two entries")
	}
	c.release(a)
	if len(*closed) != 0 {
		t.Fatalf("closed %v with a holder left", *closed)
	}
	c.release(b)
	if !slices.Equal(*closed, []string{"x"}) || c.open() != 0 {
		t.Fatalf("closed %v, %d open after the last release; want [x], 0", *closed, c.open())
	}
}

// TestConnCacheKeepsOneIdle: with keepIdle the most recently released entry
// stays open, and releasing another closes it; re-acquiring the idle entry
// costs no dial; closeAll closes the idle entry at once and a held one at
// its release.
func TestConnCacheKeepsOneIdle(t *testing.T) {
	c, closed := newFakeCache(true)
	x := c.acquire("x")
	c.release(x)
	if len(*closed) != 0 || c.open() != 1 {
		t.Fatalf("closed %v, %d open; the released entry should stay idle", *closed, c.open())
	}
	if again := c.acquire("x"); again != x {
		t.Fatal("re-acquiring the idle key dialled a new entry")
	}
	y := c.acquire("y")
	c.release(x)
	c.release(y)
	if !slices.Equal(*closed, []string{"x"}) || c.open() != 1 {
		t.Fatalf("closed %v, %d open; want [x] closed and y idle", *closed, c.open())
	}
	z := c.acquire("z")
	c.closeAll()
	if !slices.Equal(*closed, []string{"x", "y"}) {
		t.Fatalf("closeAll closed %v, want the idle y too", *closed)
	}
	c.release(z)
	if !slices.Equal(*closed, []string{"x", "y", "z"}) || c.open() != 0 {
		t.Fatalf("closed %v, %d open; a held entry closes at its release after closeAll", *closed, c.open())
	}
	late := c.acquire("x")
	c.release(late)
	if len(*closed) != 4 {
		t.Fatalf("an entry acquired after closeAll stayed open: closed %v", *closed)
	}
}

// TestConnCacheRekeyAndPins: only a sole holder with no other holder's
// call still pinned re-keys, and not onto a key that has an entry; a pinned
// call keeps an entry open after its last holder leaves.
func TestConnCacheRekeyAndPins(t *testing.T) {
	c, closed := newFakeCache(false)
	a, b := c.acquire("old"), c.acquire("old")
	if c.rekey(a, "new", 0) {
		t.Fatal("re-keyed an entry another holder holds")
	}
	c.pin(a)
	c.pin(b)
	c.release(b)
	if c.rekey(a, "new", 1) {
		t.Fatal("re-keyed an entry with a departed holder's call still on it")
	}
	c.unpin(b)
	taken := c.acquire("taken")
	if c.rekey(a, "taken", 1) {
		t.Fatal("re-keyed onto a key that has an entry")
	}
	if !c.rekey(a, "new", 1) || c.acquire("new") != a {
		t.Fatal("a sole holder's entry did not move to the new key")
	}
	c.unpin(a)
	c.release(a)
	c.release(a)
	c.release(taken)
	// The fake connection keeps the key it was dialled for.
	if !slices.Equal(*closed, []string{"old", "taken"}) {
		t.Fatalf("closed %v, want the re-keyed entry and then taken", *closed)
	}
	p := c.acquire("p")
	c.pin(p)
	c.release(p)
	if len(*closed) != 2 {
		t.Fatalf("closed %v while a call was pinned", *closed)
	}
	c.unpin(p)
	if !slices.Equal(*closed, []string{"old", "taken", "p"}) {
		t.Fatalf("closed %v; the entry should close when its last call ends", *closed)
	}
}

// TestConnCacheConcurrent: holders on several goroutines acquiring,
// pinning and releasing a few keys leave behind only the idle entry, and
// every entry dialled is closed exactly once. Run with -race.
func TestConnCacheConcurrent(t *testing.T) {
	for _, keepIdle := range []bool{false, true} {
		var mu sync.Mutex
		dialled, closes := 0, map[int]int{}
		c := newConnCache(func(string) int {
			mu.Lock()
			defer mu.Unlock()
			dialled++
			return dialled
		}, func(id int) {
			mu.Lock()
			closes[id]++
			mu.Unlock()
		}, keepIdle)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					e := c.acquire(string(rune('a' + (g+i)%3)))
					c.pin(e)
					c.release(e)
					c.unpin(e)
				}
			}(g)
		}
		wg.Wait()
		want := 0
		if keepIdle {
			want = 1
		}
		if n := c.open(); n != want {
			t.Errorf("keepIdle=%v: %d entries open after every holder left, want %d", keepIdle, n, want)
		}
		c.closeAll()
		mu.Lock()
		for id := 1; id <= dialled; id++ {
			if closes[id] != 1 {
				t.Errorf("keepIdle=%v: entry %d closed %d times, want once", keepIdle, id, closes[id])
			}
		}
		mu.Unlock()
	}
}

// TestSwitchLeavesOthersCallsOnTheirIdentity: clients A and B share one
// gatekeeper session under one credential. B switches to its own proxy
// while a call of B's is held at the gatekeeper, leaving A the sole holder;
// then A switches. A must not re-key the session under its new proxy, for
// that drops it and B's call would retry as A: the call finishes under the
// credential it was made with, and A's next call presents A's proxy.
func TestSwitchLeavesOthersCallsOnTheirIdentity(t *testing.T) {
	now := time.Now()
	ca, err := gsi.NewCA("/O=Grid/CN=CA", now, 48*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	proxyOf := func(subject string) *gsi.Credential {
		user, err := ca.IssueUser(subject, now, 24*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		proxy, err := gsi.NewProxy(user, now, 12*time.Hour)
		if err != nil {
			t.Fatal(err)
		}
		return proxy
	}
	shared, credA, credB := proxyOf("/O=Grid/CN=agent"), proxyOf("/O=Grid/CN=a"), proxyOf("/O=Grid/CN=b")
	gk, err := wire.NewServer(wire.ServerConfig{Name: GatekeeperService, Anchor: ca.Certificate()})
	if err != nil {
		t.Fatal(err)
	}
	defer gk.Close()
	var mu sync.Mutex
	var peers []string
	held, retried, gate := make(chan struct{}), make(chan struct{}), make(chan struct{})
	gk.Handle("gram.stage-check", func(peer string, _ json.RawMessage) (any, error) {
		mu.Lock()
		peers = append(peers, peer)
		n := len(peers)
		mu.Unlock()
		switch n {
		case 2:
			close(held)
			<-gate
		case 3:
			close(retried)
		}
		return stageCheckResp{}, nil
	})

	sessions := NewSessions(nil)
	a, b := sessions.NewClient(shared), sessions.NewClient(shared)
	defer a.Close()
	defer b.Close()
	addr := gk.Addr()
	if _, _, err := a.StageCheck(addr, "h"); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := b.StageCheck(addr, "h")
		done <- err
	}()
	<-held
	b.SetCredential(credB)
	a.SetCredential(credA)
	// Hold B's call until a retry of it arrives or would have, well past
	// the client's first backoff: released sooner, its cached reply would
	// answer a retry without running it again.
	select {
	case <-retried:
	case <-time.After(500 * time.Millisecond):
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("B's held call: %v", err)
	}
	if _, _, err := a.StageCheck(addr, "h"); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	got := slices.Clone(peers)
	mu.Unlock()
	want := []string{shared.Subject(), shared.Subject(), credA.Subject()}
	if !slices.Equal(got, want) {
		t.Fatalf("gatekeeper saw calls from %v, want %v", got, want)
	}
}
