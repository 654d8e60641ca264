package gram

import "sync"

// connCache shares connections by key among the holders that need them:
// the first acquire of a key dials it, and an entry closes once its last
// holder has released it and no call is still pinned to it. With keepIdle,
// the most recently released entry instead stays open as the cache's one
// idle entry, so a key wanted again after a lull costs no redial; it closes
// when another entry takes its place or the cache closes.
//
// Dialling happens under the cache's lock, so dial must not block (wire.Dial
// and gass.NewClient connect on first use). Closing happens outside it.
type connCache[K comparable, C any] struct {
	dial     func(K) C
	close    func(C)
	keepIdle bool

	mu      sync.Mutex
	entries map[K]*cacheEntry[K, C]
	idle    *cacheEntry[K, C]
	closed  bool
}

// cacheEntry is one shared connection. holders counts acquires not yet
// released; calls counts calls in flight on it (pin), which keep it open
// after its last holder has gone elsewhere.
type cacheEntry[K comparable, C any] struct {
	key     K
	conn    C
	holders int
	calls   int
}

func newConnCache[K comparable, C any](dial func(K) C, close func(C), keepIdle bool) *connCache[K, C] {
	return &connCache[K, C]{dial: dial, close: close, keepIdle: keepIdle, entries: make(map[K]*cacheEntry[K, C])}
}

// acquire returns the entry for k, dialling it if none is open, with one
// more holder. Each acquire is paired with a release. Once the cache is
// closed every acquire dials a private entry that its release closes.
func (c *connCache[K, C]) acquire(k K) *cacheEntry[K, C] {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e == nil {
		e = &cacheEntry[K, C]{key: k, conn: c.dial(k)}
		if !c.closed {
			c.entries[k] = e
		}
	}
	if c.idle == e {
		c.idle = nil
	}
	e.holders++
	return e
}

// release drops one holder of e.
func (c *connCache[K, C]) release(e *cacheEntry[K, C]) {
	c.mu.Lock()
	e.holders--
	c.settle(e)
}

// pin marks a call in flight on e, which its holder owns; unpin ends it.
func (c *connCache[K, C]) pin(e *cacheEntry[K, C]) {
	c.mu.Lock()
	e.calls++
	c.mu.Unlock()
}

func (c *connCache[K, C]) unpin(e *cacheEntry[K, C]) {
	c.mu.Lock()
	e.calls--
	c.settle(e)
}

// settle unlocks c.mu, closing e first if nothing uses it any more — or,
// with keepIdle, making it the idle entry and closing the one it replaces.
func (c *connCache[K, C]) settle(e *cacheEntry[K, C]) {
	if e.holders > 0 || e.calls > 0 {
		c.mu.Unlock()
		return
	}
	gone := e
	if c.keepIdle && !c.closed && c.entries[e.key] == e {
		gone, c.idle = c.idle, e
	}
	if gone != nil && c.entries[gone.key] == gone {
		delete(c.entries, gone.key)
	}
	c.mu.Unlock()
	if gone != nil {
		c.close(gone.conn)
	}
}

// rekey moves e, which the caller holds with own of its calls pinned, to
// key k when nobody else holds it, no other call is pinned to it and k has
// no entry yet; it reports whether it did. The caller then brings e's
// connection in line with k. A call pinned by a holder that has since let
// go still runs under e's old key, so it keeps e from moving.
func (c *connCache[K, C]) rekey(e *cacheEntry[K, C], k K, own int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.holders != 1 || e.calls != own || c.entries[e.key] != e {
		return false
	}
	if _, taken := c.entries[k]; taken {
		return false
	}
	delete(c.entries, e.key)
	e.key = k
	c.entries[k] = e
	return true
}

// closeAll closes the idle entry and every entry nobody uses; an entry
// still held or pinned closes when its last use ends.
func (c *connCache[K, C]) closeAll() {
	c.mu.Lock()
	c.closed = true
	c.idle = nil
	var gone []C
	for k, e := range c.entries {
		delete(c.entries, k)
		if e.holders == 0 && e.calls == 0 {
			gone = append(gone, e.conn)
		}
	}
	c.mu.Unlock()
	for _, conn := range gone {
		c.close(conn)
	}
}
