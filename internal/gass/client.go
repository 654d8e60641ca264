package gass

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"condorg/internal/gsi"
	"condorg/internal/wire"
)

// Client talks to GASS servers. It caches one wire connection per server
// address and is safe for concurrent use.
type Client struct {
	cred  *gsi.Credential
	clock gsi.Clock
	mu    sync.Mutex
	conns map[string]*wire.Client
}

// NewClient creates a client that authenticates with cred (nil for
// anonymous grids, e.g. unit tests without a CA).
func NewClient(cred *gsi.Credential, clock gsi.Clock) *Client {
	if clock == nil {
		clock = gsi.WallClock
	}
	return &Client{cred: cred, clock: clock, conns: make(map[string]*wire.Client)}
}

// SetCredential swaps in a refreshed proxy for all future requests.
func (c *Client) SetCredential(cred *gsi.Credential) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cred = cred
	for _, wc := range c.conns {
		wc.SetCredential(cred)
	}
}

func (c *Client) conn(addr string) *wire.Client {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wc, ok := c.conns[addr]; ok {
		return wc
	}
	wc := wire.Dial(addr, wire.ClientConfig{
		ServerName: ServiceName,
		Credential: c.cred,
		Clock:      c.clock,
		Timeout:    3 * time.Second,
	})
	c.conns[addr] = wc
	return wc
}

// Forget drops the cached connection for addr (after a server restart the
// next call redials automatically; Forget just frees the socket eagerly).
func (c *Client) Forget(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wc, ok := c.conns[addr]; ok {
		wc.Close()
		delete(c.conns, addr)
	}
}

// Close releases all connections.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, wc := range c.conns {
		wc.Close()
	}
	c.conns = make(map[string]*wire.Client)
}

// Stat returns the size of the file at u and whether it exists.
func (c *Client) Stat(u URL) (size int64, exists bool, err error) {
	var resp statResp
	if err := c.conn(u.Addr).Call("gass.stat", fileReq{Path: u.Path}, &resp); err != nil {
		return 0, false, err
	}
	return resp.Size, resp.Exists, nil
}

// ReadAt reads up to maxLen bytes at offset.
func (c *Client) ReadAt(u URL, offset int64, maxLen int) (data []byte, eof bool, err error) {
	var resp readResp
	data, err = c.conn(u.Addr).CallBlob("gass.read", fileReq{Path: u.Path, Offset: offset, MaxLen: maxLen}, nil, &resp)
	return data, resp.EOF, err
}

// ReadAll fetches the whole file at u.
func (c *Client) ReadAll(u URL) ([]byte, error) {
	return c.ReadAllFrom(u, 0)
}

// ReadAllFrom fetches the file at u starting at byte off — the resume
// primitive: a caller that already holds the first off bytes (from an
// interrupted ReadAll) asks only for the tail.
func (c *Client) ReadAllFrom(u URL, off int64) ([]byte, error) {
	var out []byte
	for {
		data, eof, err := c.ReadAt(u, off, ChunkSize)
		if err != nil {
			return nil, err
		}
		out = append(out, data...)
		off += int64(len(data))
		if eof || len(data) == 0 {
			return out, nil
		}
	}
}

// WriteFile replaces the file at u with data.
func (c *Client) WriteFile(u URL, data []byte) error {
	// First chunk truncates (and exists even for an empty file); the rest
	// are positional writes.
	for off := 0; off == 0 || off < len(data); off += ChunkSize {
		end := min(off+ChunkSize, len(data))
		req := fileReq{Path: u.Path, Offset: int64(off), Truncate: off == 0}
		if _, err := c.conn(u.Addr).CallBlob("gass.write", req, data[off:end], nil); err != nil {
			return err
		}
	}
	return nil
}

// Append appends data to the file at u and returns the resulting size.
func (c *Client) Append(u URL, data []byte) (int64, error) {
	var resp appendResp
	_, err := c.conn(u.Addr).CallBlob("gass.append", fileReq{Path: u.Path}, data, &resp)
	return resp.Size, err
}

// The URL-file mechanism of §4.2: a running job learns its GASS server's
// address from a file named by an environment variable; when the
// submission machine restarts with a new port, the GridManager asks the
// JobManager to rewrite that file so the job "continues file I/O after a
// crash recovery".

// WriteURLFile records the server address in path.
func WriteURLFile(path, addr string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o700); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(addr+"\n"), 0o600)
}

// ReadURLFile returns the server address recorded in path.
func ReadURLFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	addr := strings.TrimSpace(string(data))
	if addr == "" {
		return "", fmt.Errorf("gass: empty URL file %s", path)
	}
	return addr, nil
}
