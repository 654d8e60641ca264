// Package gcat reproduces §6.3's GridGaussian output utility: "a utility
// program called G-Cat that monitors the output file and sends updates to
// MSS as partial file chunks. G-Cat hides network performance variations
// from Gaussian by using local scratch storage as a buffer for Gaussian's
// output, rather than sending the output directly over the network. Users
// can view the output as it is received at MSS."
//
// The package provides the MSS (a chunk-store mass storage system served
// over the wire protocol, with injectable bandwidth variation and outages),
// the G-Cat monitor itself, and the reassembling reader. It backs
// experiment E10 (BenchmarkE10_GCat, examples/gridgaussian).
package gcat

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"condorg/internal/gsi"
	"condorg/internal/wire"
)

// MSSService is the wire service name.
const MSSService = "mss"

// MSS is the mock Mass Storage System: files are sequences of immutable
// numbered chunks.
type MSS struct {
	srv *wire.Server

	mu    sync.Mutex
	files map[string]map[int][]byte // file -> seq -> data
	// Throttle simulates network performance variation: called once per
	// stored chunk with its size; sleep inside it to model bandwidth.
	throttle func(bytes int)
	outage   bool
}

// MSSOptions configures an MSS.
type MSSOptions struct {
	Anchor *gsi.Certificate
	Clock  gsi.Clock
	Faults *wire.Faults
}

// NewMSS starts a mass storage server.
func NewMSS(opts MSSOptions) (*MSS, error) {
	srv, err := wire.NewServer(wire.ServerConfig{
		Name:   MSSService,
		Anchor: opts.Anchor,
		Clock:  opts.Clock,
		Faults: opts.Faults,
	})
	if err != nil {
		return nil, err
	}
	m := &MSS{srv: srv, files: make(map[string]map[int][]byte)}
	srv.Handle("mss.putchunk", m.handlePut)
	srv.Handle("mss.read", m.handleRead)
	srv.Handle("mss.stat", m.handleStat)
	return m, nil
}

// Addr returns host:port.
func (m *MSS) Addr() string { return m.srv.Addr() }

// Close stops the server.
func (m *MSS) Close() error { return m.srv.Close() }

// SetThrottle installs a per-chunk bandwidth model.
func (m *MSS) SetThrottle(fn func(bytes int)) {
	m.mu.Lock()
	m.throttle = fn
	m.mu.Unlock()
}

// SetOutage toggles a simulated storage outage: puts fail while true.
func (m *MSS) SetOutage(down bool) {
	m.mu.Lock()
	m.outage = down
	m.mu.Unlock()
}

type putReq struct {
	File string `json:"file"`
	Seq  int    `json:"seq"`
	Data []byte `json:"data"`
}

func (m *MSS) handlePut(_ string, body json.RawMessage) (any, error) {
	var req putReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	m.mu.Lock()
	throttle := m.throttle
	down := m.outage
	m.mu.Unlock()
	if down {
		return nil, fmt.Errorf("mss: storage system unavailable")
	}
	if throttle != nil {
		throttle(len(req.Data))
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	chunks, ok := m.files[req.File]
	if !ok {
		chunks = make(map[int][]byte)
		m.files[req.File] = chunks
	}
	if _, dup := chunks[req.Seq]; !dup { // idempotent re-send
		chunks[req.Seq] = append([]byte(nil), req.Data...)
	}
	return struct{}{}, nil
}

type readReq struct {
	File string `json:"file"`
}

type readResp struct {
	Data   []byte `json:"data"`
	Chunks int    `json:"chunks"`
}

// handleRead assembles the contiguous prefix of chunks — what an FTP client
// (or the assembly script the paper mentions) would retrieve.
func (m *MSS) handleRead(_ string, body json.RawMessage) (any, error) {
	var req readReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	chunks := m.files[req.File]
	var seqs []int
	for s := range chunks {
		seqs = append(seqs, s)
	}
	sort.Ints(seqs)
	var data []byte
	count := 0
	for i, s := range seqs {
		if s != i {
			break // hole: stop at the contiguous prefix
		}
		data = append(data, chunks[s]...)
		count++
	}
	return readResp{Data: data, Chunks: count}, nil
}

type statResp struct {
	Chunks int `json:"chunks"`
	Bytes  int `json:"bytes"`
}

func (m *MSS) handleStat(_ string, body json.RawMessage) (any, error) {
	var req readReq
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	chunks := m.files[req.File]
	total := 0
	for _, c := range chunks {
		total += len(c)
	}
	return statResp{Chunks: len(chunks), Bytes: total}, nil
}

// MSSClient reads from and writes to an MSS.
type MSSClient struct {
	wc *wire.Client
}

// NewMSSClient connects to the MSS at addr.
func NewMSSClient(addr string, cred *gsi.Credential, clock gsi.Clock) *MSSClient {
	return &MSSClient{wc: wire.Dial(addr, wire.ClientConfig{
		ServerName: MSSService,
		Credential: cred,
		Clock:      clock,
		Timeout:    2 * time.Second,
		Retries:    1,
	})}
}

// Close releases the connection.
func (c *MSSClient) Close() error { return c.wc.Close() }

// PutChunk stores one numbered chunk.
func (c *MSSClient) PutChunk(file string, seq int, data []byte) error {
	return c.wc.Call("mss.putchunk", putReq{File: file, Seq: seq, Data: data}, nil)
}

// Read returns the contiguous prefix of the file as stored so far.
func (c *MSSClient) Read(file string) ([]byte, int, error) {
	var resp readResp
	if err := c.wc.Call("mss.read", readReq{File: file}, &resp); err != nil {
		return nil, 0, err
	}
	return resp.Data, resp.Chunks, nil
}

// Stat reports stored chunk count and total bytes.
func (c *MSSClient) Stat(file string) (chunks, bytes int, err error) {
	var resp statResp
	if err := c.wc.Call("mss.stat", readReq{File: file}, &resp); err != nil {
		return 0, 0, err
	}
	return resp.Chunks, resp.Bytes, nil
}

// GCat monitors a growing local file and ships it to MSS in chunks,
// buffering through local scratch so the producing application never
// blocks on the network.
type GCat struct {
	cfg GCatConfig

	mu        sync.Mutex
	buffered  int64 // bytes read from the source, not yet acked by MSS
	shipped   int64 // bytes acked by MSS
	seq       int
	stopCh    chan struct{}
	wg        sync.WaitGroup
	scratchFd *os.File
	pending   [][]byte // chunks awaiting upload (backed by scratch file)
}

// GCatConfig configures a monitor.
type GCatConfig struct {
	// SourcePath is the output file being written by the application.
	SourcePath string
	// ScratchPath is local scratch used as the network-hiding buffer.
	ScratchPath string
	// MSSAddr and RemoteName identify the destination.
	MSSAddr    string
	RemoteName string
	// ChunkSize is the shipping unit (default 4 KiB).
	ChunkSize int
	// Poll is the file-watch interval (default 10ms).
	Poll time.Duration
	// Credential authenticates to MSS.
	Credential *gsi.Credential
	Clock      gsi.Clock
}

// NewGCat creates a monitor; Start begins watching.
func NewGCat(cfg GCatConfig) (*GCat, error) {
	if cfg.ChunkSize <= 0 {
		cfg.ChunkSize = 4 << 10
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 10 * time.Millisecond
	}
	g := &GCat{cfg: cfg, stopCh: make(chan struct{})}
	if cfg.ScratchPath != "" {
		fd, err := os.OpenFile(cfg.ScratchPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
		if err != nil {
			return nil, err
		}
		g.scratchFd = fd
	}
	return g, nil
}

// Start launches the watch/ship loops.
func (g *GCat) Start() {
	g.wg.Add(1)
	go g.run()
}

// Progress reports (bytes buffered from the source, bytes acked by MSS).
func (g *GCat) Progress() (buffered, shipped int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.buffered, g.shipped
}

// Stop flushes what it can within grace and halts: it waits until every
// byte currently in the source file has been read AND acknowledged by MSS
// (or the grace period expires), then stops the loops.
func (g *GCat) Stop(grace time.Duration) {
	deadline := time.Now().Add(grace)
	for time.Now().Before(deadline) {
		buffered, shipped := g.Progress()
		flushed := buffered == shipped
		if fi, err := os.Stat(g.cfg.SourcePath); err == nil {
			flushed = flushed && shipped >= fi.Size()
		}
		if flushed {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(g.stopCh)
	g.wg.Wait()
	if g.scratchFd != nil {
		g.scratchFd.Close()
	}
}

func (g *GCat) run() {
	defer g.wg.Done()
	client := NewMSSClient(g.cfg.MSSAddr, g.cfg.Credential, g.cfg.Clock)
	defer client.Close()
	ticker := time.NewTicker(g.cfg.Poll)
	defer ticker.Stop()
	var readOffset int64
	for {
		select {
		case <-g.stopCh:
			return
		case <-ticker.C:
		}
		// 1. Drain new bytes from the source into the scratch buffer.
		//    This is local disk I/O only — the application's writes are
		//    never coupled to the network.
		data, err := readAt(g.cfg.SourcePath, readOffset)
		if err == nil && len(data) > 0 {
			readOffset += int64(len(data))
			if g.scratchFd != nil {
				g.scratchFd.Write(data)
			}
			g.mu.Lock()
			g.buffered += int64(len(data))
			for len(data) > 0 {
				n := g.cfg.ChunkSize
				if n > len(data) {
					n = len(data)
				}
				g.pending = append(g.pending, append([]byte(nil), data[:n]...))
				data = data[n:]
			}
			g.mu.Unlock()
		}
		// 2. Ship pending chunks; on failure keep them buffered and
		//    retry next tick (network variation hidden from the app).
		for {
			g.mu.Lock()
			if len(g.pending) == 0 {
				g.mu.Unlock()
				break
			}
			chunk := g.pending[0]
			seq := g.seq
			g.mu.Unlock()
			if err := client.PutChunk(g.cfg.RemoteName, seq, chunk); err != nil {
				break // MSS slow or down: retry later
			}
			g.mu.Lock()
			g.pending = g.pending[1:]
			g.seq++
			g.shipped += int64(len(chunk))
			g.mu.Unlock()
		}
	}
}

func readAt(path string, offset int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if fi.Size() <= offset {
		return nil, nil
	}
	buf := make([]byte, fi.Size()-offset)
	n, err := f.ReadAt(buf, offset)
	if err != nil && n == 0 {
		return nil, err
	}
	return buf[:n], nil
}
