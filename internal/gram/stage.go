package gram

// The staging data plane's site half: a content-addressed executable cache
// plus the chunked, resumable pre-stage protocol the GridManager pushes
// through (gram.stage-check / stage-chunk / stage-commit).
//
// Cache layout under StateDir/stage-cache:
//
//	objects/<sha256>       completed files, verified before rename
//	partial/<sha256>.part  in-flight upload, chunks written at any offset;
//	                       commit renames it into objects/
//	partial/<sha256>.off   persisted contiguous acked offset
//	partial/<sha256>.*.tmp a pulled executable on its way into objects/
//
// Resume contract: stage-chunk is idempotent and accepts chunks at any
// offset; the server acknowledges the longest contiguous prefix written
// from zero. The .off sidecar persists that ack, so a client that crashed
// (or whose connection was reset mid-chunk) asks stage-check where to
// resume and re-sends only the unacked tail. A crash can forget
// out-of-order chunks beyond the ack — re-sending them is safe, and the
// final sha256 verification at stage-commit is the authority on content.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// HashExecutable returns the content address (sha256, lowercase hex) of an
// executable blob — the key of the per-site stage cache.
func HashExecutable(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// validHash guards the cache against path traversal: hashes are exactly 64
// lowercase hex characters and nothing else reaches the filesystem.
func validHash(h string) bool {
	if len(h) != 64 {
		return false
	}
	for i := 0; i < len(h); i++ {
		c := h[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// stagePart is one in-flight upload: its two files, held open from the
// first chunk to commit or discard, the written byte ranges (merged
// intervals) and the contiguous acked prefix. mu serializes the writers of
// one hash; uploads of different hashes never wait for each other.
type stagePart struct {
	mu       sync.Mutex
	part     *os.File // partial/<hash>.part
	off      *os.File // partial/<hash>.off
	acked    int64
	ranges   [][2]int64 // written ranges the ack has not reached, by start
	finished bool       // committed or discarded: look the hash up again
}

// advance folds a newly written [off, end) range in and returns the new
// contiguous ack: every range the ack reaches is swallowed, the rest wait
// for their gap to fill.
func (p *stagePart) advance(off, end int64) int64 {
	p.ranges = append(p.ranges, [2]int64{off, end})
	sort.Slice(p.ranges, func(i, j int) bool { return p.ranges[i][0] < p.ranges[j][0] })
	for len(p.ranges) > 0 && p.ranges[0][0] <= p.acked {
		p.acked = max(p.acked, p.ranges[0][1])
		p.ranges = p.ranges[1:]
	}
	return p.acked
}

// stageCache is the site's content-addressed executable store.
type stageCache struct {
	root string

	mu    sync.Mutex // guards the parts map only, never held across I/O
	parts map[string]*stagePart

	bytesReceived atomic.Int64 // chunk payload bytes accepted over the wire
	hits          atomic.Int64 // committed jobs served from the cache
	misses        atomic.Int64 // committed jobs that had to pull
}

func newStageCache(root string) (*stageCache, error) {
	for _, d := range []string{filepath.Join(root, "objects"), filepath.Join(root, "partial")} {
		if err := os.MkdirAll(d, 0o700); err != nil {
			return nil, err
		}
	}
	return &stageCache{root: root, parts: make(map[string]*stagePart)}, nil
}

func (c *stageCache) objectPath(hash string) string {
	return filepath.Join(c.root, "objects", hash)
}

func (c *stageCache) partPath(hash string) string {
	return filepath.Join(c.root, "partial", hash+".part")
}

func (c *stageCache) offPath(hash string) string {
	return filepath.Join(c.root, "partial", hash+".off")
}

func (c *stageCache) present(hash string) bool {
	_, err := os.Stat(c.objectPath(hash))
	return err == nil
}

// get returns the cached bytes for hash, if complete.
func (c *stageCache) get(hash string) ([]byte, bool) {
	if !validHash(hash) {
		return nil, false
	}
	data, err := os.ReadFile(c.objectPath(hash))
	if err != nil {
		return nil, false
	}
	return data, true
}

// put stores verified bytes under their hash. The temp file is this call's
// own, so concurrent puts (and a push commit) of one hash each rename a
// complete file into place and a get never sees a short one.
func (c *stageCache) put(hash string, data []byte) error {
	if !validHash(hash) {
		return fmt.Errorf("gram: bad stage hash %q", hash)
	}
	if c.present(hash) {
		return nil
	}
	tmp, err := os.CreateTemp(filepath.Join(c.root, "partial"), hash+".*.tmp")
	if err != nil {
		return err
	}
	tmp.Close()
	defer os.Remove(tmp.Name()) // a no-op once renamed
	if err := os.WriteFile(tmp.Name(), data, 0o700); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), c.objectPath(hash))
}

// persistedAck reads the resume point a previous incarnation left for
// hash: the .off sidecar, trusted only as far as the .part file reaches.
// The bytes beyond it in the .part file are untrusted and re-sent.
func (c *stageCache) persistedAck(hash string) int64 {
	raw, err := os.ReadFile(c.offPath(hash))
	if err != nil {
		return 0
	}
	off, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil || off <= 0 {
		return 0
	}
	if fi, err := os.Stat(c.partPath(hash)); err != nil || off > fi.Size() {
		return 0
	}
	return off
}

// acquire returns hash's upload, locked and with its files open (a fresh
// entry resumes from the persisted ack), or nil when the object is already
// complete: another client, or a pull, got there. The caller unlocks p.mu.
func (c *stageCache) acquire(hash string) (*stagePart, error) {
	for {
		c.mu.Lock()
		p := c.parts[hash]
		if p == nil {
			p = &stagePart{}
			c.parts[hash] = p
		}
		c.mu.Unlock()
		p.mu.Lock()
		if p.finished {
			p.mu.Unlock()
			continue
		}
		if p.part != nil {
			return p, nil
		}
		var err error
		if !c.present(hash) {
			p.acked = c.persistedAck(hash)
			if p.off, err = os.OpenFile(c.offPath(hash), os.O_CREATE|os.O_WRONLY, 0o600); err == nil {
				p.part, err = os.OpenFile(c.partPath(hash), os.O_CREATE|os.O_RDWR, 0o700)
			}
			if err == nil {
				return p, nil
			}
		}
		c.retire(hash, p, false)
		p.mu.Unlock()
		return nil, err
	}
}

// retire ends an upload: its files are closed (removed, when discard is
// set) and the hash starts from a fresh entry next time. Caller holds p.mu.
func (c *stageCache) retire(hash string, p *stagePart, discard bool) {
	if p.part != nil {
		p.part.Close()
	}
	if p.off != nil {
		p.off.Close()
	}
	if discard {
		os.Remove(c.partPath(hash))
		os.Remove(c.offPath(hash))
	}
	p.finished = true
	c.mu.Lock()
	delete(c.parts, hash)
	c.mu.Unlock()
}

// check reports whether hash is complete, and otherwise where to resume.
func (c *stageCache) check(hash string) (present bool, offset int64) {
	for !c.present(hash) {
		c.mu.Lock()
		p := c.parts[hash]
		c.mu.Unlock()
		if p == nil {
			return false, c.persistedAck(hash)
		}
		p.mu.Lock()
		acked, finished := p.acked, p.finished
		p.mu.Unlock()
		if !finished {
			return false, acked
		} // else it was committed or discarded under us: look again
	}
	return true, 0
}

// write lands one chunk at off — one pwrite on the open part file, plus a
// fixed-width one on the sidecar when the ack moves — and returns the new
// contiguous ack.
func (c *stageCache) write(hash string, off int64, data []byte) (int64, error) {
	p, err := c.acquire(hash)
	if err != nil {
		return 0, err
	}
	if p == nil {
		// Already complete: acknowledge everything so the sender stops.
		return off + int64(len(data)), nil
	}
	defer p.mu.Unlock()
	if _, err := p.part.WriteAt(data, off); err != nil {
		return 0, err
	}
	c.bytesReceived.Add(int64(len(data)))
	prev := p.acked
	acked := p.advance(off, off+int64(len(data)))
	if acked != prev {
		// Persist the ack so a site restart resumes instead of restarting.
		_, _ = p.off.WriteAt([]byte(fmt.Sprintf("%019d", acked)), 0)
	}
	return acked, nil
}

// commit verifies the assembled partial (size + sha256, hashed as a
// stream) and promotes it to objects/ by renaming the part file itself.
// Idempotent; a failed verification discards the partial so the next
// attempt restarts clean.
func (c *stageCache) commit(hash string, total int64) error {
	p, err := c.acquire(hash)
	if p == nil {
		return err // nil: the object is already complete
	}
	defer p.mu.Unlock()
	defer c.retire(hash, p, true) // promoted or discarded, the partial is over
	h := sha256.New()
	n, err := io.Copy(h, io.NewSectionReader(p.part, 0, total))
	if err != nil {
		return fmt.Errorf("gram: stage commit %s: %w", hash[:12], err)
	}
	if n != total {
		return fmt.Errorf("gram: stage commit %s: assembled %d bytes, expected %d", hash[:12], n, total)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != hash {
		return fmt.Errorf("gram: stage commit: content hash %s does not match claimed %s", got[:12], hash[:12])
	}
	if err := p.part.Truncate(total); err != nil {
		return err
	}
	return os.Rename(c.partPath(hash), c.objectPath(hash))
}

// close releases the files of every upload still in flight; their .part and
// .off stay on disk for the next incarnation to resume.
func (c *stageCache) close() {
	c.mu.Lock()
	parts := c.parts
	c.parts = make(map[string]*stagePart)
	c.mu.Unlock()
	for hash, p := range parts {
		p.mu.Lock()
		c.retire(hash, p, false)
		p.mu.Unlock()
	}
}

// --- gatekeeper wire ops ---

// stageReq is the body of all three stage verbs: check names the hash,
// chunk adds the offset its blob lands at, commit the assembled size.
type stageReq struct {
	Hash   string `json:"hash"`
	Offset int64  `json:"offset,omitempty"`
	Total  int64  `json:"total,omitempty"`
}

type stageCheckResp struct {
	Present bool  `json:"present"`
	Offset  int64 `json:"offset"` // resume point when not present
}

type stageChunkResp struct {
	Acked int64 `json:"acked"` // contiguous prefix now on stable storage
}

// stageRequest decodes a stage verb's body and admits it: a mapped peer,
// and a hash that is exactly a sha256 (nothing else reaches the filesystem).
func (s *Site) stageRequest(peer string, body json.RawMessage) (req stageReq, err error) {
	if err = json.Unmarshal(body, &req); err != nil {
		return req, err
	}
	if _, err = s.authorize(peer); err == nil && !validHash(req.Hash) {
		err = fmt.Errorf("gram: bad stage hash %q", req.Hash)
	}
	return req, err
}

func (s *Site) handleStageCheck(peer string, body json.RawMessage) (any, error) {
	req, err := s.stageRequest(peer, body)
	if err != nil {
		return nil, err
	}
	present, off := s.stage.check(req.Hash)
	return stageCheckResp{Present: present, Offset: off}, nil
}

func (s *Site) handleStageChunk(peer string, body json.RawMessage, data []byte) (any, []byte, error) {
	req, err := s.stageRequest(peer, body)
	if err != nil {
		return nil, nil, err
	}
	acked, err := s.stage.write(req.Hash, req.Offset, data)
	return stageChunkResp{Acked: acked}, nil, err
}

func (s *Site) handleStageCommit(peer string, body json.RawMessage) (any, error) {
	req, err := s.stageRequest(peer, body)
	if err != nil {
		return nil, err
	}
	return struct{}{}, s.stage.commit(req.Hash, req.Total)
}

// StageBytesReceived reports the chunk payload bytes this site has accepted
// through the stage plane — the regression tests' re-sent-byte meter.
func (s *Site) StageBytesReceived() int64 { return s.stage.bytesReceived.Load() }

// StageCacheStats reports executable-cache hits and misses for committed
// jobs at this site.
func (s *Site) StageCacheStats() (hits, misses int64) {
	return s.stage.hits.Load(), s.stage.misses.Load()
}
