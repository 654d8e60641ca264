package gram

// The staging data plane's site half: a content-addressed executable cache
// plus the chunked, resumable pre-stage protocol the GridManager pushes
// through (gram.stage-check / stage-chunk / stage-commit).
//
// Cache layout under StateDir/stage-cache:
//
//	objects/<sha256>       completed files, verified before rename
//	partial/<sha256>.part  in-flight upload, chunks written at any offset;
//	                       the commit renames it into objects/
//	partial/<sha256>.off   persisted contiguous acked offset, once an ack
//	                       short of the object had to be kept
//	partial/<sha256>.*.tmp a pulled executable on its way into objects/
//
// Resume contract: stage-chunk is idempotent and accepts chunks at any
// offset; the server acknowledges the longest contiguous prefix written
// from zero. The .off sidecar persists that ack, so a client that crashed
// (or whose connection was reset mid-chunk) asks stage-check where to
// resume and re-sends only the unacked tail. A crash can forget
// out-of-order chunks beyond the ack — re-sending them is safe, and the
// sha256 verification at the commit is the authority on content.
//
// Verification runs as the bytes land: the upload keeps a running sha256
// of its acked prefix, so the commit compares a digest instead of reading
// the object back. A chunk that carries the object's size and completes it
// commits it in the same call; stage-commit is left for a push whose last
// chunk did not (a client that never said the size, or a resumed upload
// the site had already fully acked).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
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

// stagePart is one in-flight upload: its part file, held open from the
// first chunk to commit or discard, its sidecar once it has one, the
// written byte ranges (merged intervals), the contiguous acked prefix and
// the running sha256 of that prefix. mu serializes the writers of one
// hash; uploads of different hashes never wait for each other.
type stagePart struct {
	mu       sync.Mutex
	part     *os.File // partial/<hash>.part
	off      *os.File // partial/<hash>.off; nil while none is on disk
	size     int64    // how far the part file reaches
	acked    int64
	sum      hash.Hash  // sha256 of the part file's [0, acked)
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
	mapped        atomic.Int64 // live mappings get handed out, not yet unmapped
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

// mapMin is the size from which get maps an object instead of reading it.
// Below it a read costs less than a map and unmap: on a 2-core box a 15-byte
// object took 9 µs to read against 31 µs to map, the two met at 16 KiB, and
// a 64 KiB one maps 2.6× faster than it reads.
const mapMin = 16 << 10

// get returns the cached object for hash, if complete. One of mapMin bytes
// or more is a read-only mapping of objects/<hash>; a smaller one is read
// onto the heap. A committed object is immutable — it only ever arrives by
// rename — so the mapping stays valid until unmap, however many jobs share
// the file. The caller hands whatever get returned to unmap exactly once.
func (c *stageCache) get(hash string) ([]byte, bool) {
	if !validHash(hash) {
		return nil, false
	}
	data, err := readOrMap(c.objectPath(hash), mapMin)
	if err != nil {
		return nil, false
	}
	if len(data) >= mapMin {
		c.mapped.Add(1)
	}
	return data, true
}

// unmap releases what get returned: a mapping is unmapped, heap bytes are
// left to the collector.
func (c *stageCache) unmap(data []byte) {
	if len(data) >= mapMin {
		_ = unmapFile(data) // fails only for a range get did not map
		c.mapped.Add(-1)
	}
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
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), c.objectPath(hash))
	}
	if err != nil {
		os.Remove(tmp.Name())
	}
	return err
}

// persistedAck reads the resume point a previous incarnation left for
// hash: the .off sidecar, trusted only as far as the .part file reaches.
// The bytes beyond it in the .part file are untrusted and re-sent.
func (c *stageCache) persistedAck(hash string) int64 {
	raw, err := os.ReadFile(c.offPath(hash))
	if err != nil {
		return 0
	}
	fi, err := os.Stat(c.partPath(hash))
	if err != nil {
		return 0
	}
	return parseAck(raw, fi.Size())
}

// parseAck reads a sidecar's ack, trusted only as far as a part file of
// partSize bytes reaches; anything else is no ack.
func parseAck(raw []byte, partSize int64) int64 {
	off, err := strconv.ParseInt(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil || off <= 0 || off > partSize {
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
			if err = c.open(hash, p); err == nil {
				return p, nil
			}
		}
		c.retire(hash, p)
		p.mu.Unlock()
		return nil, err
	}
}

// open gives a fresh entry its part file. A part file with bytes in it is
// a previous incarnation's upload: the entry resumes at the ack its
// sidecar persisted, and hashes the prefix that ack covers, once.
func (c *stageCache) open(hash string, p *stagePart) error {
	part, err := os.OpenFile(c.partPath(hash), os.O_CREATE|os.O_RDWR, 0o700)
	if err != nil {
		return err
	}
	fi, err := part.Stat()
	if err != nil {
		part.Close()
		return err
	}
	p.part, p.size, p.sum = part, fi.Size(), sha256.New()
	if p.size == 0 {
		return nil // a new upload: nothing was acked
	}
	if p.off, err = os.OpenFile(c.offPath(hash), os.O_RDWR, 0); err != nil {
		p.off = nil
		return nil // no ack was persisted: every byte is re-sent
	}
	var raw [32]byte
	n, _ := p.off.ReadAt(raw[:], 0) // io.EOF: the sidecar is shorter than raw
	if acked := parseAck(raw[:n], p.size); acked > 0 {
		if _, err := io.Copy(p.sum, io.NewSectionReader(part, 0, acked)); err == nil {
			p.acked = acked
		} else {
			p.sum.Reset()
		}
	}
	return nil
}

// retire ends an upload's entry: its files are closed, and the hash starts
// from a fresh entry next time. What is on disk stays. Caller holds p.mu.
func (c *stageCache) retire(hash string, p *stagePart) {
	if p.part != nil {
		p.part.Close()
	}
	if p.off != nil {
		p.off.Close()
	}
	p.finished = true
	c.mu.Lock()
	delete(c.parts, hash)
	c.mu.Unlock()
}

// discard ends an upload and removes its files, so the next attempt
// starts from zero. Caller holds p.mu.
func (c *stageCache) discard(hash string, p *stagePart) {
	os.Remove(c.partPath(hash))
	if p.off != nil {
		os.Remove(c.offPath(hash))
	}
	c.retire(hash, p)
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

// writeChunk lands one chunk at off — one pwrite on the open part file —
// and returns the new contiguous ack. When the ack moves, the bytes it
// newly covers join the running hash: this chunk's straight from data,
// those of chunks that arrived earlier out of order read back from the
// part file. total, when the sender said it (0 when not), is the object's
// size: the chunk that completes the object commits it, and an ack short
// of it is persisted in the sidecar so a site restart resumes instead of
// restarting.
func (c *stageCache) writeChunk(hash string, off, total int64, data []byte) (int64, error) {
	end := off + int64(len(data))
	if off < 0 || (total > 0 && end > total) {
		return 0, fmt.Errorf("gram: stage chunk [%d, %d) outside a %d-byte object", off, end, total)
	}
	p, err := c.acquire(hash)
	if err != nil {
		return 0, err
	}
	if p == nil {
		// Already complete: acknowledge everything so the sender stops.
		return max(end, total), nil
	}
	defer p.mu.Unlock()
	// The acked prefix is hashed already: a re-sent chunk rewrites none of
	// it, so the bytes verified are the bytes on disk.
	if from := max(off, p.acked); from < end {
		if _, err := p.part.WriteAt(data[from-off:], from); err != nil {
			return 0, err
		}
		p.size = max(p.size, end)
	}
	c.bytesReceived.Add(int64(len(data)))
	prev := p.acked
	acked := p.advance(off, end)
	if acked > prev {
		// Only a chunk starting at or below the old ack moves it, and it
		// reaches past it.
		mid := min(end, acked)
		p.sum.Write(data[prev-off : mid-off])
		if acked > mid {
			if _, err := io.Copy(p.sum, io.NewSectionReader(p.part, mid, acked-mid)); err != nil {
				c.discard(hash, p) // the running hash is torn
				return 0, err
			}
		}
	}
	if total > 0 && acked >= total {
		return acked, c.promote(hash, p, total)
	}
	if acked > prev {
		c.persistAck(hash, p)
	}
	return acked, nil
}

// persistAck writes the ack to the sidecar, fixed-width, creating the
// sidecar the first time. Best effort: a lost ack costs a re-send after a
// restart, nothing more. Caller holds p.mu.
func (c *stageCache) persistAck(hash string, p *stagePart) {
	if p.off == nil {
		f, err := os.OpenFile(c.offPath(hash), os.O_CREATE|os.O_WRONLY, 0o600)
		if err != nil {
			return
		}
		p.off = f
	}
	_, _ = p.off.WriteAt([]byte(fmt.Sprintf("%019d", p.acked)), 0)
}

// commit verifies the assembled partial and promotes it to objects/: the
// stage-commit of a push whose last chunk did not complete the object.
// Idempotent.
func (c *stageCache) commit(hash string, total int64) error {
	p, err := c.acquire(hash)
	if p == nil {
		return err // nil: the object is already complete
	}
	defer p.mu.Unlock()
	return c.promote(hash, p, total)
}

// promote ends an upload, whichever call completes it: it checks the acked
// prefix against the claimed size and its running hash against the
// claimed hash, and renames the part file itself into objects/. A mismatch
// discards the partial (never promoting corrupt bytes), so the next
// attempt restarts clean. Caller holds p.mu.
func (c *stageCache) promote(hash string, p *stagePart, total int64) error {
	var err error
	if p.acked != total {
		err = fmt.Errorf("gram: stage commit %s: assembled %d bytes, expected %d", hash[:12], p.acked, total)
	} else if got := hex.EncodeToString(p.sum.Sum(nil)); got != hash {
		err = fmt.Errorf("gram: stage commit: content hash %s does not match claimed %s", got[:12], hash[:12])
	} else if p.size > total {
		err = p.part.Truncate(total)
	}
	if err == nil {
		err = os.Rename(c.partPath(hash), c.objectPath(hash))
	}
	if err != nil {
		c.discard(hash, p)
		return err
	}
	if p.off != nil {
		_ = os.Remove(c.offPath(hash)) // a stale sidecar beside an object is never read
	}
	c.retire(hash, p)
	return nil
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
		c.retire(hash, p)
		p.mu.Unlock()
	}
}

// --- gatekeeper wire ops ---

// stageReq is the body of all three stage verbs: check names the hash,
// chunk adds the offset its blob lands at (and the object's size, when the
// sender says it), commit the assembled size.
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
	acked, err := s.stage.writeChunk(req.Hash, req.Offset, req.Total, data)
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
