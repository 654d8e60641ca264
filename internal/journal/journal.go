package journal

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"condorg/internal/obs"
)

// Record is one journal entry: an opaque type tag plus a JSON payload,
// its chain sequence number (from 1) and the SHA-256 (hex) of its
// predecessor's framed body (empty for the first record of a history).
type Record struct {
	Type string          `json:"type"`
	Seq  uint64          `json:"seq,omitempty"`
	Prev string          `json:"prev,omitempty"`
	Data json.RawMessage `json:"data"`
}

// ChainState identifies a position in the hash chain: the sequence number
// of the last record and the SHA-256 (hex) of its framed body. The zero
// value is the genesis state (an empty history).
type ChainState struct {
	Seq  uint64 `json:"seq"`
	Hash string `json:"hash,omitempty"`
}

// Link describes one appended chained record: its chain sequence, the hash
// of its predecessor, and its own hash. It is what a replication stream
// ships so a follower can verify continuity end to end.
type Link struct {
	Seq  uint64
	Prev string
	Hash string
}

// Journal is an append-only crash-safe log. It is safe for concurrent use;
// concurrent appenders coalesce into group commits (see the package
// documentation for the durability contract).
type Journal struct {
	mu   sync.Mutex
	cond *sync.Cond
	path string
	f    *os.File

	sync    bool
	noGroup bool

	buf     []byte // framed records enqueued but not yet written
	pendSeq uint64 // sequence of the last enqueued record
	durSeq  uint64 // sequence of the last written (and, if sync, fsynced) record
	leading bool   // a commit leader is writing outside the lock
	err     error  // latched fatal write error
	appends int

	chain ChainState // hash-chain head after the last enqueued record
	size  int64      // bytes in the file plus bytes enqueued (rotation sizing)

	hFlush   *obs.Histogram // journal_flush_seconds: write+fsync latency per flush
	hBatch   *obs.Histogram // journal_batch_records: records per group commit
	cAppends *obs.Counter   // journal_appends_total
}

// Options configures a Journal.
type Options struct {
	// Sync makes every append durable (fsynced) before it returns. Tests
	// that simulate crashes at arbitrary points leave this off for speed;
	// the agent turns it on for its persistent queue.
	Sync bool
	// NoGroupCommit restores the historical behavior of one write (and,
	// with Sync, one fsync) per append, performed under the journal lock.
	// It exists so benchmarks can compare against the ungrouped path.
	NoGroupCommit bool
	// Obs, when non-nil, receives flush latency, batch size, and append
	// counters. Nil disables instrumentation (nil-safe handles).
	Obs *obs.Registry
	// Chain, when non-nil, is the hash-chain head this journal continues
	// from (the last record already on disk, or the snapshot head). Nil
	// starts a fresh chain at the genesis state — correct only for an
	// empty file.
	Chain *ChainState
}

// Open opens (creating if needed) the journal at path.
func Open(path string, opts Options) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("journal: open: %w", err)
	}
	j := &Journal{
		path:     path,
		f:        f,
		sync:     opts.Sync,
		noGroup:  opts.NoGroupCommit,
		hFlush:   opts.Obs.Histogram("journal_flush_seconds"),
		hBatch:   opts.Obs.Histogram("journal_batch_records"),
		cAppends: opts.Obs.Counter("journal_appends_total"),
	}
	if opts.Chain != nil {
		j.chain = *opts.Chain
	}
	if st, err := f.Stat(); err == nil {
		j.size = st.Size()
	}
	j.cond = sync.NewCond(&j.mu)
	return j, nil
}

// frameRecord builds the length+CRC framed wire form of one record. The
// payload is spliced in directly — the Record envelope is produced without
// re-marshalling the already-marshalled data. The record carries its chain
// sequence and the predecessor hash.
func frameRecord(recType string, data []byte, seq uint64, prev string) []byte {
	tag, _ := json.Marshal(recType) // a string never fails to marshal
	if len(data) == 0 {
		data = []byte("null")
	}
	rec := make([]byte, 8, 8+len(tag)+len(data)+len(prev)+64)
	rec = append(rec, `{"type":`...)
	rec = append(rec, tag...)
	rec = append(rec, `,"seq":`...)
	rec = appendUint(rec, seq)
	rec = append(rec, `,"prev":"`...)
	rec = append(rec, prev...) // hex, never needs escaping
	rec = append(rec, `","data":`...)
	rec = append(rec, data...)
	rec = append(rec, '}')
	binary.LittleEndian.PutUint32(rec[0:4], uint32(len(rec)-8))
	binary.LittleEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(rec[8:]))
	return rec
}

// appendUint appends the decimal form of v.
func appendUint(b []byte, v uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

// hashBody returns the hex SHA-256 of one record's framed JSON body (the
// bytes after the 8-byte length+CRC header).
func hashBody(body []byte) string {
	sum := sha256.Sum256(body)
	return hex.EncodeToString(sum[:])
}

// Append writes one record. The payload v is marshalled to JSON. The call
// returns once the record is covered by the configured durability mode.
func (j *Journal) Append(recType string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("journal: marshal %s: %w", recType, err)
	}
	return j.AppendRaw(recType, data)
}

// AppendRaw writes one record whose payload is already-marshalled JSON,
// framing it directly without a second marshal. data must be a valid JSON
// document (empty is treated as null).
func (j *Journal) AppendRaw(recType string, data json.RawMessage) error {
	seq, _, err := j.EnqueueChained(recType, data)
	if err != nil {
		return err
	}
	return j.Commit(seq)
}

// EnqueueChained stages one record (payload must be valid JSON) and returns
// its sequence number and chain Link without waiting for it to reach disk.
// Callers that need to order the enqueue against their own state under an
// external lock enqueue there and call Commit after releasing it, so the
// durability wait does not serialize them; the Link lets a caller mirroring
// records to a follower ship seq/prev/hash without re-deriving them.
func (j *Journal) EnqueueChained(recType string, data json.RawMessage) (uint64, Link, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return 0, Link{}, errors.New("journal: closed")
	}
	if j.err != nil {
		return 0, Link{}, j.err
	}
	link := Link{Seq: j.chain.Seq + 1, Prev: j.chain.Hash}
	frame := frameRecord(recType, data, link.Seq, link.Prev)
	link.Hash = hashBody(frame[8:])
	j.chain = ChainState{Seq: link.Seq, Hash: link.Hash}
	j.size += int64(len(frame))
	if j.noGroup {
		// Historical path: write (and fsync) inline under the lock.
		start := time.Now()
		if _, err := j.f.Write(frame); err != nil {
			j.err = err
			return 0, Link{}, err
		}
		if j.sync {
			if err := j.f.Sync(); err != nil {
				j.err = err
				return 0, Link{}, err
			}
		}
		j.hFlush.Observe(time.Since(start).Seconds())
		j.hBatch.Observe(1)
		j.cAppends.Inc()
		j.pendSeq++
		j.durSeq = j.pendSeq
		j.appends++
		return j.pendSeq, link, nil
	}
	j.buf = append(j.buf, frame...)
	j.pendSeq++
	j.appends++
	j.cAppends.Inc()
	return j.pendSeq, link, nil
}

// ChainHead returns the hash-chain state after the last enqueued record.
func (j *Journal) ChainHead() ChainState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.chain
}

// Size returns the journal's size in bytes, counting enqueued-but-unflushed
// records, for rotation decisions.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Commit blocks until the record with the given sequence number is covered
// by the configured durability mode. Concurrent committers elect a leader
// that writes (and fsyncs) everything enqueued so far in one batch.
func (j *Journal) Commit(seq uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for {
		if j.durSeq >= seq {
			return nil
		}
		if j.err != nil {
			return j.err
		}
		if j.f == nil {
			return errors.New("journal: closed")
		}
		if j.leading {
			j.cond.Wait()
			continue
		}
		j.leading = true
		buf := j.buf
		upTo := j.pendSeq
		batch := upTo - j.durSeq
		j.buf = nil
		f := j.f
		j.mu.Unlock()
		var werr error
		start := time.Now()
		if len(buf) > 0 {
			_, werr = f.Write(buf)
		}
		if werr == nil && j.sync {
			werr = f.Sync()
		}
		if werr == nil && len(buf) > 0 {
			j.hFlush.Observe(time.Since(start).Seconds())
			j.hBatch.Observe(float64(batch))
		}
		j.mu.Lock()
		j.leading = false
		if werr != nil {
			j.err = werr
		} else {
			j.durSeq = upTo
		}
		j.cond.Broadcast()
	}
}

// CommitAll blocks until every record enqueued so far is covered by the
// configured durability mode: Commit of the latest sequence.
func (j *Journal) CommitAll() error {
	j.mu.Lock()
	seq := j.pendSeq
	j.mu.Unlock()
	return j.Commit(seq)
}

// Appends returns the number of records appended through this handle.
func (j *Journal) Appends() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appends
}

// flushLocked writes any batched records. Callers hold j.mu and have
// ensured no commit leader is in flight.
func (j *Journal) flushLocked() error {
	if len(j.buf) == 0 {
		j.durSeq = j.pendSeq
		return nil
	}
	_, err := j.f.Write(j.buf)
	if err == nil && j.sync {
		err = j.f.Sync()
	}
	j.buf = nil
	if err != nil {
		j.err = err
		return err
	}
	j.durSeq = j.pendSeq
	return nil
}

// Close flushes and closes the journal. Blocked committers are released.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	for j.leading {
		j.cond.Wait()
	}
	if j.f == nil {
		return nil
	}
	flushErr := j.flushLocked()
	closeErr := j.f.Close()
	j.f = nil
	j.cond.Broadcast()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}

// Replay reads every intact record in the journal at path, calling fn for
// each. A corrupt or truncated tail is tolerated (replay stops there); a
// missing file yields zero records. Replay returns the number of records
// delivered.
func Replay(path string, fn func(rec Record) error) (int, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("journal: replay open: %w", err)
	}
	defer f.Close()
	r := bufio.NewReader(f)
	n := 0
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return n, nil // clean EOF or torn header: stop
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if size > 1<<26 {
			return n, nil // implausible length: torn write
		}
		buf := make([]byte, size)
		if _, err := io.ReadFull(r, buf); err != nil {
			return n, nil // torn payload
		}
		if crc32.ChecksumIEEE(buf) != sum {
			return n, nil // corrupt record
		}
		var rec Record
		if err := json.Unmarshal(buf, &rec); err != nil {
			return n, nil
		}
		if err := fn(rec); err != nil {
			return n, err
		}
		n++
	}
}

// WriteFileAtomic writes data to path via a temp file + rename so readers
// never observe a partial file. The rename is atomic on POSIX filesystems.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".atomic-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	// The rename is atomic, but on ext4/xfs the new directory entry is not
	// durable until the directory itself is fsynced — without this a crash
	// shortly after "successfully" saving could lose the whole file.
	return syncDir(dir)
}

// syncDir fsyncs a directory so renames and unlinks inside it survive a
// crash. Filesystems that cannot fsync a directory are tolerated.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return err
	}
	return nil
}
