package journal

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"condorg/internal/obs"
)

// Store file layout inside the directory.
const (
	storeSnapshotFile = "snapshot.json"
	storeJournalFile  = "journal.log"
	storeOldPrefix    = "journal.old."
	quarantineSuffix  = ".quarantine"
)

// Store is a crash-safe persistent map built from a snapshot file plus a
// journal of deltas — the shape of the Schedd job queue ("all relevant state
// for each submitted job is stored persistently in the scheduler's job
// queue", §4.2). Keys are strings; values are JSON documents.
//
// Writers only ever pay for framing their own delta: the durability wait
// happens outside the store lock (so concurrent Puts group-commit), and
// compaction rotates the delta journal aside and folds it into the
// snapshot in the background instead of stalling the queue.
type Store struct {
	mu     sync.Mutex
	cond   *sync.Cond // compaction state changes
	dir    string
	opts   StoreOptions
	jn     *Journal
	data   map[string]json.RawMessage
	deltas int

	olds       []int // rotated journal segments awaiting the compactor
	oldSeq     int   // next rotation segment number
	compacting bool  // a background compactor goroutine is running
	compactErr error // latched background compaction failure

	// Replication tap (see stream.go): a bounded ring of recent chained
	// deltas a follower tails, plus the follower-ack state that sync
	// replication blocks acked writers on.
	ring     []StreamRecord
	ringCap  int
	streamCh chan struct{} // closed+renewed whenever the ring grows

	ackMu      sync.Mutex
	ackSeq     uint64        // highest chain seq the follower acknowledged
	ackCh      chan struct{} // closed+renewed on each ack
	syncRepl   bool          // sync replication enabled (SyncReplication called)
	syncArmed  bool          // a follower is current enough to wait on
	syncWait   time.Duration // how long an acked write waits for the follower
	ackClosed  bool          // store closed: release all waiters
	cDisarms   *obs.Counter  // journal_sync_repl_disarms_total
	cRotations *obs.Counter  // journal_segments_rotated_total
	cSnapshots *obs.Counter  // journal_snapshots_total
}

// StoreOptions configures the store's delta journal; see Options and the
// package documentation for the durability contract.
type StoreOptions struct {
	// Sync makes Put/Delete durable (fsynced) before they return.
	Sync bool
	// NoGroupCommit restores one write+fsync per delta; see Options.
	NoGroupCommit bool
	// Obs, when non-nil, instruments the delta journal; see Options.Obs.
	Obs *obs.Registry
}

const (
	// segmentMaxRecords bounds the live journal segment by delta count
	// before it is rotated aside and folded into the snapshot in the
	// background.
	segmentMaxRecords = 1000
	// segmentMaxBytes additionally bounds the live segment by size, so
	// replay cost after a crash stays bounded even when individual records
	// are large.
	segmentMaxBytes = 8 << 20
	// streamRing bounds the in-memory replication ring a follower tails. A
	// follower that falls further behind is told to re-bootstrap from a
	// snapshot.
	streamRing = 4096
)

type storeDelta struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value,omitempty"` // nil means delete
}

const (
	recSet    = "set"
	recDelete = "del"
)

// OpenStore opens (or recovers) a store rooted at dir with the default
// (async) journaling options.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreOptions(dir, StoreOptions{})
}

// OpenStoreOptions opens (or recovers) a store rooted at dir. Recovery
// loads the snapshot and replays any rotated segments plus the live delta
// journal, verifying the hash chain end to end: a torn tail is truncated
// away (a crash loses only the suffix that was never acknowledged), but
// mid-chain corruption — damage with intact history after it, a spliced
// record, a sequence gap — quarantines the damaged segment and refuses to
// open, returning a *CorruptionError (faultclass Permanent).
func OpenStoreOptions(dir string, opts StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	s := &Store{
		dir:     dir,
		opts:    opts,
		data:    make(map[string]json.RawMessage),
		ringCap: streamRing,
	}
	s.cDisarms = opts.Obs.Counter("journal_sync_repl_disarms_total")
	s.cRotations = opts.Obs.Counter("journal_segments_rotated_total")
	s.cSnapshots = opts.Obs.Counter("journal_snapshots_total")
	s.cond = sync.NewCond(&s.mu)
	// A quarantined segment is evidence from an earlier corrupted recovery.
	// Opening over it would silently accept whatever survived; refuse until
	// the operator has inspected and removed it (see `condorg audit verify`).
	if q := quarantinedFiles(dir); len(q) > 0 {
		return nil, &CorruptionError{Path: q[0],
			Reason: "quarantined segment from an earlier corrupted recovery is still present; inspect and remove it before reopening"}
	}
	chain, snap, err := loadSnapshotFile(s.snapshotPath())
	if err != nil {
		return nil, s.quarantineOnCorruption(err)
	}
	if snap != nil {
		s.data = snap
	}
	apply := func(rec Record) error {
		var d storeDelta
		if err := json.Unmarshal(rec.Data, &d); err != nil {
			return err
		}
		switch rec.Type {
		case recSet:
			s.data[d.Key] = d.Value
		case recDelete:
			delete(s.data, d.Key)
		}
		return nil
	}
	verifier := &chainVerifier{anchor: chain}
	verifyStart := time.Now()
	// Rotated segments left by a compaction the crash interrupted: they
	// hold deltas the snapshot may or may not include, so replay them (in
	// rotation order, before the live journal). Replaying a delta the
	// snapshot already folded in is a no-op.
	olds := s.listOldSegments()
	for _, n := range olds {
		if _, err := replayVerified(s.oldPath(n), verifier, apply); err != nil {
			return nil, s.quarantineOnCorruption(err)
		}
	}
	stats, err := replayVerified(s.journalPath(), verifier, apply)
	if err != nil {
		return nil, s.quarantineOnCorruption(err)
	}
	opts.Obs.Histogram("journal_chain_verify_seconds").Observe(time.Since(verifyStart).Seconds())
	s.deltas = stats.Records
	head := verifier.head()
	jopts := s.journalOpts()
	jopts.Chain = &head
	jn, err := Open(s.journalPath(), jopts)
	if err != nil {
		return nil, err
	}
	s.jn = jn
	if len(olds) > 0 {
		// Finish the interrupted compaction now so segments don't pile up.
		if err := writeSnapshotAtomic(s.snapshotPath(), head, s.data); err != nil {
			jn.Close()
			return nil, fmt.Errorf("journal: fold rotated segments: %w", err)
		}
		s.cSnapshots.Inc()
		for _, n := range olds {
			os.Remove(s.oldPath(n))
		}
		syncDir(s.dir)
	}
	return s, nil
}

// quarantineOnCorruption renames the segment a *CorruptionError points at
// to <name>.quarantine so the evidence survives and subsequent opens
// refuse fast, then returns err unchanged.
func (s *Store) quarantineOnCorruption(err error) error {
	var ce *CorruptionError
	if !errors.As(err, &ce) || ce.Path == "" {
		return err
	}
	if renameErr := os.Rename(ce.Path, ce.Path+quarantineSuffix); renameErr == nil {
		syncDir(s.dir)
		s.opts.Obs.Counter("journal_quarantines_total").Inc()
	}
	return err
}

// quarantinedFiles lists *.quarantine files in dir.
func quarantinedFiles(dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), quarantineSuffix) {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

// StoreFiles lists the non-empty Store files directly in dir (snapshot,
// journal segments, quarantined evidence): does dir itself hold a Store?
func StoreFiles(dir string) []string {
	entries, _ := os.ReadDir(dir)
	var out []string
	for _, e := range entries {
		name := e.Name()
		_, old := oldSegmentNumber(name)
		ours := old || name == storeSnapshotFile || name == storeJournalFile || strings.HasSuffix(name, quarantineSuffix)
		if info, err := e.Info(); ours && err == nil && info.Size() > 0 {
			out = append(out, filepath.Join(dir, name))
		}
	}
	return out
}

func (s *Store) snapshotPath() string { return filepath.Join(s.dir, storeSnapshotFile) }
func (s *Store) journalPath() string  { return filepath.Join(s.dir, storeJournalFile) }
func (s *Store) oldPath(n int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%d", storeOldPrefix, n))
}

func (s *Store) journalOpts() Options {
	return Options{
		Sync:          s.opts.Sync,
		NoGroupCommit: s.opts.NoGroupCommit,
		Obs:           s.opts.Obs,
	}
}

// oldSegmentNumber parses "journal.old.N" names, rejecting quarantined or
// otherwise decorated files.
func oldSegmentNumber(name string) (int, bool) {
	rest, ok := strings.CutPrefix(name, storeOldPrefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(rest)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listOldSegments returns rotated segment numbers in rotation order and
// advances oldSeq past them.
func (s *Store) listOldSegments() []int {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil
	}
	var olds []int
	for _, e := range entries {
		n, ok := oldSegmentNumber(e.Name())
		if !ok {
			continue
		}
		olds = append(olds, n)
		if n >= s.oldSeq {
			s.oldSeq = n + 1
		}
	}
	sort.Ints(olds)
	return olds
}

// storeSnapshotV2 is the on-disk snapshot: format version, the chain head
// the data was captured at, and the folded key space.
type storeSnapshotV2 struct {
	V     int                        `json:"v"`
	Chain ChainState                 `json:"chain"`
	Data  map[string]json.RawMessage `json:"data"`
}

// loadSnapshotFile reads a snapshot; a missing file is the empty snapshot
// at the genesis chain state. A file that does not parse or carries no
// chain anchor is a *CorruptionError.
func loadSnapshotFile(path string) (ChainState, map[string]json.RawMessage, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ChainState{}, nil, nil
	}
	if err != nil {
		return ChainState{}, nil, err
	}
	var snap storeSnapshotV2
	if err := json.Unmarshal(raw, &snap); err != nil {
		return ChainState{}, nil, &CorruptionError{Path: path, Reason: fmt.Sprintf("snapshot does not parse: %v", err)}
	}
	if snap.V != 2 {
		return ChainState{}, nil, &CorruptionError{Path: path, Reason: "snapshot carries no chain anchor (not a v2 snapshot)"}
	}
	return snap.Chain, snap.Data, nil
}

// writeSnapshotAtomic streams a v2 snapshot to a temp file entry by entry
// (never materializing one giant JSON blob — a 1M-job fold would otherwise
// double its memory), fsyncs, renames into place, and fsyncs the directory.
func writeSnapshotAtomic(path string, chain ChainState, data map[string]json.RawMessage) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".snapshot-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return err
	}
	w := bufio.NewWriterSize(tmp, 1<<20)
	head, err := json.Marshal(chain)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, `{"v":2,"chain":%s,"data":{`, head)
	first := true
	for k, v := range data {
		if !first {
			w.WriteByte(',')
		}
		first = false
		kb, err := json.Marshal(k)
		if err != nil {
			return fail(err)
		}
		w.Write(kb)
		w.WriteByte(':')
		if len(v) == 0 {
			v = json.RawMessage("null")
		}
		if _, err := w.Write(v); err != nil {
			return fail(err)
		}
	}
	if _, err := w.WriteString("}}"); err != nil {
		return fail(err)
	}
	if err := w.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// Put stores v under key. With Sync journaling the call returns once the
// delta is fsynced; concurrent writers share fsyncs through group commit.
func (s *Store) Put(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	delta, err := json.Marshal(storeDelta{Key: key, Value: raw})
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.jn == nil {
		s.mu.Unlock()
		return errors.New("journal: store closed")
	}
	jn := s.jn
	seq, link, err := jn.EnqueueChained(recSet, delta)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	s.data[key] = raw
	s.deltas++
	s.appendRingLocked(StreamRecord{Seq: link.Seq, Prev: link.Prev, Hash: link.Hash, Type: recSet, Data: delta})
	s.maybeRotateLocked()
	s.mu.Unlock()
	if err := jn.Commit(seq); err != nil {
		return err
	}
	s.waitFollower(link.Seq)
	return nil
}

// Delete removes key.
func (s *Store) Delete(key string) error {
	delta, err := json.Marshal(storeDelta{Key: key})
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.jn == nil {
		s.mu.Unlock()
		return errors.New("journal: store closed")
	}
	if _, ok := s.data[key]; !ok {
		s.mu.Unlock()
		return nil
	}
	jn := s.jn
	seq, link, err := jn.EnqueueChained(recDelete, delta)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	delete(s.data, key)
	s.deltas++
	s.appendRingLocked(StreamRecord{Seq: link.Seq, Prev: link.Prev, Hash: link.Hash, Type: recDelete, Data: delta})
	s.maybeRotateLocked()
	s.mu.Unlock()
	if err := jn.Commit(seq); err != nil {
		return err
	}
	s.waitFollower(link.Seq)
	return nil
}

// Get unmarshals the value at key into v; found is false when absent.
func (s *Store) Get(key string, v any) (found bool, err error) {
	s.mu.Lock()
	raw, ok := s.data[key]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	return true, json.Unmarshal(raw, v)
}

// Keys returns all keys (unordered).
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.data))
	for k := range s.data {
		out = append(out, k)
	}
	return out
}

// Len returns the number of stored keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data)
}

// ForEach calls fn with each key and raw value.
func (s *Store) ForEach(fn func(key string, raw json.RawMessage) error) error {
	s.mu.Lock()
	snapshot := make(map[string]json.RawMessage, len(s.data))
	for k, v := range s.data {
		snapshot[k] = v
	}
	s.mu.Unlock()
	for k, v := range snapshot {
		if err := fn(k, v); err != nil {
			return err
		}
	}
	return nil
}

// Compact synchronously folds the journal into the snapshot: it rotates
// the live journal and waits for the background compactor to finish.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jn == nil {
		return errors.New("journal: store closed")
	}
	if err := s.rotateLocked(); err != nil {
		return err
	}
	for s.compacting {
		s.cond.Wait()
	}
	return s.compactErr
}

func (s *Store) maybeRotateLocked() {
	if s.deltas < segmentMaxRecords && s.jn.Size() < segmentMaxBytes {
		return
	}
	_ = s.rotateLocked() // a failed rotation latches compactErr; writers keep going
}

// rotateLocked moves the live journal aside as a numbered segment, opens a
// fresh one, and kicks the background compactor. The heavy part of a
// compact — marshalling and writing the snapshot — happens off this lock,
// so a large compact never stalls concurrent Puts.
func (s *Store) rotateLocked() error {
	if s.compactErr != nil {
		return s.compactErr
	}
	// The fresh segment continues the chain exactly where this one ends,
	// so cross-segment continuity is verifiable at recovery.
	head := s.jn.ChainHead()
	jopts := s.journalOpts()
	jopts.Chain = &head
	if err := s.jn.Close(); err != nil {
		// The tail of the journal could not be made durable; renaming it
		// aside would launder the loss into the snapshot. Reopen in place
		// and latch the failure.
		s.compactErr = err
		if jn, oerr := Open(s.journalPath(), jopts); oerr == nil {
			s.jn = jn
		}
		return err
	}
	n := s.oldSeq
	s.oldSeq++
	if err := os.Rename(s.journalPath(), s.oldPath(n)); err != nil {
		s.compactErr = err
		if jn, oerr := Open(s.journalPath(), jopts); oerr == nil {
			s.jn = jn
		}
		return err
	}
	// Make the rename durable: without the directory fsync a crash could
	// forget the segment (and with it every delta it holds) even though
	// each record inside was fsynced.
	if err := syncDir(s.dir); err != nil {
		s.compactErr = err
		return err
	}
	jn, err := Open(s.journalPath(), jopts)
	if err != nil {
		s.compactErr = err
		return err
	}
	s.jn = jn
	s.deltas = 0
	s.olds = append(s.olds, n)
	s.cRotations.Inc()
	if !s.compacting {
		s.compacting = true
		go s.compactor()
	}
	return nil
}

// compactor folds rotated segments into the snapshot until none remain.
// It clones the map under the lock but marshals and writes outside it.
func (s *Store) compactor() {
	for {
		s.mu.Lock()
		if len(s.olds) == 0 || s.compactErr != nil {
			s.compacting = false
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		olds := append([]int(nil), s.olds...)
		snap := make(map[string]json.RawMessage, len(s.data))
		for k, v := range s.data {
			snap[k] = v
		}
		// The chain head at clone time anchors the snapshot: every delta it
		// folds in is ≤ head, so recovery can verify the surviving segments
		// extend (or are subsumed by) exactly this state.
		head := s.jn.ChainHead()
		s.mu.Unlock()
		err := writeSnapshotAtomic(s.snapshotPath(), head, snap)
		s.cSnapshots.Inc()
		s.mu.Lock()
		if err != nil {
			s.compactErr = err
			s.compacting = false
			s.cond.Broadcast()
			s.mu.Unlock()
			return
		}
		// The snapshot covered every delta enqueued before the clone, so
		// the rotated segments it subsumes can go.
		s.olds = s.olds[len(olds):]
		s.mu.Unlock()
		for _, n := range olds {
			os.Remove(s.oldPath(n))
		}
	}
}

// Close flushes and closes the store, waiting out any in-flight compaction.
// Blocked stream long-polls and sync-replication waiters are released.
func (s *Store) Close() error {
	s.ackMu.Lock()
	s.ackClosed = true
	if s.ackCh != nil {
		close(s.ackCh)
		s.ackCh = nil
	}
	s.ackMu.Unlock()
	s.mu.Lock()
	if s.streamCh != nil {
		close(s.streamCh)
		s.streamCh = nil
	}
	if s.jn == nil {
		s.mu.Unlock()
		return nil
	}
	for s.compacting {
		s.cond.Wait()
	}
	jn := s.jn
	s.jn = nil
	s.mu.Unlock()
	return jn.Close()
}
