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
// A key holds an image (the value a set wrote) plus the patches appended to
// it since, in order. The store never interprets a patch: replay, snapshots
// and the replication stream carry patches unfolded, and the caller folds
// them (ForEachEntry). A set replaces the image and drops the key's patches.
//
// Writers only ever pay for framing their own delta: the durability wait
// happens outside the store lock (so concurrent Puts group-commit), and
// compaction rotates the delta journal aside and folds it into the
// snapshot in the background instead of stalling the queue. A lazy write
// (PutRaw or Patch with mustWait false) waits for nothing: it rides the
// next write that does, or the next Flush.
type Store struct {
	mu     sync.Mutex
	cond   *sync.Cond // compaction state changes
	dir    string
	opts   StoreOptions
	jn     *Journal
	data   map[string]entry
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
	recPatch  = "patch"
)

// entry is one key's state: the image the last set wrote and the patches
// appended since, unfolded. An entry is replaced, never modified in place,
// except that patches grows by append — so a shallow copy of the map is a
// consistent snapshot.
type entry struct {
	image   json.RawMessage
	patches []json.RawMessage
}

// applyDelta folds one replayed or replicated delta into data.
func applyDelta(data map[string]entry, typ, key string, value json.RawMessage) {
	switch typ {
	case recSet:
		data[key] = entry{image: value}
	case recPatch:
		e := data[key]
		e.patches = append(e.patches, value)
		data[key] = e
	case recDelete:
		delete(data, key)
	}
}

// frameDelta builds the JSON body of one delta around an already-marshalled
// value (nil for a delete) without re-validating it, and returns the value's
// span inside the body so the store can keep that instead of a copy.
func frameDelta(key string, value json.RawMessage) (delta, v []byte) {
	b := make([]byte, 0, len(key)+len(value)+20)
	b = append(b, `{"key":`...)
	b = appendJSONString(b, key)
	if value == nil {
		return append(b, '}'), nil
	}
	b = append(b, `,"value":`...)
	start := len(b)
	b = append(b, value...)
	end := len(b)
	b = append(b, '}')
	return b, b[start:end:end]
}

// appendJSONString appends s as a JSON string, byte for byte what
// encoding/json writes: quoted as is when it holds only printable ASCII
// that needs no escape, through encoding/json otherwise.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string never fails to marshal
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

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
		data:    make(map[string]entry),
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
	apply := func(rec Record, d storeDelta) error {
		applyDelta(s.data, rec.Type, d.Key, d.Value)
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

// storeSnapshot is the on-disk snapshot: format version, the chain head
// the data was captured at, each key's image, and the patches appended to
// each key since its image (left out when no key has any). Version 3 is
// the only one read.
type storeSnapshot struct {
	V       int                          `json:"v"`
	Chain   ChainState                   `json:"chain"`
	Data    map[string]json.RawMessage   `json:"data"`
	Patches map[string][]json.RawMessage `json:"patches,omitempty"`
}

// loadSnapshotFile reads a snapshot; a missing file is the empty snapshot
// at the genesis chain state. A file that does not parse or carries no
// chain anchor is a *CorruptionError.
func loadSnapshotFile(path string) (ChainState, map[string]entry, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ChainState{}, nil, nil
	}
	if err != nil {
		return ChainState{}, nil, err
	}
	var snap storeSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		return ChainState{}, nil, &CorruptionError{Path: path, Reason: fmt.Sprintf("snapshot does not parse: %v", err)}
	}
	if snap.V != 3 {
		return ChainState{}, nil, &CorruptionError{Path: path, Reason: "snapshot carries no v3 chain anchor"}
	}
	return snap.Chain, entries(snap.Data, snap.Patches), nil
}

// entries builds the key space from images and unfolded patches.
func entries(images map[string]json.RawMessage, patches map[string][]json.RawMessage) map[string]entry {
	data := make(map[string]entry, len(images))
	for k, v := range images {
		data[k] = entry{image: v}
	}
	for k, ps := range patches {
		e := data[k]
		e.patches = ps
		data[k] = e
	}
	return data
}

// writeSnapshotAtomic streams a snapshot to a temp file entry by entry
// (never materializing one giant JSON blob — a 1M-job fold would otherwise
// double its memory), fsyncs, renames into place, and fsyncs the directory.
func writeSnapshotAtomic(path string, chain ChainState, data map[string]entry) error {
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
	fmt.Fprintf(w, `{"v":3,"chain":%s,"data":{`, head)
	first := true
	for k, e := range data {
		if e.image == nil {
			continue // patches without an image: listed under patches only
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		w.Write(appendJSONString(nil, k))
		w.WriteByte(':')
		w.Write(e.image)
	}
	w.WriteByte('}')
	first = true
	for k, e := range data {
		if len(e.patches) == 0 {
			continue
		}
		if first {
			w.WriteString(`,"patches":{`)
		} else {
			w.WriteByte(',')
		}
		first = false
		w.Write(appendJSONString(nil, k))
		w.WriteString(":[")
		for i, p := range e.patches {
			if i > 0 {
				w.WriteByte(',')
			}
			w.Write(p)
		}
		w.WriteByte(']')
	}
	if !first {
		w.WriteByte('}')
	}
	if _, err := w.WriteString("}"); err != nil {
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

// Put stores v under key as its image, dropping the key's patches. With
// Sync journaling the call returns once the delta is fsynced; concurrent
// writers share fsyncs through group commit.
func (s *Store) Put(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return s.write(recSet, key, raw, true)
}

// PutRaw stores raw, a valid JSON document the store keeps without copying,
// as key's image, dropping the key's patches. mustWait makes the call
// return only once the delta is as durable as Put's; otherwise it returns
// once the delta is enqueued, and the delta reaches disk with the next
// write that waits, the next Flush, or Close.
func (s *Store) PutRaw(key string, raw json.RawMessage, mustWait bool) error {
	return s.write(recSet, key, raw, mustWait)
}

// Patch appends delta, a valid JSON document the store keeps without
// copying, to key's patches. The store never interprets it: whoever reads
// the key back (ForEachEntry) folds the patches over the image in order.
// mustWait is as for PutRaw.
func (s *Store) Patch(key string, delta json.RawMessage, mustWait bool) error {
	return s.write(recPatch, key, delta, mustWait)
}

// Delete removes key, its image and its patches.
func (s *Store) Delete(key string) error {
	return s.write(recDelete, key, nil, true)
}

// write journals one delta and applies it to the key space. A must-wait
// write then waits out local durability and, under sync replication, the
// follower; a lazy one returns at once.
func (s *Store) write(typ, key string, value json.RawMessage, mustWait bool) error {
	delta, value := frameDelta(key, value)
	s.mu.Lock()
	if s.jn == nil {
		s.mu.Unlock()
		return errors.New("journal: store closed")
	}
	if _, ok := s.data[key]; !ok && typ == recDelete {
		s.mu.Unlock()
		return nil
	}
	jn := s.jn
	seq, link, err := jn.EnqueueChained(typ, delta)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	applyDelta(s.data, typ, key, value)
	s.deltas++
	s.appendRingLocked(StreamRecord{Seq: link.Seq, Prev: link.Prev, Hash: link.Hash, Type: typ, Data: delta})
	s.maybeRotateLocked()
	s.mu.Unlock()
	if !mustWait {
		return nil
	}
	if err := jn.Commit(seq); err != nil {
		return err
	}
	s.waitFollower(link.Seq)
	return nil
}

// Flush makes every delta enqueued so far as durable as a must-wait write:
// one wait that covers a run of lazy writes.
func (s *Store) Flush() error {
	s.mu.Lock()
	if s.jn == nil {
		s.mu.Unlock()
		return errors.New("journal: store closed")
	}
	jn := s.jn
	head := jn.ChainHead()
	s.mu.Unlock()
	if err := jn.CommitAll(); err != nil {
		return err
	}
	s.waitFollower(head.Seq)
	return nil
}

// Get unmarshals the image at key into v; found is false when absent.
// Patches appended since the image are not folded in (see ForEachEntry).
func (s *Store) Get(key string, v any) (found bool, err error) {
	s.mu.Lock()
	e, ok := s.data[key]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	return true, json.Unmarshal(e.image, v)
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

// ForEach calls fn with each key and its image. It is for stores that never
// patch; ForEachEntry also hands over the patches.
func (s *Store) ForEach(fn func(key string, raw json.RawMessage) error) error {
	return s.ForEachEntry(func(key string, image json.RawMessage, _ []json.RawMessage) error {
		return fn(key, image)
	})
}

// ForEachEntry calls fn with each key, its image (nil when the key has only
// patches) and the patches appended to it since, in order, so the caller
// folds each key once.
func (s *Store) ForEachEntry(fn func(key string, image json.RawMessage, patches []json.RawMessage) error) error {
	s.mu.Lock()
	snapshot := make(map[string]entry, len(s.data))
	for k, e := range s.data {
		snapshot[k] = e
	}
	s.mu.Unlock()
	for k, e := range snapshot {
		if err := fn(k, e.image, e.patches); err != nil {
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
		snap := make(map[string]entry, len(s.data))
		for k, e := range s.data {
			snap[k] = e
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
