package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"time"
)

// StreamRecord is one replicated store delta plus its chain link: enough
// for a follower to append a byte-identical record to its own journal and
// prove, hash by hash, that it holds the primary's exact history.
type StreamRecord struct {
	Seq  uint64          `json:"seq"`
	Prev string          `json:"prev,omitempty"`
	Hash string          `json:"hash"`
	Type string          `json:"type"`
	Data json.RawMessage `json:"data"`
}

// ChainHead returns the store's current hash-chain head.
func (s *Store) ChainHead() ChainState {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jn == nil {
		return ChainState{}
	}
	return s.jn.ChainHead()
}

// appendRingLocked records one chained delta in the replication ring.
// Caller holds s.mu. Followers further behind than the ring's base must
// re-bootstrap from a snapshot.
func (s *Store) appendRingLocked(sr StreamRecord) {
	if len(s.ring) >= s.ringCap {
		drop := len(s.ring) - s.ringCap + 1
		s.ring = append(s.ring[:0], s.ring[drop:]...)
	}
	s.ring = append(s.ring, sr)
	if s.streamCh != nil {
		close(s.streamCh)
		s.streamCh = nil
	}
}

// StreamSince returns up to max deltas with chain sequence > after, plus
// the current head. reset is true when the follower has fallen behind the
// ring (or is on a divergent/newer history) and must re-bootstrap from
// SnapshotDump.
func (s *Store) StreamSince(after uint64, max int) (recs []StreamRecord, head ChainState, reset bool) {
	if max <= 0 {
		max = 256
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jn == nil {
		return nil, ChainState{}, false
	}
	head = s.jn.ChainHead()
	if after > head.Seq {
		return nil, head, true
	}
	if after == head.Seq {
		return nil, head, false
	}
	if len(s.ring) == 0 || s.ring[0].Seq > after+1 {
		return nil, head, true
	}
	start := int(after + 1 - s.ring[0].Seq)
	end := start + max
	if end > len(s.ring) {
		end = len(s.ring)
	}
	recs = append(recs, s.ring[start:end]...)
	return recs, head, false
}

// WaitStream blocks until the chain head advances past after, the store
// closes, or d elapses — the long-poll primitive behind the journal
// stream wire op.
func (s *Store) WaitStream(after uint64, d time.Duration) {
	deadline := time.Now().Add(d)
	s.mu.Lock()
	for {
		if s.jn == nil || s.jn.ChainHead().Seq > after {
			s.mu.Unlock()
			return
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			s.mu.Unlock()
			return
		}
		if s.streamCh == nil {
			s.streamCh = make(chan struct{})
		}
		ch := s.streamCh
		s.mu.Unlock()
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
		s.mu.Lock()
	}
}

// SnapshotDump clones the full key space and the chain head it is valid
// at, for bootstrapping a follower.
func (s *Store) SnapshotDump() (map[string]json.RawMessage, ChainState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	data := make(map[string]json.RawMessage, len(s.data))
	for k, v := range s.data {
		data[k] = v
	}
	var head ChainState
	if s.jn != nil {
		head = s.jn.ChainHead()
	}
	return data, head
}

// SyncReplication enables synchronous mirroring: once a follower has
// acknowledged progress (FollowerAck), every Put/Delete additionally waits
// — after local durability — until the follower's acked sequence covers
// the new record, or wait elapses. On expiry the wait disarms (primary
// availability beats replication) until the follower acks again. wait <= 0
// uses 1s.
func (s *Store) SyncReplication(wait time.Duration) {
	if wait <= 0 {
		wait = time.Second
	}
	s.ackMu.Lock()
	s.syncRepl = true
	s.syncWait = wait
	s.ackMu.Unlock()
}

// FollowerAck records that the follower holds every record up to seq. It
// (re)arms sync replication and wakes writers blocked on the ack.
func (s *Store) FollowerAck(seq uint64) {
	s.ackMu.Lock()
	if seq > s.ackSeq {
		s.ackSeq = seq
	}
	if s.syncRepl {
		s.syncArmed = true
	}
	if s.ackCh != nil {
		close(s.ackCh)
		s.ackCh = nil
	}
	s.ackMu.Unlock()
}

// FollowerAckedSeq returns the follower's last acknowledged sequence and
// whether sync replication is currently armed.
func (s *Store) FollowerAckedSeq() (uint64, bool) {
	s.ackMu.Lock()
	defer s.ackMu.Unlock()
	return s.ackSeq, s.syncArmed
}

// waitFollower blocks an acked write until the follower has fetched the
// record at seq, sync replication disarms, or the store closes. The record
// is already locally durable; this wait only narrows the window in which a
// primary crash could strand an acknowledged mutation off the standby.
func (s *Store) waitFollower(seq uint64) {
	s.ackMu.Lock()
	if !s.syncRepl || !s.syncArmed || s.ackClosed || s.ackSeq >= seq {
		s.ackMu.Unlock()
		return
	}
	deadline := time.Now().Add(s.syncWait)
	for s.syncArmed && !s.ackClosed && s.ackSeq < seq {
		remain := time.Until(deadline)
		if remain <= 0 {
			// The follower is lagging or gone: disarm so the primary keeps
			// accepting work, and re-arm on its next ack.
			s.syncArmed = false
			s.cDisarms.Inc()
			break
		}
		if s.ackCh == nil {
			s.ackCh = make(chan struct{})
		}
		ch := s.ackCh
		s.ackMu.Unlock()
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
		s.ackMu.Lock()
	}
	s.ackMu.Unlock()
}

// InstallSnapshot replaces the store's entire contents with a snapshot
// received from the primary: the journal and any rotated segments are
// discarded, the snapshot is written with its chain anchor, and a fresh
// journal continues from head. The follower's bootstrap path.
func (s *Store) InstallSnapshot(data map[string]json.RawMessage, head ChainState) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jn == nil {
		return errors.New("journal: store closed")
	}
	for s.compacting {
		s.cond.Wait()
	}
	if err := s.jn.Close(); err != nil {
		return err
	}
	os.Remove(s.journalPath())
	for _, n := range s.listOldSegments() {
		os.Remove(s.oldPath(n))
	}
	s.olds = nil
	s.compactErr = nil
	if err := writeSnapshotAtomic(s.snapshotPath(), head, data); err != nil {
		return err
	}
	s.cSnapshots.Inc()
	jopts := s.journalOpts()
	jopts.Chain = &head
	jn, err := Open(s.journalPath(), jopts)
	if err != nil {
		return err
	}
	s.jn = jn
	s.data = make(map[string]json.RawMessage, len(data))
	for k, v := range data {
		s.data[k] = v
	}
	s.deltas = 0
	s.ring = nil
	if s.streamCh != nil {
		close(s.streamCh)
		s.streamCh = nil
	}
	return nil
}

// ApplyReplica appends one streamed delta to a follower store. The record
// must extend the follower's chain head exactly, and its hash must match
// what the primary computed — the follower re-frames the record from the
// same bytes, so any transport corruption or divergence is caught before
// it reaches disk. A discontinuity returns an error; the follower should
// re-bootstrap via InstallSnapshot.
func (s *Store) ApplyReplica(sr StreamRecord) error {
	// Verify the shipped hash against a local re-framing before touching
	// the journal, so a corrupt record is rejected rather than appended.
	frame := frameRecord(sr.Type, sr.Data, sr.Seq, sr.Prev)
	if sum := hashBody(frame[8:]); sum != sr.Hash {
		return fmt.Errorf("journal: replica record %d hash mismatch (got %.12s want %.12s)", sr.Seq, sum, sr.Hash)
	}
	var d storeDelta
	if err := json.Unmarshal(sr.Data, &d); err != nil {
		return fmt.Errorf("journal: replica record %d: %w", sr.Seq, err)
	}
	s.mu.Lock()
	if s.jn == nil {
		s.mu.Unlock()
		return errors.New("journal: store closed")
	}
	head := s.jn.ChainHead()
	if sr.Seq != head.Seq+1 || sr.Prev != head.Hash {
		s.mu.Unlock()
		return fmt.Errorf("journal: replica stream discontinuity: record %d/%.12s does not extend head %d/%.12s",
			sr.Seq, sr.Prev, head.Seq, head.Hash)
	}
	jn := s.jn
	seq, link, err := jn.EnqueueChained(sr.Type, sr.Data)
	if err != nil {
		s.mu.Unlock()
		return err
	}
	if link.Hash != sr.Hash || link.Seq != sr.Seq {
		// Unreachable unless the journal and this check disagree; latch
		// loudly rather than replicate a divergent history.
		s.mu.Unlock()
		return fmt.Errorf("journal: replica record %d re-framed to a different hash", sr.Seq)
	}
	switch sr.Type {
	case recSet:
		s.data[d.Key] = d.Value
	case recDelete:
		delete(s.data, d.Key)
	}
	s.deltas++
	s.appendRingLocked(sr)
	s.maybeRotateLocked()
	s.mu.Unlock()
	return jn.Commit(seq)
}
