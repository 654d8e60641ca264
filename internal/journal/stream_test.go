package journal

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

// pump drains the primary's stream into the follower until both heads match.
func pump(t *testing.T, p, f *Store) {
	t.Helper()
	after := f.ChainHead().Seq
	for {
		recs, head, reset := p.StreamSince(after, 64)
		if reset {
			t.Fatalf("follower at %d told to reset (primary head %d)", after, head.Seq)
		}
		for _, r := range recs {
			if err := f.ApplyReplica(r); err != nil {
				t.Fatalf("apply record %d: %v", r.Seq, err)
			}
			after = r.Seq
		}
		if after >= head.Seq {
			return
		}
	}
}

func storeDump(t *testing.T, s *Store) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, k := range s.Keys() {
		var p payload
		if found, err := s.Get(k, &p); err != nil || !found {
			t.Fatalf("get %s: found=%v err=%v", k, found, err)
		}
		out[k] = fmt.Sprintf("%d/%s", p.N, p.S)
	}
	return out
}

// TestStreamReplication drives the full follower lifecycle: bootstrap from a
// snapshot, tail the delta stream record by record, then take over — close,
// reopen from its own disk, and prove the replicated history verifies.
func TestStreamReplication(t *testing.T) {
	p, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 5; i++ {
		if err := p.Put(fmt.Sprintf("pre-%d", i), payload{N: i, S: "pre"}); err != nil {
			t.Fatal(err)
		}
	}

	fdir := t.TempDir()
	f, err := OpenStore(fdir)
	if err != nil {
		t.Fatal(err)
	}
	snap := p.SnapshotDump()
	head := snap.Head
	if err := f.InstallSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got := f.ChainHead(); got != head {
		t.Fatalf("bootstrap head %+v, want %+v", got, head)
	}

	// Mutations interleaved with pumping, including deletes.
	for i := 0; i < 30; i++ {
		if err := p.Put(fmt.Sprintf("k%d", i%7), payload{N: i, S: "live"}); err != nil {
			t.Fatal(err)
		}
		if i%5 == 4 {
			if err := p.Delete(fmt.Sprintf("pre-%d", i/5)); err != nil {
				t.Fatal(err)
			}
		}
		if i%3 == 0 {
			pump(t, p, f)
		}
	}
	pump(t, p, f)

	if p.ChainHead() != f.ChainHead() {
		t.Fatalf("heads diverged: primary %+v follower %+v", p.ChainHead(), f.ChainHead())
	}
	if want, got := storeDump(t, p), storeDump(t, f); !reflect.DeepEqual(want, got) {
		t.Fatalf("replicated data diverged:\nprimary  %v\nfollower %v", want, got)
	}

	// Takeover: the follower restarts on its own replicated state.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if rep, err := VerifyDir(fdir); err != nil || !rep.OK() {
		t.Fatalf("replicated dir fails verification: %v", err)
	}
	f2, err := OpenStore(fdir)
	if err != nil {
		t.Fatalf("takeover reopen: %v", err)
	}
	defer f2.Close()
	if want, got := storeDump(t, p), storeDump(t, f2); !reflect.DeepEqual(want, got) {
		t.Fatalf("post-takeover data diverged:\nprimary %v\nreplica %v", want, got)
	}
	if f2.ChainHead() != p.ChainHead() {
		t.Fatalf("post-takeover head %+v, want %+v", f2.ChainHead(), p.ChainHead())
	}
}

// TestStreamSinceReset: a follower that has fallen behind the bounded ring
// must be told to re-bootstrap, never silently fed a gapped stream.
func TestStreamSinceReset(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.ringCap = 4
	for i := 0; i < 12; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, reset := s.StreamSince(0, 64); !reset {
		t.Fatal("follower behind the ring was not told to reset")
	}
	// From the ring's base the stream works.
	head := s.ChainHead()
	recs, _, reset := s.StreamSince(head.Seq-2, 64)
	if reset || len(recs) != 2 {
		t.Fatalf("tail fetch: %d recs reset=%v, want 2 records", len(recs), reset)
	}
	// A "future" follower (divergent or newer history) must also reset.
	if _, _, reset := s.StreamSince(head.Seq+10, 64); !reset {
		t.Fatal("follower ahead of the primary was not told to reset")
	}
}

// TestApplyReplicaRejects: transport corruption (hash mismatch) and stream
// discontinuities must be refused before they reach the follower's journal.
func TestApplyReplicaRejects(t *testing.T) {
	p, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := p.Put("a", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	recs, _, _ := p.StreamSince(0, 10)
	if len(recs) != 1 {
		t.Fatalf("got %d records", len(recs))
	}
	good := recs[0]

	bad := good
	bad.Hash = "0000" + good.Hash[4:]
	if err := f.ApplyReplica(bad); err == nil {
		t.Fatal("hash mismatch accepted")
	}
	bad = good
	bad.Seq = 7 // the follower is at 0; this cannot extend its head
	if err := f.ApplyReplica(bad); err == nil {
		t.Fatal("discontinuity accepted")
	}
	if err := f.ApplyReplica(good); err != nil {
		t.Fatalf("valid record refused: %v", err)
	}
	if f.ChainHead() != p.ChainHead() {
		t.Fatalf("heads diverged after apply")
	}
}

// TestWaitStreamWakesOnAppend: the long-poll primitive must wake promptly
// when the head advances, not sleep out its full deadline.
func TestWaitStreamWakesOnAppend(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan struct{})
	go func() {
		s.WaitStream(0, 10*time.Second)
		close(done)
	}()
	time.Sleep(10 * time.Millisecond)
	if err := s.Put("a", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("WaitStream did not wake on append")
	}
}

// TestSyncReplicationArmDisarm covers the availability/durability dial: sync
// waits engage only once a follower acks, a lagging follower disarms them
// after the timeout, and the next ack re-arms.
func TestSyncReplicationArmDisarm(t *testing.T) {
	s, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const wait = 150 * time.Millisecond
	s.SyncReplication(wait)

	// Unarmed (no follower has ever acked): writes return immediately.
	start := time.Now()
	if err := s.Put("a", payload{N: 1}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > wait {
		t.Fatalf("unarmed put blocked %v", d)
	}

	// A current follower arms the wait; a prompt ack releases the writer
	// well before the timeout.
	s.FollowerAck(s.ChainHead().Seq)
	go func() {
		for {
			if h := s.ChainHead(); h.Seq >= 2 {
				s.FollowerAck(h.Seq)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	start = time.Now()
	if err := s.Put("b", payload{N: 2}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= wait {
		t.Fatalf("acked put waited out the full timeout (%v)", d)
	}
	if _, armed := s.FollowerAckedSeq(); !armed {
		t.Fatal("prompt ack should leave sync replication armed")
	}

	// Follower goes silent: the write waits out the timeout once, then
	// disarms so the primary keeps accepting work.
	if err := s.Put("c", payload{N: 3}); err != nil {
		t.Fatal(err)
	}
	if _, armed := s.FollowerAckedSeq(); armed {
		t.Fatal("silent follower should have disarmed sync replication")
	}
	start = time.Now()
	if err := s.Put("d", payload{N: 4}); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > wait {
		t.Fatalf("disarmed put blocked %v", d)
	}

	// The follower catches up: acks re-arm the wait.
	s.FollowerAck(s.ChainHead().Seq)
	if _, armed := s.FollowerAckedSeq(); !armed {
		t.Fatal("ack should re-arm sync replication")
	}
}
