package journal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"condorg/internal/faultclass"
)

// readFrames splits a journal file into whole frames (header + body).
func readFrames(t *testing.T, path string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for len(raw) >= 8 {
		size := binary.LittleEndian.Uint32(raw[0:4])
		if int(8+size) > len(raw) {
			break
		}
		frames = append(frames, raw[:8+size])
		raw = raw[8+size:]
	}
	return frames
}

func writeFrames(t *testing.T, path string, frames [][]byte) {
	t.Helper()
	var out []byte
	for _, f := range frames {
		out = append(out, f...)
	}
	if err := os.WriteFile(path, out, 0o600); err != nil {
		t.Fatal(err)
	}
}

// seedStore populates a fresh store with n puts and closes it.
func seedStore(t *testing.T, dir string, n int) {
	t.Helper()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := s.Put(fmt.Sprintf("job-%d", i), payload{N: i, S: "seeded"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDirCleanStore(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 15; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatalf("VerifyDir: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("report not OK: %+v", rep)
	}
	if rep.Head.Seq != 15 {
		t.Fatalf("verified head seq %d, want 15", rep.Head.Seq)
	}
	if rep.Snapshot.Seq != 10 {
		t.Fatalf("snapshot anchor seq %d, want 10", rep.Snapshot.Seq)
	}
}

// TestBitFlipMidJournal is the central tamper-evidence regression: a single
// flipped bit in a record that has intact history AFTER it cannot be a
// crash-torn tail, so recovery must refuse to open (typed, Permanent),
// quarantine the damaged segment, and keep refusing until the operator
// removes the evidence.
func TestBitFlipMidJournal(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 10)
	jpath := filepath.Join(dir, storeJournalFile)
	frames := readFrames(t, jpath)
	if len(frames) != 10 {
		t.Fatalf("parsed %d frames, want 10", len(frames))
	}
	frames[3][8+5] ^= 0x40 // flip one bit mid-record; 6 intact records follow
	writeFrames(t, jpath, frames)

	// The auditor sees it.
	rep, verr := VerifyDir(dir)
	var ce *CorruptionError
	if !errors.As(verr, &ce) {
		t.Fatalf("VerifyDir err = %v, want *CorruptionError", verr)
	}
	if rep.OK() {
		t.Fatal("report claims OK over a flipped bit")
	}
	if !strings.Contains(ce.Path, storeJournalFile) || ce.Seq != 4 {
		t.Fatalf("corruption located at %s seq %d, want %s seq 4", ce.Path, ce.Seq, storeJournalFile)
	}

	// Recovery refuses, classifies, and quarantines.
	_, err := OpenStore(dir)
	ce = nil
	if !errors.As(err, &ce) {
		t.Fatalf("OpenStore err = %v, want *CorruptionError", err)
	}
	if faultclass.ClassOf(err) != faultclass.Permanent {
		t.Fatalf("corruption classified %v, want Permanent", faultclass.ClassOf(err))
	}
	if _, err := os.Stat(jpath + quarantineSuffix); err != nil {
		t.Fatalf("damaged segment not quarantined: %v", err)
	}

	// A second open must refuse fast while the quarantine file remains.
	if _, err := OpenStore(dir); err == nil || !strings.Contains(err.Error(), "quarantine") {
		t.Fatalf("reopen over quarantine err = %v, want refusal naming the quarantine", err)
	}

	// Operator inspects and removes the evidence: the store opens again
	// (empty here — nothing was ever folded into a snapshot).
	if err := os.Remove(jpath + quarantineSuffix); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("open after operator cleanup: %v", err)
	}
	defer s.Close()
	if s.Len() != 0 {
		t.Fatalf("store silently recovered %d keys from quarantined history", s.Len())
	}
}

// TestBitFlipTornTail: the same bit flip in the FINAL record is
// indistinguishable from a crash-torn write, so recovery truncates it away
// silently — exactly the pre-chaining contract.
func TestBitFlipTornTail(t *testing.T) {
	dir := t.TempDir()
	seedStore(t, dir, 10)
	jpath := filepath.Join(dir, storeJournalFile)
	frames := readFrames(t, jpath)
	frames[9][8+5] ^= 0x40
	writeFrames(t, jpath, frames)
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("torn tail must not refuse open: %v", err)
	}
	defer s.Close()
	if s.Len() != 9 {
		t.Fatalf("recovered %d keys, want 9 (torn record dropped)", s.Len())
	}
	if _, err := os.Stat(jpath + quarantineSuffix); !os.IsNotExist(err) {
		t.Fatal("torn tail must not be quarantined")
	}
}

// TestRecordSplice covers history rewrites that keep every frame CRC-valid:
// dropping a record (sequence gap) and rewriting a record's payload with a
// recomputed CRC (the successor's prev-hash exposes it).
func TestRecordSplice(t *testing.T) {
	t.Run("drop", func(t *testing.T) {
		dir := t.TempDir()
		seedStore(t, dir, 10)
		jpath := filepath.Join(dir, storeJournalFile)
		frames := readFrames(t, jpath)
		spliced := append(append([][]byte{}, frames[:4]...), frames[5:]...)
		writeFrames(t, jpath, spliced)
		_, err := VerifyDir(dir)
		var ce *CorruptionError
		if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "sequence break") {
			t.Fatalf("dropped record not detected as sequence break: %v", err)
		}
		if _, err := OpenStore(dir); err == nil {
			t.Fatal("recovery replayed a spliced journal")
		}
	})
	t.Run("rewrite", func(t *testing.T) {
		dir := t.TempDir()
		seedStore(t, dir, 10)
		jpath := filepath.Join(dir, storeJournalFile)
		frames := readFrames(t, jpath)
		// Rewrite record 4's payload and recompute the CRC so the frame
		// itself is valid — only the hash chain can catch this.
		var rec Record
		if err := json.Unmarshal(frames[4][8:], &rec); err != nil {
			t.Fatal(err)
		}
		rec.Data, _ = json.Marshal(storeDelta{Key: "job-4", Value: json.RawMessage(`{"n":999,"s":"forged"}`)})
		body, _ := json.Marshal(rec)
		forged := make([]byte, 8+len(body))
		binary.LittleEndian.PutUint32(forged[0:4], uint32(len(body)))
		binary.LittleEndian.PutUint32(forged[4:8], crc32.ChecksumIEEE(body))
		copy(forged[8:], body)
		frames[4] = forged
		writeFrames(t, jpath, frames)
		_, err := VerifyDir(dir)
		var ce *CorruptionError
		if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "spliced") {
			t.Fatalf("rewritten record not detected as splice: %v", err)
		}
		if _, err := OpenStore(dir); err == nil {
			t.Fatal("recovery replayed a forged record")
		}
	})
}

// TestChainGapAgainstSnapshot: the snapshot anchors the chain, so losing the
// journal's prefix (records the snapshot does NOT cover) is detectable even
// though every surviving frame is intact.
func TestChainGapAgainstSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Compact(); err != nil { // snapshot anchored at seq 5
		t.Fatal(err)
	}
	for i := 5; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), payload{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	jpath := filepath.Join(dir, storeJournalFile)
	frames := readFrames(t, jpath)
	writeFrames(t, jpath, frames[1:]) // drop seq 6; survivors start at 7
	_, err = VerifyDir(dir)
	var ce *CorruptionError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "chain gap") {
		t.Fatalf("missing prefix not detected as chain gap: %v", err)
	}
	if _, err := OpenStore(dir); err == nil {
		t.Fatal("recovery silently dropped acknowledged records")
	}
}

// unchainedFrame builds a CRC-valid frame whose record carries no chain
// sequence — the format this package no longer writes or accepts.
func unchainedFrame(recType string, data []byte) []byte {
	body := []byte(fmt.Sprintf(`{"type":%q,"data":%s}`, recType, data))
	frame := make([]byte, 8, 8+len(body))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(body))
	return append(frame, body...)
}

// TestUnchainedRecordRefused: a record without a chain sequence is
// corruption wherever it sits — alone in a fresh journal or appended to
// chained history — and recovery quarantines the segment rather than
// replaying it.
func TestUnchainedRecordRefused(t *testing.T) {
	delta, _ := json.Marshal(storeDelta{Key: "rogue", Value: json.RawMessage(`{"n":1}`)})
	for _, seeded := range []int{0, 5} {
		t.Run(fmt.Sprintf("after=%d", seeded), func(t *testing.T) {
			dir := t.TempDir()
			seedStore(t, dir, seeded)
			jpath := filepath.Join(dir, storeJournalFile)
			f, err := os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			f.Write(unchainedFrame(recSet, delta))
			f.Close()
			_, err = VerifyDir(dir)
			var ce *CorruptionError
			if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "unchained") || ce.Path != jpath {
				t.Fatalf("unchained record not detected: %v", err)
			}
			_, err = OpenStore(dir)
			if !errors.As(err, &ce) || faultclass.ClassOf(err) != faultclass.Permanent {
				t.Fatalf("open over an unchained record = %v; want a Permanent CorruptionError", err)
			}
			if _, err := os.Stat(jpath + quarantineSuffix); err != nil {
				t.Fatalf("segment not quarantined: %v", err)
			}
		})
	}
}

// TestUnanchoredSnapshotRefused: a snapshot that is not v3 — a bare key
// map, or a v2 snapshot from before patches — is not one this store wrote,
// so it is refused and quarantined like any other damage, never loaded.
func TestUnanchoredSnapshotRefused(t *testing.T) {
	for name, body := range map[string]string{
		"bare-map": `{"old":{"n":1}}`,
		"v2":       `{"v":2,"chain":{"seq":0,"hash":""},"data":{"old":{"n":1}}}`,
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			spath := filepath.Join(dir, storeSnapshotFile)
			if err := WriteFileAtomic(spath, []byte(body)); err != nil {
				t.Fatal(err)
			}
			_, err := VerifyDir(dir)
			var ce *CorruptionError
			if !errors.As(err, &ce) || ce.Path != spath {
				t.Fatalf("VerifyDir over %s = %v; want a CorruptionError naming it", body, err)
			}
			_, err = OpenStore(dir)
			if !errors.As(err, &ce) || ce.Path != spath || faultclass.ClassOf(err) != faultclass.Permanent {
				t.Fatalf("open over %s = %v; want a Permanent CorruptionError naming it", body, err)
			}
			if _, err := os.Stat(spath + quarantineSuffix); err != nil {
				t.Fatalf("snapshot not quarantined: %v", err)
			}
			if _, err := OpenStore(dir); err == nil {
				t.Fatal("second open over the quarantined snapshot succeeded")
			}
		})
	}
}
