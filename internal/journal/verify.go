package journal

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"condorg/internal/faultclass"
)

// CorruptionError reports damage to a journal's history that cannot be a
// crash-torn tail: a record mid-file that fails its CRC, a record whose
// hash chain does not extend its predecessor (a splice), or a sequence gap
// against the snapshot anchor. Recovery refuses to replay past it; the
// fault class is Permanent because retrying cannot repair history.
type CorruptionError struct {
	// Path is the damaged segment file.
	Path string
	// Seq is the chain sequence at which verification failed (0 when the
	// damage precedes any chained record).
	Seq uint64
	// Offset is the byte offset of the damaged or unverifiable record.
	Offset int64
	// Reason describes the failure.
	Reason string
}

// Error names the segment, chain sequence and byte offset of the damage.
func (e *CorruptionError) Error() string {
	return fmt.Sprintf("journal: corrupt segment %s at seq %d (offset %d): %s",
		e.Path, e.Seq, e.Offset, e.Reason)
}

// FaultClass marks journal corruption Permanent: no retry repairs history.
func (e *CorruptionError) FaultClass() faultclass.Class { return faultclass.Permanent }

// chainVerifier threads hash-chain state across the files of one store
// directory (snapshot anchor → rotated segments → live journal) and checks
// every chained record against it.
type chainVerifier struct {
	anchor  ChainState // chain head the snapshot was captured at (zero = genesis)
	cur     ChainState // last record verified
	started bool       // at least one record seen
}

// head returns the effective chain head after verification: the last
// verified record, or the snapshot anchor when the surviving files end
// short of it (their tail was already folded into the snapshot).
func (v *chainVerifier) head() ChainState {
	if v.anchor.Seq > v.cur.Seq {
		return v.anchor
	}
	return v.cur
}

// check verifies one CRC-valid record against the chain. sum is the hex
// SHA-256 of the record's framed body. A non-empty reason means mid-chain
// corruption; badSeq is the chain position it was detected at.
func (v *chainVerifier) check(rec *Record, sum string) (reason string, badSeq uint64) {
	if rec.Seq == 0 {
		// Every record this package writes is chained: this one was
		// spliced in, or written by software that must not touch the store.
		return "unchained record (no chain sequence)", v.head().Seq + 1
	}
	if !v.started {
		switch {
		case rec.Seq == v.anchor.Seq+1:
			if rec.Prev != v.anchor.Hash {
				return fmt.Sprintf("prev hash %.12s does not extend the snapshot head %.12s",
					rec.Prev, v.anchor.Hash), rec.Seq
			}
		case rec.Seq <= v.anchor.Seq:
			// Overlap: the snapshot already folded this prefix in. The
			// chain is verified against the anchor when it reaches it.
		default:
			return fmt.Sprintf("chain gap: first surviving record is seq %d but the snapshot head is %d",
				rec.Seq, v.anchor.Seq), rec.Seq
		}
	} else {
		if rec.Seq != v.cur.Seq+1 {
			return fmt.Sprintf("sequence break: seq %d follows seq %d", rec.Seq, v.cur.Seq), rec.Seq
		}
		if rec.Prev != v.cur.Hash {
			return fmt.Sprintf("prev hash %.12s does not match predecessor %.12s (spliced history)",
				rec.Prev, v.cur.Hash), rec.Seq
		}
	}
	v.cur = ChainState{Seq: rec.Seq, Hash: sum}
	v.started = true
	if rec.Seq == v.anchor.Seq && sum != v.anchor.Hash {
		return fmt.Sprintf("record at snapshot head seq %d hashes %.12s, snapshot recorded %.12s (divergent history)",
			rec.Seq, sum, v.anchor.Hash), rec.Seq
	}
	return "", 0
}

// replayStats summarizes one verified file.
type replayStats struct {
	Records     int
	First, Last uint64 // chain seq range delivered (0 when none)
}

// replayVerified reads the journal at path, CRC-checking every frame and
// verifying hash-chain continuity through v (which persists across files).
// fn, when non-nil, receives each intact record and the store delta it
// carries. A damaged tail with no intact record after it is a crash-torn
// write and ends replay silently; damage with intact records beyond it —
// and any chain violation — yields a *CorruptionError. A missing file
// yields zero records. A record is read in place (readRecord); one that
// frameRecord could not have written goes through encoding/json, whose
// verdicts on it are the ones replay has always given.
func replayVerified(path string, v *chainVerifier, fn func(rec Record, d storeDelta) error) (replayStats, error) {
	var stats replayStats
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return stats, nil
	}
	if err != nil {
		return stats, fmt.Errorf("journal: replay open: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var off int64
	for {
		bad := func(reason string) (replayStats, error) {
			// Damage. If any intact record follows it, this cannot be a
			// torn tail — a crash loses a suffix, never a middle.
			if !tailIsClean(r) {
				return stats, &CorruptionError{Path: path, Seq: v.head().Seq + 1, Offset: off, Reason: reason}
			}
			return stats, nil
		}
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return stats, nil // clean end of file
			}
			return bad("torn frame header")
		}
		size := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if size > maxFrameSize {
			return bad(fmt.Sprintf("implausible frame length %d", size))
		}
		buf := make([]byte, size)
		if _, err := io.ReadFull(r, buf); err != nil {
			return bad("torn frame payload")
		}
		if crc32.ChecksumIEEE(buf) != sum {
			return bad("frame CRC mismatch")
		}
		rec, d, inPlace := readRecord(buf)
		if !inPlace {
			rec = Record{}
			if err := json.Unmarshal(buf, &rec); err != nil {
				return bad(fmt.Sprintf("unparseable record: %v", err))
			}
		}
		if reason, badSeq := v.check(&rec, hashBody(buf)); reason != "" {
			return stats, &CorruptionError{Path: path, Seq: badSeq, Offset: off, Reason: reason}
		}
		if fn != nil {
			if !inPlace {
				d = storeDelta{}
				if err := json.Unmarshal(rec.Data, &d); err != nil {
					return stats, err
				}
			}
			if err := fn(rec, d); err != nil {
				return stats, err
			}
		}
		stats.Records++
		if stats.First == 0 {
			stats.First = rec.Seq
		}
		stats.Last = rec.Seq
		off += int64(8 + size)
	}
}

// maxFrameSize bounds one record frame; larger length headers are damage.
const maxFrameSize = 1 << 26

// tailIsClean reports whether the remaining bytes of r contain no intact
// frame — i.e. whether damage at the current position can be explained as
// a crash-torn tail. It scans every byte offset for a frame whose length
// is plausible and whose CRC verifies over a JSON-parseable record.
func tailIsClean(r *bufio.Reader) bool {
	rest, err := io.ReadAll(r)
	if err != nil {
		return true
	}
	for i := 0; i+8 <= len(rest); i++ {
		size := binary.LittleEndian.Uint32(rest[i : i+4])
		if size == 0 || size > maxFrameSize || i+8+int(size) > len(rest) {
			continue
		}
		body := rest[i+8 : i+8+int(size)]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(rest[i+4:i+8]) {
			continue
		}
		var rec Record
		if json.Unmarshal(body, &rec) == nil {
			return false
		}
	}
	return true
}

// SegmentReport describes one verified journal file.
type SegmentReport struct {
	// Path is the file's absolute or dir-relative path as verified.
	Path string `json:"path"`
	// Records is how many intact records the file holds.
	Records int `json:"records"`
	// First and Last bound the chain sequences in the file (0 when the
	// file is empty).
	First uint64 `json:"first,omitempty"`
	Last  uint64 `json:"last,omitempty"`
	// Err is the corruption found in this file, empty when intact.
	Err string `json:"err,omitempty"`
}

// DirReport is the end-to-end verification result for one store directory.
type DirReport struct {
	// Snapshot is the chain head recorded in the snapshot (zero when there
	// is no snapshot yet: the chain starts at genesis).
	Snapshot ChainState `json:"snapshot"`
	// Keys counts entries in the snapshot.
	Keys int `json:"keys"`
	// Segments lists every journal file in replay order.
	Segments []SegmentReport `json:"segments"`
	// Head is the verified chain head across snapshot plus segments.
	Head ChainState `json:"head"`
	// Quarantined lists *.quarantine files left by an earlier corrupted
	// recovery — evidence awaiting the operator.
	Quarantined []string `json:"quarantined,omitempty"`
}

// OK reports whether the directory's entire history verified.
func (r *DirReport) OK() bool {
	for _, s := range r.Segments {
		if s.Err != "" {
			return false
		}
	}
	return len(r.Quarantined) == 0
}

// VerifyDir proves a store directory's journal history end to end: the
// snapshot's chain anchor, every rotated segment, and the live journal
// must form one contiguous hash chain. It is read-only (safe against a
// live store for audit, though records appended mid-scan may appear torn)
// and returns both a per-file report and, when the history is damaged,
// the first *CorruptionError.
func VerifyDir(dir string) (*DirReport, error) {
	rep := &DirReport{}
	snapPath := filepath.Join(dir, storeSnapshotFile)
	chain, data, err := loadSnapshotFile(snapPath)
	if err != nil {
		return rep, err
	}
	rep.Snapshot, rep.Keys = chain, len(data)
	entries, _ := os.ReadDir(dir)
	var olds []int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), quarantineSuffix) {
			rep.Quarantined = append(rep.Quarantined, filepath.Join(dir, e.Name()))
		}
		if n, ok := oldSegmentNumber(e.Name()); ok {
			olds = append(olds, n)
		}
	}
	sort.Ints(olds)
	v := &chainVerifier{anchor: rep.Snapshot}
	// Replay order: rotated segments, then the live journal.
	var paths []string
	for _, n := range olds {
		paths = append(paths, filepath.Join(dir, fmt.Sprintf("%s%d", storeOldPrefix, n)))
	}
	paths = append(paths, filepath.Join(dir, storeJournalFile))
	var firstErr error
	for _, path := range paths {
		stats, err := replayVerified(path, v, nil)
		seg := SegmentReport{Path: path, Records: stats.Records, First: stats.First, Last: stats.Last}
		if err != nil {
			seg.Err = err.Error()
			firstErr = err
		}
		rep.Segments = append(rep.Segments, seg)
		if err != nil {
			break // the chain is broken; later files cannot be verified
		}
	}
	rep.Head = v.head()
	return rep, firstErr
}
