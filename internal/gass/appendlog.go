package gass

// The append log: every gass.append a Server takes is one framed record in
// a single append-only file under its root, so a stream costs the server no
// file of its own. See the package doc for the read rule.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// appendLogName is the log's file name under the served root. resolve
// refuses it, so no peer reads every stream through one path.
const appendLogName = "append.log"

// A record is crc32c | path len | data len | path | data; the checksum
// covers everything after itself. Integers are little-endian.
const (
	recHeader  = 4 + 2 + 4
	maxPathLen = 1<<16 - 1
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// extent is one record's data: n bytes at off in the log file.
type extent struct{ off, n int64 }

// stream is one path's appended bytes, in order.
type stream struct {
	size    int64
	extents []extent
}

// appendLog is the open log file and the index of the streams it holds.
// The Server's mutex guards it; reads of a snapshot of a stream's extents
// need no lock.
type appendLog struct {
	f       *os.File
	end     int64
	streams map[string]*stream
}

// logRec is a record found by openAppendLog's walk.
type logRec struct {
	key string
	at  int64 // the record's offset
	ext extent
}

// openAppendLog opens (creating) the log at path and indexes it with one
// walk over the record headers. A torn tail — a header or body cut short,
// a path no request could have named — is cut off, and so is a last record
// whose checksum fails, the way the journal treats a torn tail: appends are
// not fsynced, so a crash may leave either behind.
func openAppendLog(path string) (*appendLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o600)
	if err != nil {
		return nil, err
	}
	recs, end, err := walkRecords(f)
	// Dropping a failed last record makes the one before it last, so it is
	// checked in turn: a second open then finds what the first kept.
	for err == nil && len(recs) > 0 && !checkRecord(f, recs[len(recs)-1]) {
		end = recs[len(recs)-1].at
		recs = recs[:len(recs)-1]
	}
	if err == nil {
		err = truncateTail(f, end)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("gass: append log: %w", err)
	}
	l := &appendLog{f: f, end: end, streams: make(map[string]*stream)}
	for _, r := range recs {
		st := l.streams[r.key]
		if st == nil {
			st = &stream{}
			l.streams[r.key] = st
		}
		st.add(r.ext)
	}
	return l, nil
}

// walkRecords reads the log's record headers and paths, skipping the data,
// and returns the whole records and where the last one ends.
func walkRecords(f *os.File) (recs []logRec, end int64, err error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	size := fi.Size()
	r := bufio.NewReaderSize(io.NewSectionReader(f, 0, size), 64<<10)
	var hdr [recHeader]byte
	for size-end >= recHeader {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil, 0, err
		}
		pl := int64(binary.LittleEndian.Uint16(hdr[4:]))
		dl := int64(binary.LittleEndian.Uint32(hdr[6:]))
		dataAt := end + recHeader + pl
		if dataAt+dl > size {
			break
		}
		p := make([]byte, pl)
		if _, err := io.ReadFull(r, p); err != nil {
			return nil, 0, err
		}
		key := string(p)
		if k, err := clean(key); err != nil || k != key || key == "" {
			break
		}
		if dl <= int64(r.Buffered()) {
			r.Discard(int(dl))
		} else {
			r.Reset(io.NewSectionReader(f, dataAt+dl, size-dataAt-dl))
		}
		recs = append(recs, logRec{key: key, at: end, ext: extent{dataAt, dl}})
		end = dataAt + dl
	}
	return recs, end, nil
}

// checkRecord reports whether r's checksum matches its bytes.
func checkRecord(f *os.File, r logRec) bool {
	b := make([]byte, r.ext.off+r.ext.n-r.at)
	if _, err := f.ReadAt(b, r.at); err != nil {
		return false
	}
	return binary.LittleEndian.Uint32(b) == crc32.Checksum(b[4:], castagnoli)
}

// truncateTail cuts the file back to end when anything lies past it.
func truncateTail(f *os.File, end int64) error {
	fi, err := f.Stat()
	if err != nil || fi.Size() == end {
		return err
	}
	return f.Truncate(end)
}

// add appends one record's extent to the stream.
func (st *stream) add(e extent) {
	if e.n > 0 {
		st.extents = append(st.extents, e)
		st.size += e.n
	}
}

// append writes data to key's stream st as one record, then indexes it
// (adding st to the index if it is new). A failed write leaves the log as
// it was.
func (l *appendLog) append(key string, st *stream, data []byte) error {
	if len(key) > maxPathLen || int64(len(data)) > 1<<32-1 {
		return fmt.Errorf("gass: append of %d bytes to a %d-byte path is too large", len(data), len(key))
	}
	b := make([]byte, recHeader, recHeader+len(key)+len(data))
	binary.LittleEndian.PutUint16(b[4:], uint16(len(key)))
	binary.LittleEndian.PutUint32(b[6:], uint32(len(data)))
	b = append(append(b, key...), data...)
	binary.LittleEndian.PutUint32(b, crc32.Checksum(b[4:], castagnoli))
	if _, err := l.f.WriteAt(b, l.end); err != nil {
		// Best effort: a partial record past end would otherwise sit
		// behind a shorter next record until the next open cuts it off.
		_ = l.f.Truncate(l.end)
		return err
	}
	st.add(extent{l.end + int64(recHeader+len(key)), int64(len(data))})
	l.end += int64(len(b))
	l.streams[key] = st
	return nil
}

// readAt fills p from the concatenation of exts, starting at off within it.
func (l *appendLog) readAt(exts []extent, p []byte, off int64) error {
	for _, e := range exts {
		if len(p) == 0 {
			return nil
		}
		if off >= e.n {
			off -= e.n
			continue
		}
		k := min(int64(len(p)), e.n-off)
		if _, err := l.f.ReadAt(p[:k], e.off+off); err != nil {
			return err
		}
		p, off = p[k:], 0
	}
	return nil
}
