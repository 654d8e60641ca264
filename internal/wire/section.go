package wire

import (
	"errors"
	"fmt"
	"io"
	"os"
)

// Section is a blob sent straight from a file: the N bytes at Off. The
// writer reads the file when the frame goes out, each attempt afresh, so
// the bytes are never on the caller's heap; where the platform can copy a
// file section into a socket itself (sendfile), they are never on the
// heap at all.
type Section struct {
	File *os.File
	Off  int64
	N    int64
}

// ErrShortSection reports a Section whose file ends before the section
// does. It is the sender's fault, not the peer's: no frame goes out when
// the file is short before the send, and a file that shrinks during one
// tears the frame and drops its connection, so a peer never takes a short
// blob for a whole one. A call that fails with it is not retried.
var ErrShortSection = errors.New("wire: file shorter than the section to send")

// check verifies that the whole section is in the file.
func (s *Section) check() error {
	fi, err := s.File.Stat()
	if err != nil {
		return err
	}
	if s.Off < 0 || s.N < 0 || fi.Size() < s.Off+s.N {
		return fmt.Errorf("%w: %s holds %d bytes, section [%d, %d)", ErrShortSection, s.File.Name(), fi.Size(), s.Off, s.Off+s.N)
	}
	return nil
}

// copySection writes the section to w through io.Copy: the path for a
// writer the kernel cannot copy into from a file.
func copySection(w io.Writer, s *Section) error {
	n, err := io.Copy(w, io.NewSectionReader(s.File, s.Off, s.N))
	if err == nil && n < s.N {
		err = fmt.Errorf("%w: %d of %d bytes sent", ErrShortSection, n, s.N)
	}
	return err
}
