package wire

import (
	"fmt"
	"io"
	"syscall"
)

// sendSection writes the section to w. Into a socket it is positional
// sendfile(2): the kernel copies the file's pages into the socket, and the
// file's own offset is left alone, so several sections of one open file
// may go out at once on different connections.
func sendSection(w io.Writer, s *Section) error {
	sc, ok := w.(syscall.Conn)
	if !ok {
		return copySection(w, s)
	}
	dst, err := sc.SyscallConn()
	if err != nil {
		return err
	}
	src, err := s.File.SyscallConn()
	if err != nil {
		return err
	}
	off, remain := s.Off, s.N
	var serr error
	cerr := src.Control(func(sfd uintptr) {
		werr := dst.Write(func(dfd uintptr) bool {
			for remain > 0 {
				n, err := syscall.Sendfile(int(dfd), int(sfd), &off, int(min(remain, 1<<30)))
				remain -= int64(max(n, 0))
				switch {
				case err == syscall.EAGAIN:
					return false // wait until the socket can take more
				case err == syscall.EINTR:
				case err != nil:
					serr = err
					return true
				case n == 0:
					serr = fmt.Errorf("%w: file ended %d bytes early", ErrShortSection, remain)
					return true
				}
			}
			return true
		})
		if serr == nil {
			serr = werr
		}
	})
	if cerr != nil {
		return cerr
	}
	return serr
}
