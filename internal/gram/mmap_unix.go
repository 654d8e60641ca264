//go:build unix

package gram

import (
	"io"
	"os"
	"syscall"
)

// readOrMap returns the bytes of the file at path: mapped read-only and
// shared when it holds at least mapMin bytes, read onto the heap otherwise.
func readOrMap(path string, mapMin int) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() // a mapping outlives the descriptor
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := int(fi.Size())
	if size < mapMin {
		data := make([]byte, size)
		_, err := io.ReadFull(f, data)
		return data, err
	}
	return syscall.Mmap(int(f.Fd()), 0, size, syscall.PROT_READ, syscall.MAP_SHARED)
}

// unmapFile releases a mapping readOrMap returned.
func unmapFile(data []byte) error { return syscall.Munmap(data) }
