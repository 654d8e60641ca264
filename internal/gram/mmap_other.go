//go:build !unix

package gram

import "os"

// readOrMap reads the file at path: without mmap every object is a heap copy.
func readOrMap(path string, _ int) ([]byte, error) { return os.ReadFile(path) }

// unmapFile has nothing to release for a heap copy.
func unmapFile([]byte) error { return nil }
