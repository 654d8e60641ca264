//go:build !linux

package wire

import "io"

// sendSection writes the section to w through a copy buffer.
func sendSection(w io.Writer, s *Section) error { return copySection(w, s) }
