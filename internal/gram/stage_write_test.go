package gram

// write lands a chunk of an object whose size the sender did not say, as
// gram.stage-chunk does for a StageChunk: the upload ends with commit.
func (c *stageCache) write(hash string, off int64, data []byte) (int64, error) {
	return c.writeChunk(hash, off, 0, data)
}
