package journal

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Owner-partitioned journaling: a PartitionSet shards one logical store
// across independent Store directories so that one owner's write burst
// never serializes against another's. Each partition is a complete Store
// — its own snapshot, segment rotation, and hash chain — so recovery,
// compaction, and `condorg audit verify` all stay per-partition.
//
// Owners map to partitions by FNV-1a hash; the partition count is fixed
// at first open and persisted in a meta file, so reopening with a
// different configured count cannot strand records in unreachable
// buckets.

const (
	// partitionMetaFile pins the partition count a set was created with.
	partitionMetaFile = "partitions.json"
	// partitionDirPrefix names partition directories: p0, p1, ...
	partitionDirPrefix = "p"
	// DefaultPartitions is the partition count used when a PartitionSet
	// is opened with n <= 0.
	DefaultPartitions = 16
)

// PartitionSet is a set of per-owner-bucket Stores rooted at one
// directory. It is safe for concurrent use.
type PartitionSet struct {
	dir  string
	opts StoreOptions
	n    int

	mu       sync.Mutex
	parts    map[int]*Store // nil once closed
	syncRepl bool           // arm SyncReplication(syncWait) on every store
	syncWait time.Duration
}

type partitionMeta struct {
	N int `json:"n"`
}

// OpenPartitionSet opens (or creates) a partition set rooted at dir with
// n buckets (n <= 0 uses DefaultPartitions). Every partition directory
// that already exists is opened — and therefore chain-verified — eagerly
// and concurrently, so corruption in any bucket surfaces at open time
// exactly as it does for a single Store: the first damaged bucket's
// *CorruptionError is returned, that bucket alone is quarantined, and every
// store that did open is closed again. Buckets that have never been written
// are created lazily on first use.
func OpenPartitionSet(dir string, n int, opts StoreOptions) (*PartitionSet, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, err
	}
	if n <= 0 {
		n = DefaultPartitions
	}
	metaPath := filepath.Join(dir, partitionMetaFile)
	if raw, err := os.ReadFile(metaPath); err == nil {
		var meta partitionMeta
		if err := json.Unmarshal(raw, &meta); err != nil || meta.N <= 0 {
			return nil, fmt.Errorf("journal: bad partition meta %s: %v", metaPath, err)
		}
		n = meta.N // the on-disk layout wins over the configured count
	} else {
		// Fsynced and renamed: a torn pin would fail every later open.
		raw, _ := json.Marshal(partitionMeta{N: n})
		if err := WriteFileAtomic(metaPath, raw); err != nil {
			return nil, err
		}
	}
	ps := &PartitionSet{dir: dir, opts: opts, n: n, parts: make(map[int]*Store)}
	idxs := ps.existing()
	stores := make([]*Store, len(idxs))
	errs := make([]error, len(idxs))
	// The partitions share nothing, so they replay side by side: one
	// goroutine per bucket directory.
	var wg sync.WaitGroup
	for i, idx := range idxs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stores[i], errs[i] = OpenStoreOptions(ps.partitionDir(idx), opts)
		}()
	}
	wg.Wait()
	var first error
	for i, idx := range idxs {
		if stores[i] != nil {
			ps.parts[idx] = stores[i]
		}
		if first == nil {
			first = errs[i]
		}
	}
	if first != nil {
		ps.Close()
		return nil, first
	}
	return ps, nil
}

// PinnedPartitions returns the bucket count the set rooted at dir was
// created with, or 0 when dir holds no (readable) pin yet.
func PinnedPartitions(dir string) int {
	raw, _ := os.ReadFile(filepath.Join(dir, partitionMetaFile))
	var meta partitionMeta
	json.Unmarshal(raw, &meta)
	return meta.N
}

// existing lists the partition indexes that have directories on disk,
// including buckets beyond n left behind by an older, wider layout.
func (ps *PartitionSet) existing() []int {
	entries, err := os.ReadDir(ps.dir)
	if err != nil {
		return nil
	}
	var out []int
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		rest, ok := strings.CutPrefix(e.Name(), partitionDirPrefix)
		if !ok {
			continue
		}
		if idx, err := strconv.Atoi(rest); err == nil && idx >= 0 {
			out = append(out, idx)
		}
	}
	sort.Ints(out)
	return out
}

// partitionDir is bucket idx's store directory.
func (ps *PartitionSet) partitionDir(idx int) string {
	return filepath.Join(ps.dir, partitionDirPrefix+strconv.Itoa(idx))
}

// Partitions returns the bucket count new writes are hashed across.
func (ps *PartitionSet) Partitions() int { return ps.n }

// IndexFor returns the bucket index owner's records live in.
func (ps *PartitionSet) IndexFor(owner string) int {
	h := fnv.New32a()
	h.Write([]byte(owner))
	return int(h.Sum32() % uint32(ps.n))
}

// PartitionFor returns (opening or creating if needed) the Store backing
// owner's bucket.
func (ps *PartitionSet) PartitionFor(owner string) (*Store, error) {
	return ps.open(ps.IndexFor(owner))
}

// Partition returns (opening or creating if needed) the Store of bucket
// idx — how a replication stream addresses one chain of the set.
func (ps *PartitionSet) Partition(idx int) (*Store, error) {
	if idx < 0 || idx >= ps.n {
		return nil, fmt.Errorf("journal: partition %d out of range (the set has %d)", idx, ps.n)
	}
	return ps.open(idx)
}

func (ps *PartitionSet) open(idx int) (*Store, error) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if ps.parts == nil {
		return nil, errors.New("journal: partition set closed")
	}
	if st, ok := ps.parts[idx]; ok {
		return st, nil
	}
	st, err := OpenStoreOptions(ps.partitionDir(idx), ps.opts)
	if err != nil {
		return nil, err
	}
	if ps.syncRepl {
		st.SyncReplication(ps.syncWait)
	}
	ps.parts[idx] = st
	return st, nil
}

// SyncReplication enables synchronous mirroring (see Store.SyncReplication)
// on every partition: the ones open now and each one opened later.
func (ps *PartitionSet) SyncReplication(wait time.Duration) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	ps.syncRepl, ps.syncWait = true, wait
	for _, st := range ps.parts {
		st.SyncReplication(wait)
	}
}

// Stores returns the open partitions (after OpenPartitionSet, every
// partition with data on disk) in bucket order.
func (ps *PartitionSet) Stores() []*Store {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	idxs := make([]int, 0, len(ps.parts))
	for idx := range ps.parts {
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	stores := make([]*Store, len(idxs))
	for i, idx := range idxs {
		stores[i] = ps.parts[idx]
	}
	return stores
}

// Close closes every open partition, returning the first error. The set
// opens nothing afterwards.
func (ps *PartitionSet) Close() error {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	var first error
	for _, st := range ps.parts {
		if err := st.Close(); err != nil && first == nil {
			first = err
		}
	}
	ps.parts = nil
	return first
}

// PartitionDirs lists the partition store directories under dir (empty
// when dir is not a partition-set root) — the offline audit walks these
// the same way it walks a single queue store.
func PartitionDirs(dir string) []string {
	ps := PartitionSet{dir: dir}
	var out []string
	for _, idx := range ps.existing() {
		out = append(out, ps.partitionDir(idx))
	}
	return out
}
