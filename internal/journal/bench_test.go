package journal

import (
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
)

func BenchmarkAppend(b *testing.B) {
	j, err := Open(filepath.Join(b.TempDir(), "bench.log"), Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	rec := map[string]any{"id": "job-123", "state": "running", "site": "wisc", "resubmits": 2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append("job", rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendSync(b *testing.B) {
	j, err := Open(filepath.Join(b.TempDir(), "bench.log"), Options{Sync: true})
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	rec := map[string]any{"id": "job-123", "state": "running"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append("job", rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReplay1000(b *testing.B) {
	path := filepath.Join(b.TempDir(), "bench.log")
	j, _ := Open(path, Options{})
	for i := 0; i < 1000; i++ {
		j.Append("job", map[string]int{"n": i})
	}
	j.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n, err := Replay(path, func(Record) error { return nil })
		if err != nil || n != 1000 {
			b.Fatalf("n=%d err=%v", n, err)
		}
	}
}

func BenchmarkStorePut(b *testing.B) {
	s, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i%64), i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecoveryReplay measures crash recovery of a store whose live
// journal holds one million deltas — the paper's "scheduler crashes are a
// fact of life" scale test — hash-chain verification (SHA-256 per record)
// included.
func BenchmarkRecoveryReplay(b *testing.B) {
	const records = 1 << 20
	dir := b.TempDir()
	// Build the journal directly (the store would rotate and fold it
	// into the snapshot long before a million records accumulate).
	j, err := Open(filepath.Join(dir, storeJournalFile), Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < records; i++ {
		d := storeDelta{Key: fmt.Sprintf("job-%06d", i%100000),
			Value: []byte(fmt.Sprintf(`{"n":%d,"s":"running"}`, i))}
		if err := j.Append(recSet, d); err != nil {
			b.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != 100000 {
			b.Fatalf("recovered %d keys", s.Len())
		}
		b.StopTimer()
		if err := s.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkStorePutDurableParallel isolates the group-commit win: many
// goroutines issue durable (fsynced) Puts concurrently. With group commit
// the batch shares one fsync; without it every delta pays its own.
func BenchmarkStorePutDurableParallel(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts StoreOptions
	}{
		{"nogroup", StoreOptions{Sync: true, NoGroupCommit: true}},
		{"group", StoreOptions{Sync: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			s, err := OpenStoreOptions(b.TempDir(), mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var ctr atomic.Int64
			b.SetParallelism(8)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := ctr.Add(1)
					if err := s.Put(fmt.Sprintf("k%d", i%64), i); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "puts/s")
		})
	}
}
