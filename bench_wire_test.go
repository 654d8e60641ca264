package benchmarks

// Wire-layer benchmark: what the batched probe verb saves over one status
// RPC per job. See EXPERIMENTS.md for recorded numbers.

import (
	"sync/atomic"
	"testing"

	"condorg/internal/gass"
	"condorg/internal/gram"
)

// BenchmarkProbeSweep measures the §4.2 failure-detector sweep over a
// site holding 1000 jobs: one status RPC per job (Client.Status, a
// jm.batch-status of one) pays 1000, the batched verb pays ceil(1000/32)
// gatekeeper RPCs.
// rpcs/sweep makes the fan-in explicit; ns/op is the sweep latency.
func BenchmarkProbeSweep(b *testing.B) {
	const nJobs = 1000
	const chunk = 32
	setup := func(b *testing.B) (*gram.Client, string, []gram.JobContact) {
		var runs atomic.Int64
		site := benchSite(b, "sweep", &runs, "", "")
		client := gram.NewClient(nil, nil)
		b.Cleanup(client.Close)
		gk := site.GatekeeperAddr()
		// Stage the linger stub once; all 1000 jobs share it.
		gs, err := gass.NewServer(mustTempDir(b, "sweep-gass"), gass.ServerOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { gs.Close() })
		gc := gass.NewClient(nil, nil)
		b.Cleanup(func() { gc.Close() })
		exeURL := gs.URLFor("bin/linger")
		if err := gc.WriteFile(exeURL, gram.Program("linger")); err != nil {
			b.Fatal(err)
		}
		exe := exeURL.String()
		var contacts []gram.JobContact
		for off := 0; off < nJobs; off += 100 {
			n := 100
			entries := make([]gram.BatchSubmitEntry, n)
			for i := range entries {
				entries[i] = gram.BatchSubmitEntry{
					Spec: gram.JobSpec{Executable: exe, Args: []string{"30m"}},
					Opts: gram.SubmitOptions{SubmissionID: gram.NewSubmissionID()},
				}
			}
			results, err := client.BatchSubmit(gk, entries)
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]string, n)
			for i, r := range results {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
				ids[i] = r.Contact.JobID
				contacts = append(contacts, r.Contact)
			}
			if _, err := client.BatchCommit(gk, ids, "", ""); err != nil {
				b.Fatal(err)
			}
		}
		return client, gk, contacts
	}

	b.Run("perjob", func(b *testing.B) {
		client, _, contacts := setup(b)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, contact := range contacts {
				if _, err := client.Status(contact); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(nJobs), "rpcs/sweep")
	})
	b.Run("batched", func(b *testing.B) {
		client, gk, contacts := setup(b)
		ids := make([]string, len(contacts))
		for i, c := range contacts {
			ids[i] = c.JobID
		}
		rpcs := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rpcs = 0
			for off := 0; off < len(ids); off += chunk {
				end := off + chunk
				if end > len(ids) {
					end = len(ids)
				}
				results, err := client.BatchStatus(gk, ids[off:end])
				if err != nil {
					b.Fatal(err)
				}
				rpcs++
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		}
		b.ReportMetric(float64(rpcs), "rpcs/sweep")
	})
}
