// Package journal provides the "stable storage" that the Condor-G paper
// leans on for fault tolerance: the Schedd's persistent job queue, the
// GridManager's recovery state, and the GRAM client-side job log are all
// journaled through this package.
//
// A Journal is an append-only log of JSON records, each protected by a
// CRC32 so a torn final write (the classic crash signature) is detected
// and discarded on replay rather than corrupting recovery. A Store is a
// crash-safe persistent map built from a snapshot file plus a journal of
// deltas; snapshot compaction runs off the writers' lock so a large
// compact never stalls concurrent Puts.
//
// # Durability contract
//
// What is guaranteed once an append call (Journal.Append, Journal.AppendRaw,
// Journal.Commit, Store.Put, Store.Delete) has returned nil depends on the
// configured mode:
//
//   - Sync (Options.Sync / StoreOptions.Sync set): the record has been
//     written AND fsynced before the call returns. It survives both a
//     process crash and a host power failure. This holds in group-commit
//     mode too — group commit changes how many records share one fsync,
//     never whether an acknowledged record was covered by one.
//
//   - Async (the default): the record has been handed to the operating
//     system (write(2) completed) before the call returns. It survives a
//     process crash but may be lost in a host crash or power failure.
//
//   - Group commit (the default append path): concurrent appenders
//     coalesce. Each caller's record is framed and sequenced immediately
//     under the journal lock; the first caller to need durability becomes
//     the commit leader and writes (and, in Sync mode, fsyncs) every
//     record enqueued so far in a single batch, while later callers wait
//     for the leader to cover their sequence number. Options.GroupWindow
//     optionally makes the leader linger to admit more followers; the
//     natural batching window (the previous batch's write+fsync time) is
//     usually enough. Options.NoGroupCommit restores the historical
//     one-write-one-fsync-per-append behavior for comparison.
//
// In every mode, a record is either replayed intact or — when the crash
// tore it — discarded along with everything after it. Records never
// replay out of order, and an unacknowledged record may or may not
// survive (the classic write-ahead-log tail ambiguity); callers that need
// exactly-once semantics pair the journal with idempotent replay, as the
// agent does with submission IDs.
//
// # Hash chain and corruption semantics
//
// There is one on-disk format. Every record carries a sequence number
// and the SHA-256 of the previous record's framed body, making the whole
// history a verifiable hash chain anchored in the snapshot (which records
// the chain head it was folded at). Recovery distinguishes two kinds of
// damage:
//
//   - A torn tail — damage with no intact record after it — is the
//     expected crash signature: the tail is silently discarded.
//
//   - Mid-chain damage — a bad CRC with intact records after it, a
//     spliced or rewritten body (hash mismatch), a sequence gap, a
//     record with no chain sequence, or a snapshot with no chain anchor
//     — is evidence, not a crash artifact. Replay stops with a
//     *CorruptionError (faultclass Permanent) naming the file,
//     sequence, and offset; the Store
//     renames the damaged file to *.quarantine and refuses to open —
//     including on every subsequent attempt until the operator removes
//     the quarantined file. There is no silent partial replay.
//
// The Store bounds segment size (StoreOptions.SegmentMaxRecords /
// SegmentMaxBytes), rotating the live journal and folding sealed
// segments into the snapshot in the background; the chain threads
// unbroken through rotation, and the snapshot records the chain head it
// is valid at. VerifyDir proves a store directory's entire history
// offline (`condorg audit verify`), and the chain head is what the
// hot-standby replication stream (Store.StreamSince / ApplyReplica)
// uses to guarantee a follower's copy extends the primary's history.
//
// A PartitionSet shards one logical store across independent Stores by
// owner hash; each partition keeps its own snapshot, segments and chain,
// and a replication follower tails each partition's chain separately
// (PartitionSet.Partition, PartitionSet.SyncReplication).
package journal
