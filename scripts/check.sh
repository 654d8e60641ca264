#!/bin/sh
# Static hygiene gate: formatting, vet, and the journal-corruption,
# frame-decoder and append-log fuzz corpora, run from the repo root. Used
# by the verify recipe and safe to run standalone; exits non-zero (with
# the offending files on stdout) on any violation.
#
# Set CHECK_FUZZ_TIME (e.g. "30s") to also run a bounded randomized fuzz
# pass on top of the checked-in/seed corpus.
set -eu
cd "$(dirname "$0")/.."

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted"
    exit 1
fi

go vet ./...

# bench/ is a nested module (its own go.mod, `replace condorg => ../`), so
# the root `./...` never sees it: vet, build and smoke-test it here, or a
# change that breaks the repository benchmark stays invisible until it
# runs. -short keeps the smoke to `interactive` + `recovery` so the gate
# stays quick; every workload fits the full smoke's 1 s window (run all
# four with `cd bench && go test ./...`).
(cd bench && go vet ./... && go build ./... && go test -short -count=1 ./...)

# The submit ladder and the daemon lifetimes around it: what one warm job
# costs on the wire, that GridManagers and JobManagers last as long as
# they are needed and no longer, and that the connections they use outlive
# them: one gatekeeper session per credential, shared by owners' managers,
# which a credential switch never moves under another manager's call; a
# closed client fails its calls at once.
go test -race -count=1 -run 'TestSubmitLadderWarm|TestStageKnownStale|TestGridManagerRetiresAtProbePace|TestJobManagerExits|TestSessionOutlivesManager' ./internal/condorg/
go test -race -count=1 -run 'TestClosedClientFailsAtOnce' ./internal/wire/
go test -race -count=1 -run 'TestConnCache|TestSwitchLeavesOthersCallsOnTheirIdentity' ./internal/gram/
go test -race -count=1 -run 'TestWaitChange' ./internal/lrm/

# The one submit/recover/probe/cancel/refresh route: batch frames (a lone
# job is a batch of one) coalesce, settle exactly-once when torn, cancel
# through the gatekeeper without a JobManager — once, however a job is
# held and removed — re-verify recovered jobs — pointing their JobManagers
# at the restarted agent, and learning each job's state from the commit
# reply alone — without one either,
# and re-delegate credentials through the gatekeeper past a dead JobManager
# and a partition, and past a site that lost the job, and on to the output
# push of a job whose first proxy expired; callbacks are matched to the
# job's gatekeeper.
go test -race -count=1 -run 'TestBatchedProbeSweepCoalescesRPCs|TestSubmitBurstCoalesces|TestMidBatchResetSettlesExactlyOnce|TestMigrationCancelRetriedUntilAcked|TestMigrationCancelNeedsNoJobManager|TestRemoveHeldJobCancelsOnce|TestRecoveredJobCallsBack|TestRecoveryIsBatched|TestRecoveryFrameDecidesEachOutcome|TestRefreshReachesJobWithDeadJobManager|TestRefreshWaitsOutPartition|TestRefreshToSiteThatLostTheJob|TestRefreshIsBatched|TestRefreshedCredentialReachesOutputPush|TestCallbackFromAnotherGatekeeperIgnored' ./internal/condorg/
go test -race -count=1 -run 'TestBatch' ./internal/gram/

# The job journal: an admit image plus patches folds back to the record
# in memory (plainly, across compaction, across a standby takeover), and
# every record field patches; a fresh state directory is stamped with its
# format and one with no stamp or another is refused, by agent and
# standby alike; Submit acks only a journaled job, Wait and WaitAll report
# only a durable terminal state, a running job's lazy log line is in the
# user log at once, a line the user log refused is appended by the next
# write, a lost lazy write is re-derived, and a job costs a quarter of the bytes. Every
# kind of event reaches its views and bumps its counter once, and a
# record's events read back in place exactly as encoding/json reads them.
go test -race -count=1 -run 'TestSubmitFailsWhenAdmitWriteFails|TestWaitReturnsOnlyDurableTerminal|TestJournalFoldEquivalence|TestStateDirFormat|TestLazyLossReExecutes|TestJournalBytesPerJob|TestPersistClassesCarryEverything|TestFailedTerminalWriteLeavesJobUnsettled|TestUserLogShowsRunningJob|TestUserLogRetriesFailedAppend|TestEmitKinds|TestPatchCarriesEveryField|TestReadEventsMatchesUnmarshal' ./internal/condorg/

# The staging data plane: bulk bytes as the frame's blob (codec edges, no
# negotiation, reply cache), sent from a file section, and read on the
# server into reused buffers never handed out while their handler runs;
# the site cache's per-hash uploads and unique temp names, a push of up to
# 1 MiB in one chunk sent from the spool and committed by its last chunk
# (a StageChunk client's commit still promotes), corrupt bytes refused at
# the last chunk, a resume across a site restart verified, a short spool
# object failing the push without touching the breaker, a cache hit run
# on the mapped object (and the program name
# read without a copy), every mapping released however its job ends, the
# LRM letting go of finished payloads, and the agent using
# its own spool without dialing it: one content-addressed object per
# payload, written once however many submits race on it, replicated keys
# released only by the last job naming them, and one user log per owner
# across restarts. A job's output creates no file: it is a stream of the
# GASS append log, never appended to a file on disk, and a site's
# JobManagers and stage-in pulls share one callback and one GASS connection
# that outlast a lull; a pull's reset leaves the shared GASS client open.
go test -race -count=1 -run 'TestCodecRoundTrip|TestBinaryDecodeTruncations|TestDecodedBlobAliasesFrame|TestWriteFrameCodecOversized|TestBlob|TestBigFrameBufferHeldByItsHandler|TestCallSection' ./internal/wire/
go test -race -count=1 -run 'TestStageCachePutConcurrent|TestStageUploadsDoNotSerialize|TestStageOneWindow|TestStageInHitDoesNotCopy|TestStagePushStreamsFromSpool|TestStageMappingReleased|TestProgramNameDoesNotCopy|TestPullResetSparesSharedPush|TestStagePushCommitsWithLastChunk|TestStageCorruptBytesFailLastChunk|TestStageShortSpoolFailsPush|TestStageProbePatternPromotes|TestStageResumeAcrossSiteRestart|TestStageShortSectionSparesBreaker' ./internal/gram/ ./internal/condorg/
go test -race -count=1 -run 'TestLRMReleasesPayload' ./internal/lrm/
go test -race -count=1 -run 'TestAgentIssuesNoSelfRPC|TestSubmitCreatesNoPerJobFiles|TestSharedSpoolSurvivesFinishUnderHA|TestOnDiskUserLog|TestCallbacksShareOneConnection' ./internal/condorg/

# The multi-tenant API surface is public contract: every exported
# top-level identifier in the gateway, the wire substrate, the
# control-plane types, the agent's and standby's config surface (agent.go,
# standby.go, types.go), the job event stream (events.go), the journal and
# its in-place JSON readers (jsonscan), the glidein autoscaler, the credential manager, the GSI layer, GASS, the
# LRM and GRAM must carry a doc comment. (A grep-level check, so it stays dependency-free; grouped decl
# blocks are out of scope.)
doc_lint_files=$(ls internal/gateway/*.go internal/wire/*.go \
    internal/condorg/control.go internal/condorg/controlv1.go \
    internal/condorg/tenancy.go internal/condorg/agent.go \
    internal/condorg/standby.go internal/condorg/types.go \
    internal/condorg/events.go \
    internal/journal/*.go internal/glidein/*.go \
    internal/credmgr/*.go internal/gsi/*.go internal/gass/*.go \
    internal/lrm/*.go internal/gram/*.go internal/jsonscan/*.go | grep -v _test.go)
undocumented=$(awk '
    (/^(func|type|var|const) [A-Z]/ || /^func \([^)]*\) [A-Z]/) && prev !~ /^\/\// {
        printf "%s:%d: exported declaration without doc comment: %s\n", FILENAME, FNR, $0
    }
    { prev = $0 }
' $doc_lint_files)
if [ -n "$undocumented" ]; then
    echo "doc lint: exported identifiers without doc comments:" >&2
    echo "$undocumented"
    exit 1
fi

# Replay the FuzzStoreReplay seed corpus: every mutation of a chained
# journal — set/patch/del interleavings and a torn patch tail among the
# seeds — must either verify+open or be refused+quarantined, never a
# silent partial replay.
go test -run FuzzStoreReplay -count=1 ./internal/journal/
# And the patch record beside it: replay, snapshots, lazy writes, the
# replication stream, delta framing byte-identical to encoding/json, the
# in-place record reader decoding exactly what encoding/json decodes and
# refusing a value that is not JSON however sound its frame and chain,
# and partitions that open side by side failing, quarantining and closing
# as one store would; the readers under it match encoding/json too.
go test -count=1 -run 'TestStorePatchReplay|TestStoreLazyWriteRidesNextCommit|TestStreamReplicatesPatches|TestFrameDeltaMatchesMarshal|TestReadRecordMatchesUnmarshal|TestInvalidValueRefused|TestOpenPartitionSetCorruptPartition' ./internal/journal/
go test -count=1 ./internal/jsonscan/
# And the FuzzDecodeMessage one: arbitrary bytes — truncated and overrun
# blob frames among the seeds — decode to a message or an error, never a
# panic.
go test -run FuzzDecodeMessage -count=1 ./internal/wire/
# And the FuzzAppendLog one: arbitrary bytes as a GASS append log open
# without a panic, index only extents inside the file, reopen to the same
# streams and take an append that reads back.
go test -run FuzzAppendLog -count=1 ./internal/gass/
if [ -n "${CHECK_FUZZ_TIME:-}" ]; then
    go test -run FuzzStoreReplay -fuzz FuzzStoreReplay -fuzztime "$CHECK_FUZZ_TIME" ./internal/journal/
    go test -run FuzzMembers -fuzz FuzzMembers -fuzztime "$CHECK_FUZZ_TIME" ./internal/jsonscan/
    go test -run FuzzDecodeMessage -fuzz FuzzDecodeMessage -fuzztime "$CHECK_FUZZ_TIME" ./internal/wire/
    go test -run FuzzAppendLog -fuzz FuzzAppendLog -fuzztime "$CHECK_FUZZ_TIME" ./internal/gass/
fi

echo "check.sh: gofmt + go vet + bench module + ladder, batch-route and staging-plane tests + fuzz corpora clean"
