#!/bin/sh
# Static hygiene gate: formatting, vet, and the journal-corruption and
# frame-decoder fuzz corpora, run from the repo root. Used by the verify recipe and safe to
# run standalone; exits non-zero (with the offending files on stdout) on
# any violation.
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
# costs on the wire, and that GridManagers and JobManagers last as long as
# they are needed and no longer.
go test -race -count=1 -run 'TestSubmitLadderWarm|TestStageKnownStale|TestGridManagerRetiresAtProbePace|TestJobManagerExits' ./internal/condorg/
go test -race -count=1 -run 'TestWaitChange' ./internal/lrm/

# The one submit/recover/probe/cancel/refresh route: batch frames (a lone
# job is a batch of one) coalesce, settle exactly-once when torn, cancel
# through the gatekeeper without a JobManager, re-verify recovered jobs —
# pointing their JobManagers at the restarted agent — without one either,
# and re-delegate credentials through the gatekeeper past a dead JobManager
# and a partition, and past a site that lost the job; callbacks are matched
# to the job's gatekeeper.
go test -race -count=1 -run 'TestBatchedProbeSweepCoalescesRPCs|TestSubmitBurstCoalesces|TestMidBatchResetSettlesExactlyOnce|TestMigrationCancelRetriedUntilAcked|TestMigrationCancelNeedsNoJobManager|TestRecoveredJobCallsBack|TestRecoveryIsBatched|TestRefreshReachesJobWithDeadJobManager|TestRefreshWaitsOutPartition|TestRefreshToSiteThatLostTheJob|TestRefreshIsBatched|TestCallbackFromAnotherGatekeeperIgnored' ./internal/condorg/
go test -race -count=1 -run 'TestBatch' ./internal/gram/

# The staging data plane: bulk bytes as the frame's blob (codec edges, no
# negotiation, reply cache), the site cache's per-hash uploads and unique
# temp names, the LRM letting go of finished payloads, and the agent using
# its own spool without dialing it.
go test -race -count=1 -run 'TestCodecRoundTrip|TestBinaryDecodeTruncations|TestDecodedBlobAliasesFrame|TestWriteFrameCodecOversized|TestBlob' ./internal/wire/
go test -race -count=1 -run 'TestStageCachePutConcurrent|TestStageUploadsDoNotSerialize' ./internal/gram/
go test -race -count=1 -run 'TestLRMReleasesPayload' ./internal/lrm/
go test -race -count=1 -run 'TestAgentIssuesNoSelfRPC' ./internal/condorg/

# The multi-tenant API surface is public contract: every exported
# top-level identifier in the gateway, the wire substrate, the
# control-plane types, the agent's and standby's config surface (agent.go,
# standby.go, types.go), the journal, the glidein autoscaler, the
# credential manager, the GSI layer, GASS, the LRM and GRAM must carry a
# doc comment. (A grep-level check, so it stays dependency-free; grouped decl
# blocks are out of scope.)
doc_lint_files=$(ls internal/gateway/*.go internal/wire/*.go \
    internal/condorg/control.go internal/condorg/controlv1.go \
    internal/condorg/tenancy.go internal/condorg/agent.go \
    internal/condorg/standby.go internal/condorg/types.go \
    internal/journal/*.go internal/glidein/*.go \
    internal/credmgr/*.go internal/gsi/*.go internal/gass/*.go \
    internal/lrm/*.go internal/gram/*.go | grep -v _test.go)
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
# journal must either verify+open or be refused+quarantined — never a
# silent partial replay.
go test -run FuzzStoreReplay -count=1 ./internal/journal/
# And the FuzzDecodeMessage one: arbitrary bytes — truncated and overrun
# blob frames among the seeds — decode to a message or an error, never a
# panic.
go test -run FuzzDecodeMessage -count=1 ./internal/wire/
if [ -n "${CHECK_FUZZ_TIME:-}" ]; then
    go test -run FuzzStoreReplay -fuzz FuzzStoreReplay -fuzztime "$CHECK_FUZZ_TIME" ./internal/journal/
    go test -run FuzzDecodeMessage -fuzz FuzzDecodeMessage -fuzztime "$CHECK_FUZZ_TIME" ./internal/wire/
fi

echo "check.sh: gofmt + go vet + bench module + ladder, batch-route and staging-plane tests + fuzz corpora clean"
