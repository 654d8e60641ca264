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
# runs. -short keeps the smoke to `interactive` + `recovery`: the full
# smoke's 1 s window does not fit `staging` on a 2-core box.
(cd bench && go vet ./... && go build ./... && go test -short -count=1 ./...)

# The submit ladder and the daemon lifetimes around it: what one warm job
# costs on the wire, and that GridManagers and JobManagers last as long as
# they are needed and no longer.
go test -race -count=1 -run 'TestSubmitLadderWarm|TestStageKnownStale|TestGridManagerRetiresAtProbePace|TestJobManagerExits' ./internal/condorg/
go test -race -count=1 -run 'TestWaitChange' ./internal/lrm/
go test -race -count=1 -run 'TestShutdownLetsRepliesOut' ./internal/wire/

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
# control-plane types, the glidein autoscaler, the credential manager,
# the GSI layer, GASS and the LRM must carry a doc comment. (A grep-level check, so it
# stays dependency-free; grouped decl blocks are out of scope.)
doc_lint_files=$(ls internal/gateway/*.go internal/wire/*.go \
    internal/condorg/control.go internal/condorg/controlv1.go \
    internal/condorg/tenancy.go internal/glidein/*.go \
    internal/credmgr/*.go internal/gsi/*.go internal/gass/*.go \
    internal/lrm/*.go | grep -v _test.go)
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

echo "check.sh: gofmt + go vet + bench module + ladder and staging-plane tests + fuzz corpora clean"
