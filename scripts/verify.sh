#!/bin/sh
# Full verification: build, vet, a gofmt check, race-enabled tests
# (the VM package first, then the whole tree), the quickened-vs-
# reference differential step, the engine byte-identity, golden,
# overlapped-analysis and cancellation tests at GOMAXPROCS 1, 2 and 4,
# the apk tests (with the Pack-vs-archive/zip differential) at
# GOMAXPROCS 1, 2 and 4, one iteration of each root benchmark and of the apk
# Sign+Pack benchmark, vet and short tests of the cmd/benchrun module,
# and 20s fuzzes of the dex decoder, the quickened interpreter, the apk
# archive reader and writer, the similarity index, the Event JSON
# codec, the report-body decoder, the checkpoint decoder, the WAL
# segment framing and the fingerprint WAL record decoder. Tier-1 (ROADMAP.md) is `go build ./... &&
# go test ./...`; this script is the stricter gate on top of it. The
# end-to-end CLI and market proofs (batch protection and cancellation,
# daemon SIGTERM/SIGKILL recovery, timelines, fingerprints, the
# federated router) are Go tests that tier-1 already runs.
set -eu
cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
test -z "$(gofmt -l .)" || {
	echo "verify: gofmt wants to reformat:" >&2
	gofmt -l . >&2
	exit 1
}

echo "==> go test -race ./internal/vm/..."
# The quickened interpreter shares mutable state (frame arena, statics
# slots, the global image cache) across sessions; run the VM package
# first and under the race detector so a data race in the hot loop
# fails fast, before the long whole-tree pass.
go test -race ./internal/vm/...

echo "==> differential smoke: quickened vs reference interpreter"
# The differential harness replays the corpus sample, the payload
# suite, malformed files, and random code on both interpreter paths
# and asserts byte-identical results, traces, fault ledgers, and obs
# counters. Corpus, payload, env-read, random code and the budget sweep
# run three ways: watched (obs + trace, which sends the quickened VM to
# the reference interpreter, as the debugger's VM is), obs only (the
# quickened loop's per-run tallies, as instrumented campaigns run) and
# bare (neither, as plain campaigns and the benchmark run); malformed
# files run with obs on. -count=1 defeats the test cache so the smoke
# always re-executes.
go test -run 'TestDifferential' -count=1 ./internal/vm

echo "==> engine byte identity and goldens at -cpu 1,2,4"
# Construct seals bomb payloads on GOMAXPROCS goroutines, and a cold
# run analyses methods on a goroutine beside the profile VM; the
# protected bytes must not depend on how many CPUs share that work, and
# no goroutine may outlive a cancelled run, and a run cancelled while
# it profiles stores no profile. The core tests build fresh engines
# each time, so one process runs all three counts. exp.PrepareCtx
# caches per process, so its golden test gets one process per count.
go test -run '^(TestEngineGoldenDigests|TestEngineBytesIdenticalAcrossGOMAXPROCS|TestEngineWarmCacheByteIdentical|TestEngineConcurrentReseedsShareAnalysis|TestOverlappedAnalysisMatchesInline|TestEngineCancelMidProfile|TestEngineCancelMidProfileStoresNoProfile|TestEngineResultHitDecodesBuiltBytes)$' \
	-cpu 1,2,4 -count=1 ./internal/core
for cpu in 1 2 4; do
	go test -run '^TestProtectedOutputGoldenDigests$' -cpu "$cpu" -count=1 ./internal/exp
done

echo "==> apk tests, with the Pack vs archive/zip differential, at -cpu 1,2,4"
# Sign of an engine build deflates its content entries on two
# goroutines beside the signature, and Pack joins them. Pack's bytes
# must equal those of its old archive/zip Create body, kept in the test
# file as the oracle, for protected corpus apps (shipping and unmarked)
# and for edits made after Sign, however many CPUs share the work; and
# no goroutine may outlive its deflate.
go test -cpu 1,2,4 -count=1 ./internal/apk

echo "==> go test -race ./..."
go test -race ./...

echo "==> root benchmarks, one iteration each"
# Tier-1 only compiles them. One iteration runs each benchmark's own
# checks: the warm engine must hit the cache, InvokeObs must record
# invokes, and ReportIngestion must deliver every event exactly once.
go test -run '^$' -bench . -benchtime 1x .

echo "==> apk Sign+Pack benchmark, one iteration"
# Sign then Pack of a protected app, shipping and unmarked: the apk
# layer of a protect op without benchrun. One iteration checks that it
# builds and that the protected dex is still protected-size.
go test -run '^$' -bench '^BenchmarkSignPack$' -benchtime 1x ./internal/apk

echo "==> benchmark module: go vet + go test -short (cmd/benchrun)"
# cmd/benchrun is its own module, so ./... above never compiles it,
# yet it drives the core, exp, sim and market APIs end to end.
(cd cmd/benchrun && go vet ./... && go test -short .)

echo "==> fuzz: dex decoder, decode/re-encode fixed point (20s)"
# Whatever decodes must re-encode to bytes that decode and re-encode to
# themselves, with equal strings, blobs and field initialisers; no
# count may size an allocation past the input.
go test -run '^$' -fuzz FuzzDecode -fuzztime 20s ./internal/dex

echo "==> fuzz: quickened interpreter on unvalidated code (20s)"
# Every method of whatever decodes runs, without dex.Validate, with and
# without fail-closed: faults must come back as errors, never panics.
# Minimizing caps at 5s, since a failing input is a whole dex file.
go test -run '^$' -fuzz FuzzExec -fuzztime 20s -fuzzminimizetime 5s ./internal/vm

echo "==> fuzz: apk archive reader, unpack/pack fixed point (20s)"
# Every archive is refused or unpacks to a package whose packed bytes
# unpack and pack to themselves; no entry decompresses past its cap.
# Each new input is a whole zip, so minimizing one caps at 2s.
go test -run '^$' -fuzz FuzzUnpack -fuzztime 20s -fuzzminimizetime 2s ./internal/apk

echo "==> fuzz: Pack vs archive/zip over random content (20s)"
# Empty, nil, incompressible and repetitive dex bytes, non-ASCII
# strings and authors, a nil certificate, shipping and unmarked
# packages, edits after Sign: Pack must write archive/zip's bytes.
# Minimizing a new input of six arguments with a many-KB dex would
# otherwise take the whole budget, so each minimization caps at 2s.
go test -run '^$' -fuzz FuzzPack -fuzztime 20s -fuzzminimizetime 2s ./internal/apk

echo "==> fuzz: similarity index vs a string merge-join oracle (20s)"
# Random Set/replace/Delete/Rank sequences against the interned-id
# index: rankings must equal the oracle bit for bit and id churn must
# never leak ids. New failing inputs land in testdata/fuzz.
go test -run '^$' -fuzz FuzzIndexRank -fuzztime 20s ./internal/market/similarity

echo "==> fuzz: Event JSON codec vs encoding/json (20s)"
# AppendJSON must write json.Marshal's bytes for any field values, and
# whatever the canonical parser accepts must equal json.Unmarshal and
# end where json.Decoder ends.
go test -run '^$' -fuzz FuzzEventJSON -fuzztime 20s ./internal/report

echo "==> fuzz: ReadReports vs the encoding/json-only decode (20s)"
# Plain, gzip and truncated gzip bodies, small batch caps and small
# reads: events, status code and error text must match the oracle.
go test -run '^$' -fuzz FuzzReadReports -fuzztime 20s ./internal/market

echo "==> fuzz: checkpoint decoder, decode/re-encode round trip (20s)"
# Whole files and CRC-sealed bodies: every input is errBadCheckpoint or
# decodes, re-encodes and decodes to the same state; no count may size
# an allocation past the input. Minimizing a new input tries every
# byte range, which for a several-hundred-byte checkpoint would eat the
# whole budget, so each minimization is capped at 2s.
go test -run '^$' -fuzz FuzzDecodeCheckpoint -fuzztime 20s -fuzzminimizetime 2s ./internal/market

echo "==> fuzz: WAL segment framing vs a reference parse (20s)"
# Random segment bytes, replayed as the last segment and as a sealed
# one: the records up to the first bad one, then a truncated torn tail
# or an error; no declared length sizes an allocation past the file.
go test -run '^$' -fuzz FuzzReplaySegment -fuzztime 20s ./internal/market

echo "==> fuzz: fingerprint WAL record, decode/re-encode round trip (20s)"
# Any tag-prefixed record is refused or decodes to a fingerprint whose
# record decodes back to it; a canonical fingerprint within the entry
# cap round-trips exactly. Seeded with a record a store wrote. Without
# a cap, minimizing one new input stalled a 70s run for up to 25s, so
# each minimization caps at 2s.
go test -run '^$' -fuzz '^FuzzDecodeFingerprint$' -fuzztime 20s -fuzzminimizetime 2s ./internal/market

echo "verify: OK"
