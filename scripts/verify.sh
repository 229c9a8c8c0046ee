#!/bin/sh
# Full verification: build, vet, race-enabled tests (the metrics-path
# packages run with the obs layer exercised by their own tests), a
# gofmt check, vet and short tests of the cmd/benchrun module, 20s
# fuzzes of the similarity index, the Event JSON codec and the
# report-body decoder, a smoke run of cmd/report -metrics
# proving the JSON snapshot parses, batch-protection smokes, a marketd
# lifecycle smoke (ingest, SIGTERM, restart-replay), a verdict-timeline
# smoke (campaign → monotone timeline coherent with /verdict,
# byte-identical across restart), a marketd crash smoke (kill -9
# mid-hose, checkpointed recovery, no acked event lost), and a
# fingerprint smoke (batch-protected corpus → fingerprint upload →
# similarity query → fused verdict, byte-identical across restart and
# on the federated router). Tier-1 (ROADMAP.md) is `go build ./... &&
# go test ./...`; this script is the stricter gate the chaos-hardening,
# obs, and market-ingestion work is held to.
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
# counters; corpus, payload and random code run both watched (obs +
# trace) and bare (neither, as campaigns and the benchmark run). -count=1 defeats the test cache so the smoke always
# re-executes.
go test -run 'TestDifferential' -count=1 ./internal/vm

echo "==> go test -race ./..."
go test -race ./...

echo "==> benchmark module: go vet + go test -short (cmd/benchrun)"
# cmd/benchrun is its own module, so ./... above never compiles it,
# yet it drives the core, exp, sim and market APIs end to end.
(cd cmd/benchrun && go vet ./... && go test -short .)

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

echo "==> smoke: cmd/report -metrics"
# writeMetrics round-trips the file through json.Unmarshal before the
# command exits 0, so a successful run already proves the snapshot
# parses; the grep pins that the layers actually reported in.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
go run ./cmd/report -table 3 -metrics "$SMOKE_DIR/metrics.json" > /dev/null
for key in sim_sessions_total exp_pool_tasks_total sim_trigger_latency_ms vm_op_total; do
	grep -q "$key" "$SMOKE_DIR/metrics.json" || {
		echo "verify: metrics snapshot missing $key" >&2
		exit 1
	}
done

echo "==> smoke: cmd/bombdroid -batch over a 5-app corpus"
CORPUS="$SMOKE_DIR/corpus"
mkdir -p "$CORPUS"
for name in AndroFish Angulo SWJournal Calendar CatLog; do
	go run ./cmd/apkgen -name "$name" -keyseed 1 -out "$CORPUS/$name.apk"
done
go run ./cmd/bombdroid -batch "$CORPUS" -outdir "$SMOKE_DIR/protected" \
	-manifest "$SMOKE_DIR/manifest.json" -keyseed 1 -profile-events 800 > /dev/null
ok_count="$(grep -c '"status": "ok"' "$SMOKE_DIR/manifest.json")"
[ "$ok_count" -eq 5 ] || {
	echo "verify: batch manifest reports $ok_count ok apps, want 5" >&2
	exit 1
}
ls "$SMOKE_DIR"/protected/*.prot.apk > /dev/null

echo "==> smoke: cmd/bombdroid -batch mid-run SIGINT"
# Build once so the signal hits the tool, not `go run`'s wrapper, and
# profile at a scale slow enough (8 apps x 10k events, serial) that
# the interrupt lands mid-corpus. The tool must exit promptly on its
# own and still leave a valid manifest of whatever finished.
go build -o "$SMOKE_DIR/bombdroid" ./cmd/bombdroid
for name in BRouter "Hash Droid" "Binaural Beat"; do
	go run ./cmd/apkgen -name "$name" -keyseed 1 -out "$CORPUS/$name.apk"
done
rm -f "$SMOKE_DIR/manifest.json"
"$SMOKE_DIR/bombdroid" -batch "$CORPUS" -outdir "$SMOKE_DIR/protected" \
	-manifest "$SMOKE_DIR/manifest.json" -keyseed 1 -workers 1 > /dev/null 2>&1 &
BATCH_PID=$!
sleep 2
kill -INT "$BATCH_PID" 2>/dev/null || true
wait "$BATCH_PID" && : || true
[ -f "$SMOKE_DIR/manifest.json" ] || {
	echo "verify: interrupted batch left no manifest" >&2
	exit 1
}
# The partial manifest must be valid JSON naming every corpus member.
go run ./scripts/checkmanifest "$SMOKE_DIR/manifest.json" 8

echo "==> smoke: marketd ingest, SIGTERM, restart replay"
# Start the daemon on an ephemeral port, fire a loadgen batch at it,
# check the verdict and metrics surfaces, SIGTERM it (must seal the
# WAL and report a clean shutdown), then restart over the same data
# dir: the replayed daemon must report every accepted record recovered
# and serve a byte-identical verdict.
MARKET_DATA="$SMOKE_DIR/marketd-data"
go build -o "$SMOKE_DIR/marketd" ./cmd/marketd
go build -o "$SMOKE_DIR/loadgen" ./cmd/loadgen

start_marketd() {
	"$SMOKE_DIR/marketd" -addr 127.0.0.1:0 -data "$MARKET_DATA" \
		-shards 2 -threshold 3 > "$1" 2>&1 &
	MARKETD_PID=$!
	for _ in $(seq 1 100); do
		grep -q 'listening on' "$1" 2>/dev/null && break
		sleep 0.1
	done
	MARKET_ADDR="$(sed -n 's/^marketd: listening on //p' "$1")"
	[ -n "$MARKET_ADDR" ] || {
		echo "verify: marketd never bound:" >&2
		cat "$1" >&2
		exit 1
	}
}

start_marketd "$SMOKE_DIR/marketd1.log"
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -events 5000 -batch 250 \
	-workers 2 -run verify > "$SMOKE_DIR/loadgen.json"
grep -q '"accepted": 5000' "$SMOKE_DIR/loadgen.json" || {
	echo "verify: loadgen did not land 5000 accepted events:" >&2
	cat "$SMOKE_DIR/loadgen.json" >&2
	exit 1
}
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -verdict app-0 > "$SMOKE_DIR/verdict1.json"
grep -q '"flagged":true' "$SMOKE_DIR/verdict1.json" || {
	echo "verify: app-0 not flagged after the hose" >&2
	exit 1
}
for fam in market_ingest_events_total market_wal_records_total \
	market_http_requests_total market_commit_batches_total; do
	curl -sf "http://$MARKET_ADDR/metrics" | grep -q "$fam" || {
		echo "verify: marketd /metrics missing $fam" >&2
		exit 1
	}
done
kill -TERM "$MARKETD_PID"
wait "$MARKETD_PID"
grep -q 'clean shutdown' "$SMOKE_DIR/marketd1.log" || {
	echo "verify: marketd did not shut down cleanly:" >&2
	cat "$SMOKE_DIR/marketd1.log" >&2
	exit 1
}

start_marketd "$SMOKE_DIR/marketd2.log"
grep -q 'recovered 5000 records' "$SMOKE_DIR/marketd2.log" || {
	echo "verify: restart did not replay all accepted records:" >&2
	cat "$SMOKE_DIR/marketd2.log" >&2
	exit 1
}
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -verdict app-0 > "$SMOKE_DIR/verdict2.json"
diff "$SMOKE_DIR/verdict1.json" "$SMOKE_DIR/verdict2.json" || {
	echo "verify: verdict changed across restart" >&2
	exit 1
}
kill -TERM "$MARKETD_PID"
wait "$MARKETD_PID"

echo "==> smoke: campaign → verdict timeline, restart replays it byte-identical"
# A short detonation campaign against a fresh daemon, then the
# timeline surface: GET /v1/apps/{app}/timeline must be monotone
# (event times sorted, cumulative counts strictly increasing), its
# structural entries must sit where the store promises them, and its
# final entry must agree with GET /v1/apps/{app}/verdict
# (checktimeline holds all of that). A SIGTERM restart over the same
# data dir must then replay to a byte-identical timeline.
MARKET_DATA="$SMOKE_DIR/marketd-timeline-data"
start_marketd "$SMOKE_DIR/marketd-tl1.log"
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -campaign AndroFish \
	-sessions 24 -seed 7 > "$SMOKE_DIR/campaign.json"
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -timeline AndroFish > "$SMOKE_DIR/timeline1.json"
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -verdict AndroFish > "$SMOKE_DIR/verdict-tl.json"
go run ./scripts/checktimeline "$SMOKE_DIR/timeline1.json" "$SMOKE_DIR/verdict-tl.json"
grep -q '"flagged":true' "$SMOKE_DIR/verdict-tl.json" || {
	echo "verify: campaign did not push AndroFish over the threshold:" >&2
	cat "$SMOKE_DIR/campaign.json" >&2
	exit 1
}
kill -TERM "$MARKETD_PID"
wait "$MARKETD_PID"

start_marketd "$SMOKE_DIR/marketd-tl2.log"
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -timeline AndroFish > "$SMOKE_DIR/timeline2.json"
diff "$SMOKE_DIR/timeline1.json" "$SMOKE_DIR/timeline2.json" || {
	echo "verify: timeline changed across restart" >&2
	exit 1
}
kill -TERM "$MARKETD_PID"
wait "$MARKETD_PID"

echo "==> smoke: marketd kill -9 mid-hose, checkpointed crash recovery"
# Fresh data dir with an aggressive checkpoint cadence. Land hose A
# and let the daemon ack it, kill -9 the daemon while hose B is still
# firing, then restart: every acked hose-A event must still be there
# (re-posting the identical run is pure duplicates) and the verdict
# must survive one more clean restart byte-identical.
MARKET_DATA="$SMOKE_DIR/marketd-crash-data"
start_marketd() {
	"$SMOKE_DIR/marketd" -addr 127.0.0.1:0 -data "$MARKET_DATA" \
		-shards 2 -threshold 3 -checkpoint-every 1000 > "$1" 2>&1 &
	MARKETD_PID=$!
	for _ in $(seq 1 100); do
		grep -q 'listening on' "$1" 2>/dev/null && break
		sleep 0.1
	done
	MARKET_ADDR="$(sed -n 's/^marketd: listening on //p' "$1")"
	[ -n "$MARKET_ADDR" ] || {
		echo "verify: marketd never bound:" >&2
		cat "$1" >&2
		exit 1
	}
}
start_marketd "$SMOKE_DIR/marketd3.log"
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -events 5000 -batch 250 \
	-workers 2 -run crashA > "$SMOKE_DIR/loadgenA.json"
grep -q '"accepted": 5000' "$SMOKE_DIR/loadgenA.json" || {
	echo "verify: crash smoke hose A did not land 5000 events" >&2
	exit 1
}
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -events 50000 -batch 100 \
	-workers 2 -run crashB > "$SMOKE_DIR/loadgenB.json" 2>&1 &
HOSE_PID=$!
sleep 1
kill -9 "$MARKETD_PID"
wait "$MARKETD_PID" 2>/dev/null && : || true
wait "$HOSE_PID" && : || true # hose B dies with the daemon; that's the point

start_marketd "$SMOKE_DIR/marketd4.log"
grep -q 'shards from checkpoint' "$SMOKE_DIR/marketd4.log" || {
	echo "verify: crash restart printed no recovery summary:" >&2
	cat "$SMOKE_DIR/marketd4.log" >&2
	exit 1
}
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -events 5000 -batch 250 \
	-workers 2 -run crashA > "$SMOKE_DIR/loadgenA2.json"
grep -q '"accepted": 0' "$SMOKE_DIR/loadgenA2.json" || {
	echo "verify: acked events lost across kill -9 (re-post was not all duplicates):" >&2
	cat "$SMOKE_DIR/loadgenA2.json" >&2
	exit 1
}
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -verdict app-0 > "$SMOKE_DIR/verdict3.json"
kill -TERM "$MARKETD_PID"
wait "$MARKETD_PID"

start_marketd "$SMOKE_DIR/marketd5.log"
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -verdict app-0 > "$SMOKE_DIR/verdict4.json"
diff "$SMOKE_DIR/verdict3.json" "$SMOKE_DIR/verdict4.json" || {
	echo "verify: verdict changed across post-crash restart" >&2
	exit 1
}
kill -TERM "$MARKETD_PID"
wait "$MARKETD_PID"

echo "==> smoke: fingerprint upload, similarity query, fused verdict across restart"
# The static channel end to end: loadgen -fingerprint unpacks every
# protected apk named by the bombdroid -batch manifest from the earlier
# smoke and uploads its resource digests; -similar asks for weighted-
# Jaccard neighbors; a campaign then flags one app through the reports
# channel and the fused verdict must carry both channels. A SIGTERM
# restart over the same data dir must replay fingerprints and serve the
# similar answer and fused verdict byte-identical.
# The SIGINT smoke left manifest.json partial; re-protect the (now
# 8-app) corpus into a complete manifest for the upload.
"$SMOKE_DIR/bombdroid" -batch "$CORPUS" -outdir "$SMOKE_DIR/protected" \
	-manifest "$SMOKE_DIR/fp-manifest.json" -keyseed 1 -profile-events 800 > /dev/null
MARKET_DATA="$SMOKE_DIR/marketd-fp-data"
start_marketd "$SMOKE_DIR/marketd-fp1.log"
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -fingerprint "$SMOKE_DIR/fp-manifest.json" \
	> "$SMOKE_DIR/fp-upload.json"
grep -q '"skipped": 0' "$SMOKE_DIR/fp-upload.json" || {
	echo "verify: fingerprint upload skipped apps:" >&2
	cat "$SMOKE_DIR/fp-upload.json" >&2
	exit 1
}
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -campaign AndroFish \
	-sessions 24 -seed 7 > /dev/null
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -similar AndroFish > "$SMOKE_DIR/similar1.json"
grep -q '"known":true' "$SMOKE_DIR/similar1.json" || {
	echo "verify: similar query does not know AndroFish:" >&2
	cat "$SMOKE_DIR/similar1.json" >&2
	exit 1
}
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -verdict AndroFish > "$SMOKE_DIR/fp-verdict1.json"
grep -q '"flagged":true' "$SMOKE_DIR/fp-verdict1.json" || {
	echo "verify: fused verdict did not flag AndroFish" >&2
	exit 1
}
grep -q '"similarity"' "$SMOKE_DIR/fp-verdict1.json" || {
	echo "verify: fused verdict carries no similarity channel" >&2
	exit 1
}
kill -TERM "$MARKETD_PID"
wait "$MARKETD_PID"

start_marketd "$SMOKE_DIR/marketd-fp2.log"
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -similar AndroFish > "$SMOKE_DIR/similar2.json"
diff "$SMOKE_DIR/similar1.json" "$SMOKE_DIR/similar2.json" || {
	echo "verify: similar answer changed across restart" >&2
	exit 1
}
"$SMOKE_DIR/loadgen" -url "http://$MARKET_ADDR" -verdict AndroFish > "$SMOKE_DIR/fp-verdict2.json"
diff "$SMOKE_DIR/fp-verdict1.json" "$SMOKE_DIR/fp-verdict2.json" || {
	echo "verify: fused verdict changed across restart" >&2
	exit 1
}
kill -TERM "$MARKETD_PID"
wait "$MARKETD_PID"

echo "==> smoke: 3-node cluster + router, federated reads byte-identical to a single node"
# Three partial-range nodes tiling the 256-slot key space, a -router
# daemon fanning out over them, and a standalone full-range reference
# daemon. The same deterministic hose (fixed -run label) goes into
# both; the federated /verdict and /timeline through the router must
# then be byte-identical to the reference's. Finally one node is
# SIGTERM-restarted over its own data dir (same flags, same port — the
# pinned range must accept the restart) and the federated verdict must
# not change.
CLUSTER_DIR="$SMOKE_DIR/cluster"
mkdir -p "$CLUSTER_DIR"

start_node() { # $1 log, $2 data dir, $3 node id, $4 range, $5 addr
	"$SMOKE_DIR/marketd" -addr "$5" -data "$2" -shards 2 -threshold 3 \
		-node-id "$3" -slots 256 -shard-range "$4" > "$1" 2>&1 &
	NODE_PID=$!
	for _ in $(seq 1 100); do
		grep -q 'listening on' "$1" 2>/dev/null && break
		sleep 0.1
	done
	NODE_ADDR="$(sed -n 's/^marketd: listening on //p' "$1")"
	[ -n "$NODE_ADDR" ] || {
		echo "verify: cluster node $3 never bound:" >&2
		cat "$1" >&2
		exit 1
	}
}

start_node "$CLUSTER_DIR/n0.log" "$CLUSTER_DIR/n0" n0 0:86 127.0.0.1:0
N0_PID=$NODE_PID N0=$NODE_ADDR
start_node "$CLUSTER_DIR/n1.log" "$CLUSTER_DIR/n1" n1 86:171 127.0.0.1:0
N1_PID=$NODE_PID N1=$NODE_ADDR
start_node "$CLUSTER_DIR/n2.log" "$CLUSTER_DIR/n2" n2 171:256 127.0.0.1:0
N2_PID=$NODE_PID N2=$NODE_ADDR

"$SMOKE_DIR/marketd" -router -addr 127.0.0.1:0 \
	-nodes "http://$N0,http://$N1,http://$N2" > "$CLUSTER_DIR/router.log" 2>&1 &
ROUTER_PID=$!
for _ in $(seq 1 100); do
	grep -q 'router listening on' "$CLUSTER_DIR/router.log" 2>/dev/null && break
	sleep 0.1
done
ROUTER_ADDR="$(sed -n 's/^marketd: router listening on //p' "$CLUSTER_DIR/router.log")"
[ -n "$ROUTER_ADDR" ] || {
	echo "verify: router never bound:" >&2
	cat "$CLUSTER_DIR/router.log" >&2
	exit 1
}

MARKET_DATA="$CLUSTER_DIR/reference-data"
start_marketd "$CLUSTER_DIR/reference.log"
REF_ADDR=$MARKET_ADDR REF_PID=$MARKETD_PID

"$SMOKE_DIR/loadgen" -url "http://$ROUTER_ADDR" -events 6000 -batch 200 \
	-workers 2 -run fed > "$CLUSTER_DIR/hose-cluster.json"
grep -q '"accepted": 6000' "$CLUSTER_DIR/hose-cluster.json" || {
	echo "verify: cluster hose did not land 6000 accepted events:" >&2
	cat "$CLUSTER_DIR/hose-cluster.json" >&2
	exit 1
}
"$SMOKE_DIR/loadgen" -url "http://$REF_ADDR" -events 6000 -batch 200 \
	-workers 2 -run fed > "$CLUSTER_DIR/hose-ref.json"

for app in app-0 app-7 app-63; do
	"$SMOKE_DIR/loadgen" -url "http://$ROUTER_ADDR" -verdict "$app" > "$CLUSTER_DIR/fed-verdict-$app.json"
	"$SMOKE_DIR/loadgen" -url "http://$REF_ADDR" -verdict "$app" > "$CLUSTER_DIR/ref-verdict-$app.json"
	diff "$CLUSTER_DIR/fed-verdict-$app.json" "$CLUSTER_DIR/ref-verdict-$app.json" || {
		echo "verify: federated verdict for $app differs from the single-node reference" >&2
		exit 1
	}
	"$SMOKE_DIR/loadgen" -url "http://$ROUTER_ADDR" -timeline "$app" > "$CLUSTER_DIR/fed-timeline-$app.json"
	"$SMOKE_DIR/loadgen" -url "http://$REF_ADDR" -timeline "$app" > "$CLUSTER_DIR/ref-timeline-$app.json"
	diff "$CLUSTER_DIR/fed-timeline-$app.json" "$CLUSTER_DIR/ref-timeline-$app.json" || {
		echo "verify: federated timeline for $app differs from the single-node reference" >&2
		exit 1
	}
done

# Fingerprints through the router: the same batch-manifest corpus goes
# into the federated front and the full-range reference; the /similar
# answer and the fused /verdict must be byte-identical.
"$SMOKE_DIR/loadgen" -url "http://$ROUTER_ADDR" -fingerprint "$SMOKE_DIR/fp-manifest.json" > /dev/null
"$SMOKE_DIR/loadgen" -url "http://$REF_ADDR" -fingerprint "$SMOKE_DIR/fp-manifest.json" > /dev/null
for app in AndroFish Angulo; do
	"$SMOKE_DIR/loadgen" -url "http://$ROUTER_ADDR" -similar "$app" > "$CLUSTER_DIR/fed-similar-$app.json"
	"$SMOKE_DIR/loadgen" -url "http://$REF_ADDR" -similar "$app" > "$CLUSTER_DIR/ref-similar-$app.json"
	diff "$CLUSTER_DIR/fed-similar-$app.json" "$CLUSTER_DIR/ref-similar-$app.json" || {
		echo "verify: federated similar for $app differs from the single-node reference" >&2
		exit 1
	}
	"$SMOKE_DIR/loadgen" -url "http://$ROUTER_ADDR" -verdict "$app" > "$CLUSTER_DIR/fed-fused-$app.json"
	"$SMOKE_DIR/loadgen" -url "http://$REF_ADDR" -verdict "$app" > "$CLUSTER_DIR/ref-fused-$app.json"
	diff "$CLUSTER_DIR/fed-fused-$app.json" "$CLUSTER_DIR/ref-fused-$app.json" || {
		echo "verify: federated fused verdict for $app differs from the single-node reference" >&2
		exit 1
	}
done

# Node restart: SIGTERM n1, restart it on the same port over the same
# data dir (meta.json pins its range — matching flags must be accepted),
# and the federated verdict must come back unchanged.
kill -TERM "$N1_PID"
wait "$N1_PID"
grep -q 'clean shutdown' "$CLUSTER_DIR/n1.log" || {
	echo "verify: cluster node n1 did not shut down cleanly:" >&2
	cat "$CLUSTER_DIR/n1.log" >&2
	exit 1
}
start_node "$CLUSTER_DIR/n1-restart.log" "$CLUSTER_DIR/n1" n1 86:171 "$N1"
N1_PID=$NODE_PID
"$SMOKE_DIR/loadgen" -url "http://$ROUTER_ADDR" -verdict app-0 > "$CLUSTER_DIR/fed-verdict-restart.json"
diff "$CLUSTER_DIR/fed-verdict-app-0.json" "$CLUSTER_DIR/fed-verdict-restart.json" || {
	echo "verify: federated verdict changed after a node restart" >&2
	exit 1
}

kill -TERM "$ROUTER_PID" "$N0_PID" "$N1_PID" "$N2_PID" "$REF_PID"
wait "$ROUTER_PID" "$N0_PID" "$N1_PID" "$N2_PID" "$REF_PID"

echo "verify: OK"
