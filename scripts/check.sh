#!/bin/sh
# Pre-PR gate: formatting, vet, build and the full test suite under the race
# detector. Run from the repository root; exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== fuzz smoke =="
# The dispatcher hands its backward path parse to the µFS walk (DESIGN.md
# §5). Ten seconds of fuzzing from the committed seed corpus: every reused
# record must equal a fresh parse, and a republished table, a sibling
# directory or the parent of a coffer-root file must parse afresh.
go test -run '^$' -fuzz '^FuzzResolveReuse$' -fuzztime 10s ./internal/kernfs
# Device images are untrusted input to zofs-fsck, zofs-shell and zofs-obs df:
# a corrupt header or chunk record must be an error from nvm.LoadImage,
# never a panic or an unbounded allocation.
go test -run '^$' -fuzz '^FuzzLoadImage$' -fuzztime 5s ./internal/nvm

echo "== perfbench build/test =="
# The benchmark is its own Go module, so the root build and tests skip it;
# this keeps it compiling against the observer APIs it calls.
(cd perfbench && go vet ./... && go test ./...)

echo "== trace smoke =="
# Record one tiny fig7 append cell with the flight recorder on, then gate on
# the auditor: a crash-free run must have zero lost lines, and the log must
# carry the op spans (the spans collector's finished roots) the auditor
# attributes events to.
tracedir=$(mktemp -d)
trap 'rm -rf "$tracedir"' EXIT
go build -o "$tracedir/zofs-obs" ./cmd/zofs-obs
obs="$tracedir/zofs-obs"
"$obs" trace record -workload append -system Ext4-DAX \
    -o "$tracedir/smoke.jsonl" -threads 1 -ops 8 -device-mb 64 >/dev/null
"$obs" trace audit -max-lost 0 "$tracedir/smoke.jsonl" >/dev/null
if ! grep -q '"rec":"span"' "$tracedir/smoke.jsonl"; then
    echo "trace smoke: recorded log carries no op-span records" >&2
    exit 1
fi

echo "== neutrality gate =="
# Observers read virtual clocks and never advance them. The "neutral"
# experiment runs the ZoFS hot-path cells (create/lookup/read4k) and the
# 1-thread FxMark DWOL/MWCL cells with every observer off, then with
# telemetry, spans+exemplars, series, lockprof, pmemtrace and byte-flow
# accounting all on, and fails unless every cell's op count and integer
# virtual ns are equal.
# Bench smokes run from $tracedir: experiments write BENCH_*.json into the
# working directory, and a -quick pass must not clobber the committed
# full-fidelity results.
go build -o "$tracedir/zofs-bench" ./cmd/zofs-bench
(cd "$tracedir" && ./zofs-bench -quick neutral >/dev/null)

echo "== spans smoke =="
# Causal-span gates. The "spans" experiment is self-asserting: per-op
# component attribution summing to the measured latency within 1%, no span
# left open or closed twice, and a parseable OpenMetrics rendering.
(cd "$tracedir" && ./zofs-bench -quick spans >/dev/null)

echo "== series smoke =="
# Tail-observatory gates. The "series" experiment is self-asserting: merged
# windows must equal the cumulative telemetry histograms bucket for bucket,
# every captured exemplar's components must sum exactly to its duration,
# and the SLO burn accounting must match its designed values.
(cd "$tracedir" && ./zofs-bench -quick series >/dev/null)

echo "== observer front end smoke =="
# One -obs collection run publishes every observer's files into one
# directory. Each OpenMetrics export must pass zofs-obs validate (span
# component shares sum to ~100%; series counts conserved; lock wait/hold
# conservation and edge bounds), top must render a frame and a JSON frame,
# locks a text report, and trace export must merge spans, lock waits, series
# windows and exemplars into one Chrome timeline.
(cd "$tracedir" && ./zofs-bench -quick -obs "$tracedir/obs" fig8 >/dev/null)
"$obs" validate "$tracedir/obs/spans.prom" "$tracedir/obs/series.prom" \
    "$tracedir/obs/locks.prom" >/dev/null
"$obs" top -once -dir "$tracedir/obs" >/dev/null
"$obs" top -json -dir "$tracedir/obs" >/dev/null
"$obs" locks -once -dir "$tracedir/obs" >/dev/null
"$obs" trace export -spans "$tracedir/obs/spans.jsonl" \
    -waits "$tracedir/obs/waits.jsonl" -series "$tracedir/obs" \
    -o "$tracedir/obs/chrome.json" >/dev/null

echo "== perfdiff gate =="
# Standing perf-regression gate: a fresh quick hotpath run must not regress
# significantly against the committed BENCH_hotpath.json baseline (virtual
# time makes the quick numbers bit-reproducible, so any drift is a real code
# change — refresh the baseline deliberately when one is intended). Then the
# differ proves it can catch what it gates: a 20% synthetic regression must
# trip exit 3.
(cd "$tracedir" && ./zofs-bench -quick hotpath >/dev/null)
"$obs" diff BENCH_hotpath.json "$tracedir/BENCH_hotpath.json" >/dev/null
"$obs" diff -inject 0.2 -o "$tracedir/BENCH_hotpath_regressed.json" \
    "$tracedir/BENCH_hotpath.json" >/dev/null
if "$obs" diff BENCH_hotpath.json \
    "$tracedir/BENCH_hotpath_regressed.json" >/dev/null 2>&1; then
    echo "diff: injected 20% regression was not detected" >&2
    exit 1
else
    status=$?
    if [ "$status" -ne 3 ]; then
        echo "diff: expected regression exit 3, got $status" >&2
        exit 1
    fi
fi

echo "== wa smoke =="
# Byte-flow gates. The "wa" experiment is self-asserting: per-class issued
# bytes sum exactly to the device's independent issued total, and write
# cells keep media >= issued >= app. Then zofs-obs df must reconcile flow
# and space accounting (-validate exits 1 on violation) and emit OpenMetrics
# series that zofs-obs validate accepts.
(cd "$tracedir" && ./zofs-bench -quick wa >/dev/null)
"$obs" df -files 128 -validate -om "$tracedir/flow.prom" >/dev/null
"$obs" validate "$tracedir/flow.prom" >/dev/null

echo "== crashmc smoke =="
# Crash-state model checker gates: a dense ZoFS sweep (>=200 states under
# all media models on both crash edges) and one baseline must hold every
# invariant, and an injected-corruption run must be detected (exit 3).
go build -o "$tracedir/zofs-crashmc" ./cmd/zofs-crashmc
"$tracedir/zofs-crashmc" -system ZoFS -points 35 -ops 24 -device-mb 64 \
    -min-states 200 >/dev/null
"$tracedir/zofs-crashmc" -system Ext4-DAX -points 8 -ops 16 -device-mb 64 >/dev/null
if "$tracedir/zofs-crashmc" -system ZoFS -inject bitflip -ops 16 \
    -device-mb 64 >/dev/null; then
    echo "crashmc: injected corruption was not detected" >&2
    exit 1
else
    status=$?
    if [ "$status" -ne 3 ]; then
        echo "crashmc: expected detection exit 3, got $status" >&2
        exit 1
    fi
fi

echo "== chaos smoke =="
# Chaos-engine gates: a short seeded adversarial campaign (kill, stall,
# stray writes, corruption, kernel delays) must hold every containment
# invariant — exit 3 flags a violation, any other non-zero status is a
# harness failure. The slotless fault campaign must see its injected
# stranded-grant crash detected and exactly reclaimed (exit 3 = detected).
go run ./cmd/zofs-chaos -ops 200 >/dev/null
if "$tracedir/zofs-crashmc" -system ZoFS -inject slotless -ops 16 \
    -device-mb 64 >/dev/null; then
    echo "crashmc: slotless stranded grant was not detected" >&2
    exit 1
else
    status=$?
    if [ "$status" -ne 3 ]; then
        echo "crashmc: expected slotless detection exit 3, got $status" >&2
        exit 1
    fi
fi

echo "== fxmark-scale smoke =="
# Concurrency-observatory gate. The "fxmark-scale" experiment is
# self-asserting: the spans layer's aggregate lock_wait must equal the
# profiler's per-lock wait sum to the nanosecond on a contended cell.
(cd "$tracedir" && ./zofs-bench -quick -threads 1,4,16 fxmark-scale >/dev/null)

echo "== scalability gate =="
# Regression gate for the kernfs.big decomposition: a quick fxmark-scale
# sweep widened to 64 and 512 threads must show the metadata-bound ZoFS
# workloads (MWCL/MWRL) still climbing at 64 threads, and all three gated
# workloads (DWAL/MWCL/MWRL) holding at least half their peak throughput
# at 512. DWAL saturates the device's write bandwidth by a few threads
# (paper Fig. 7), so its un-collapsed signature is the plateau, not the
# climb. A global kernel-agent mutex — or any new serial section on the
# metadata-write path — fails this gate.
(cd "$tracedir" && ./zofs-bench -quick -scale-gate fxmark-scale >/dev/null)

echo "OK"
