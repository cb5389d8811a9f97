#!/usr/bin/env sh
# Tier-1 gate: build, full test suite (which includes the sharded-compile
# determinism check, tests/it/parallel.rs), clippy on the whole
# workspace, rustdoc with warnings denied (no doc link to a deleted or
# private item), a release build of the perfbench benchmark (it pins
# the compiler API it drives), the fault-injection (chaos) smoke sweep,
# the telemetry gate (schema-valid metrics export, disabled-sink output
# determinism), and the fuzz gate
# (clean smoke campaign, planted-miscompile self-test with a minimized
# reproducer, thread-count independence of findings), and the serve gate
# (daemon warm-pass hit rate, SIGKILL crash recovery with quarantine,
# clean drain, overload shedding with typed refusals), and the netchaos
# gate (seeded network-fault campaign over every fault kind with
# thread-count-invariant reports, a 10k-frame malformed-protocol fuzz
# with zero hangs and all-typed outcomes, the slow-loris frame-deadline
# cutoff, and an every-byte-boundary artifact-store crash-point sweep),
# and the VM gate
# (engine-identity suite: decoded vs tree observably identical on all
# 17 workloads, fuel cutoffs, and a seeded fuzz sweep; vmbench decoded
# throughput at least 3x the tree-walking oracle), and the native gate
# (native-identity suite: the sxe-native x86-64 JIT observably identical
# to the decoded engine on all 17 workloads x both targets x both
# compile variants plus a fuzz sweep; a native-vs-decoded differential
# fuzz campaign; nativebench native throughput at least 2x the decoded
# interpreter on the integer workloads), and the mips64 gate (fuzz
# smoke and chaos sweep on the canonical-form target; the engine- and
# native-identity suites above already run every target, mips64
# included).
#
#   ./tier1.sh            # everything
#   ./tier1.sh --fast     # skip the chaos/telemetry/fuzz/serve/VM/native sweeps
set -eu

cd "$(dirname "$0")"

echo "== tier1: cargo build --release"
cargo build --release

echo "== tier1: cargo test -q"
cargo test -q

echo "== tier1: clippy -D warnings (whole workspace)"
cargo clippy -q --workspace --all-targets -- -D warnings

echo "== tier1: rustdoc -D warnings (doc links must resolve)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

echo "== tier1: perfbench release build (the benchmark's pinned API still compiles)"
cargo build --release --offline --manifest-path perfbench/Cargo.toml

if [ "${1:-}" != "--fast" ]; then
    echo "== tier1: chaos smoke (17 workloads x 32 fault seeds, 4 workers)"
    cargo run -q --release -p sxe-bench --bin chaos -- --seeds 32 --scale 0.05 --threads 4

    echo "== tier1: telemetry gate (trace + metrics export, schema check, disabled-sink determinism)"
    TDIR="$(mktemp -d)"
    trap 'rm -rf "$TDIR"' EXIT
    cargo run -q --release -p sxe-jit --bin sxec -- --workload "numeric sort" --threads 4 \
        --trace "$TDIR/ns.trace.json" --metrics "$TDIR/ns.metrics.json" > "$TDIR/traced.out"
    grep -q '"traceEvents"' "$TDIR/ns.trace.json" || {
        echo "tier1: trace export missing traceEvents" >&2; exit 1; }
    cargo run -q --release -p sxe-telemetry --bin validate-metrics -- \
        schemas/metrics.schema.json "$TDIR/ns.metrics.json"
    cargo run -q --release -p sxe-jit --bin sxec -- --workload "numeric sort" --threads 4 \
        > "$TDIR/plain.out"
    cmp "$TDIR/traced.out" "$TDIR/plain.out" || {
        echo "tier1: enabling telemetry changed the compiled module output" >&2; exit 1; }
    echo "tier1: telemetry exports valid, disabled-sink output identical"

    echo "== tier1: fuzz smoke (200 modules, clean pipeline, zero findings)"
    cargo run -q --release -p sxe-bench --bin fuzz -- --count 200 --threads 4 \
        --oracle-runs 8

    echo "== tier1: fuzz self-test (planted miscompile found, minimized, thread-independent)"
    cargo run -q --release -p sxe-bench --bin fuzz -- --count 8 --plant --oracle-runs 4 \
        --out "$TDIR/fuzz1" > "$TDIR/fuzz1.out"
    ls "$TDIR"/fuzz1/*.min.sxir > /dev/null 2>&1 || {
        echo "tier1: planted run produced no minimized reproducer" >&2; exit 1; }
    cargo run -q --release -p sxe-bench --bin fuzz -- --count 8 --plant --oracle-runs 4 \
        --threads 4 --out "$TDIR/fuzz4" > "$TDIR/fuzz4.out"
    diff -r "$TDIR/fuzz1" "$TDIR/fuzz4" || {
        echo "tier1: fuzz findings differ between --threads 1 and 4" >&2; exit 1; }
    sed -e 's/4 worker/1 worker/' -e 's|/fuzz4/|/fuzz1/|' "$TDIR/fuzz4.out" \
        | cmp - "$TDIR/fuzz1.out" || {
        echo "tier1: fuzz reports differ between --threads 1 and 4" >&2; exit 1; }
    echo "tier1: fuzz gate OK (clean smoke, self-test minimized, findings thread-independent)"

    echo "== tier1: serve gate (daemon warm pass, SIGKILL crash recovery, quarantine, overload shedding)"
    cargo run -q --release -p sxe-bench --bin stress -- --gate

    echo "== tier1: netchaos gate (fault campaign, 10k-frame protocol fuzz, slow-loris cutoff, crash-point sweep)"
    cargo run -q --release -p sxe-bench --bin netchaos -- --gate

    echo "== tier1: engine identity (decoded vs tree: outcome, trap kind, counters)"
    cargo test -q -p xelim-integration-tests --release --test vm_identity

    echo "== tier1: vmbench gate (decoded >= 3x tree aggregate throughput)"
    cargo run -q --release -p sxe-bench --bin vmbench -- --scale 0.25 --repeats 3 --gate 3

    echo "== tier1: native identity (native vs decoded: outcome, trap kind, counters, profiles)"
    cargo test -q -p xelim-integration-tests --release --test native_identity

    echo "== tier1: native differential fuzz (256 modules, decoded reference vs native execution)"
    cargo run -q --release -p sxe-bench --bin fuzz -- --count 256 --exec native --oracle-runs 8

    echo "== tier1: nativebench gate (native >= 2x decoded aggregate throughput, integer workloads)"
    cargo run -q --release -p sxe-bench --bin nativebench -- --scale 0.25 --repeats 3 --gate 2

    echo "== tier1: mips64 fuzz smoke (256 modules, canonical-form target, zero findings)"
    cargo run -q --release -p sxe-bench --bin fuzz -- --target mips64 --count 256 --threads 4 \
        --oracle-runs 8

    echo "== tier1: mips64 chaos sweep (64 modules, one contained fault each, zero findings)"
    cargo run -q --release -p sxe-bench --bin fuzz -- --target mips64 --count 64 --chaos \
        --threads 4 --oracle-runs 4

    # The engine-identity and native-identity suites above already run
    # every target in Target::ALL, so mips64 decoded-vs-tree identity and
    # the typed native refusal + decoded fallback are gated there.
fi

echo "== tier1: OK"
