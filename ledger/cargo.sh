#!/usr/bin/env bash
# Runs `cargo <subcommand> --offline` on the ledger package.
#
# The engine depends on the published crossbeam, rand and rayon. Where cargo
# can resolve them (a vendored directory or a registry cache the host
# supplies) the benchmark builds against them and measures the engine as it
# ships. Where it cannot - the sandbox has no registry - the same build is
# repeated with crates-io patched to the std-only stand-ins in shims/, and
# REMO_LEDGER_STAND_INS=1 tells the harness to say so in its report.
#
#   bash ledger/cargo.sh run --release -- run --workload W --seed N
#   bash ledger/cargo.sh test
set -eu
dir=$(dirname "$0")
sub=$1
shift
manifest=(--offline --manifest-path "$dir/Cargo.toml")
stand_ins=()
if ! cargo metadata "${manifest[@]}" --format-version 1 >/dev/null 2>&1; then
    for crate in crossbeam rand rayon; do
        stand_ins+=(--config "patch.crates-io.$crate.path=\"$dir/shims/$crate\"")
    done
    export REMO_LEDGER_STAND_INS=1
fi
# (`${a[@]+…}`: an empty array is "unbound" to bash before 4.4.)
exec cargo "$sub" "${manifest[@]}" ${stand_ins[@]+"${stand_ins[@]}"} "$@"
