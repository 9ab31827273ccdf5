#!/usr/bin/env bash
# Builds tlc-serve with the repository's release profile and the servebench
# harness, then runs the harness with the given arguments:
#
#   bash servebench/run.sh --workload serve_hot --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: target/ at the repository
# root); the harness spawns the tlc-serve binary built there.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
target="${CARGO_TARGET_DIR:-$root/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    --target-dir "$target" -p service --bin tlc-serve >&2
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" >&2
exec "$target/release/servebench" --server "$target/release/tlc-serve" \
    --trace-dir "$target" "$@"
