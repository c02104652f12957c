#!/usr/bin/env bash
# The shared-name sweep (DESIGN.md decision #34): spin-lint's P1 cannot
# tell which declaration of a name declared twice another crate calls, so
# the compiler judges. Every `pub fn` that `spin-lint --shared` lists is
# narrowed to `pub(crate)`; each one a build then reports as private is
# widened back, until the workspace (all targets), `perf/` (all targets)
# and the `--cfg spin_check` build all compile, and clippy finds no
# public `len` beside a narrowed `is_empty`. What stays narrowed is
# printed, and left in the working tree for `git diff`.
#
#   scripts/pub_sweep.sh    # at a clean head: prints nothing, exits 0
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build -q --release -p spin-check --bin spin-lint
lock=$(mktemp)
cp perf/Cargo.lock "$lock"
trap 'cp "$lock" perf/Cargo.lock; rm -f "$lock"' EXIT

narrowed=()
while IFS=: read -r file line name; do
    if sed -n "${line}p" "$file" | grep -Eq '^\s*pub (const |async )?fn '; then
        sed -i "${line}s/pub /pub(crate) /" "$file"
        narrowed+=("$file:$line:${name# }")
    fi
done < <(./target/release/spin-lint --shared)

# The `file:line` of every span an error names, the definitions the
# "private method defined here" notes point at included, and `name` for
# each item a `pub use` can no longer re-export.
error_sites() {
    {
        cargo clippy -q --workspace --all-targets --color never -- \
            -D clippy::len_without_is_empty 2>&1 || true
        cargo check -q --manifest-path perf/Cargo.toml --all-targets --color never 2>&1 || true
        RUSTFLAGS="--cfg spin_check" CARGO_TARGET_DIR=target/spin-check \
            cargo check -q -p spin-check --tests --color never 2>&1 || true
    } | awk -F'`' '/^error\[E0364\]/ { print $2 ":" }
        /^error/ { e = 1 } /^warning/ { e = 0 } e && /(-->|:::) / { split($0, w, " "); print w[2] }' |
        sed -E "s#^$PWD/##; s#^(\.\./)+##; s#:[0-9]+\$##" | sort -u
}

# Widens every narrowed item the test `$1` accepts, counting them in
# `widened`.
widen() {
    local kept=() site line
    widened=0
    for site in "${narrowed[@]+"${narrowed[@]}"}"; do
        if "$1" "$site"; then
            line=${site#*:}
            sed -i "${line%%:*}s/pub(crate) /pub /" "${site%%:*}"
            widened=$((widened + 1))
        else
            kept+=("$site")
        fi
    done
    narrowed=("${kept[@]+"${kept[@]}"}")
}
# An error names the item's definition, or a `pub use` names the item.
at_site() { grep -qxF -e "${1%:*}" -e "${1##*:}:" <<<"$sites"; }
# A call the error points at has the item's name: a private method can
# send method resolution on to a same-named one through `Deref`.
in_call() { grep -qE "\.${1##*:}\(" <<<"$calls"; }

while :; do
    sites=$(error_sites)
    [ -z "$sites" ] && break
    calls=$(for site in $sites; do
        [ -f "${site%:*}" ] && sed -n "${site##*:}p" "${site%:*}"
    done || true)
    widen at_site
    [ "$widened" -gt 0 ] || widen in_call
    if [ "$widened" -eq 0 ]; then
        echo "pub_sweep: a build fails at no narrowed item:" >&2
        echo "$sites" >&2
        exit 1
    fi
done
[ "${#narrowed[@]}" -eq 0 ] || printf '%s\n' "${narrowed[@]}"
