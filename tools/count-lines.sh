#!/usr/bin/env sh
# Rust code lines per crate and in total, without blank lines and `//`
# comment lines, in two tables:
#
# - non-test code: every `.rs` file under `crates/*/src`, cut at its
#   `#[cfg(test)]` + `mod tests` pair;
# - test code: the cut-off `mod tests` tails of those files, every
#   `.rs` file under `crates/*/tests`, and the root package's `tests/`
#   (the `root` row).
#
# Examples, bench targets and the closed benchmark package
# (`crates/bench/examples/benchmark`) are in neither table. Run from
# anywhere:
#
#   tools/count-lines.sh
set -eu
cd "$(dirname "$0")/.."

# Lines of the given files; `mode` is `code` (before the cut) or
# `tests` (the cut-off tail, its two opening lines included).
count() {
    mode=$1
    shift
    [ "$#" -gt 0 ] || { echo 0; return; }
    awk -v mode="$mode" '
        FNR == 1 { cfg_test = 0; cut = 0 }
        cut { if (!(/^[[:space:]]*$/ || /^[[:space:]]*\/\//)) t++; next }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { cfg_test = 1; next }
        cfg_test && /^[[:space:]]*mod tests[[:space:]]*\{/ { cut = 1; t += 2; next }
        cfg_test { cfg_test = 0; n++ }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print (mode == "code" ? n : t) + 0 }
    ' "$@"
}

# `.rs` files under a directory, or nothing when it does not exist.
rust_files() {
    [ -d "$1" ] && find "$1" -name '*.rs' | sort
}

# shellcheck disable=SC2046 # file lists are word-split on purpose
table() {
    mode=$1
    total=0
    for src in crates/*/src; do
        crate=${src#crates/}
        crate=${crate%/src}
        n=$(count "$mode" $(rust_files "$src"))
        if [ "$mode" = tests ]; then
            n=$((n + $(count code $(rust_files "crates/$crate/tests"))))
        fi
        printf '%-10s %6d\n' "$crate" "$n"
        total=$((total + n))
    done
    if [ "$mode" = tests ]; then
        n=$(count code $(rust_files tests))
        printf '%-10s %6d\n' root "$n"
        total=$((total + n))
    fi
    printf '%-10s %6d\n' total "$total"
}

echo "non-test code"
table code
echo
echo "test code"
table tests
