#!/usr/bin/env sh
# Non-test Rust code lines per crate and in total: every `.rs` file
# under `crates/*/src`, cut at its `#[cfg(test)]` + `mod tests` pair,
# without blank lines and `//` comment lines. The closed benchmark
# package (`crates/bench/examples/benchmark`) is not under any
# `crates/*/src` and is not counted. Run from anywhere:
#
#   tools/count-lines.sh
set -eu
cd "$(dirname "$0")/.."
total=0
for src in crates/*/src; do
    crate=${src#crates/}
    crate=${crate%/src}
    n=$(find "$src" -name '*.rs' -exec awk '
        FNR == 1 { cfg_test = 0; cut = 0 }
        cut { next }
        /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/ { cfg_test = 1; next }
        cfg_test && /^[[:space:]]*mod tests[[:space:]]*\{/ { cut = 1; next }
        cfg_test { cfg_test = 0; n++ }
        /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
        { n++ }
        END { print n + 0 }
    ' {} + | awk '{ s += $1 } END { print s + 0 }')
    printf '%-10s %6d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %6d\n' total "$total"
