#!/bin/sh
# Structure gate: no source file of condor-core over 1,500 lines, no
# deprecated item (or allow for one) anywhere in the code trees,
# condor-bench stays one harness: one `fn main` (bench_report; every
# experiment is a function behind `condor exp`) and no [[bench]] target,
# and the non-test code (each file up to its `#[cfg(test)]`, comments
# aside) of condor-core, condor-sim and condor-runtime holds no more `unwrap()` /
# `expect(` / `panic!` than that crate's ceiling below. A ceiling only goes
# down: lower it with every site a PR turns into a typed error or a
# documented invariant.
set -eu
cd "$(dirname "$0")/.."
big=$(find crates/core/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1500')
old=$(grep -rn 'deprecated' crates src tests examples || true)
mains=$(grep -rn 'fn main' crates/bench | sed 1d)
benches=$(grep -rn '^\[\[bench\]\]' Cargo.toml crates/*/Cargo.toml || true)
# panics <dir> <ceiling>: the sites, if there are more than the ceiling.
panics() {
    sites=$(find "$1" -name '*.rs' -exec awk \
        '/^#\[cfg\(test\)\]/ { nextfile } !/^[[:space:]]*\/\// && /unwrap\(\)|expect\(|panic!/ { print FILENAME ":" FNR ": " $0 }' {} +)
    count=$(printf '%s' "$sites" | grep -c . || true)
    [ "$count" -le "$2" ] || printf '%s (%s, ceiling %s):\n%s\n' "$1" "$count" "$2" "$sites"
}
over=$(panics crates/core/src 42; panics crates/sim/src 6; panics crates/runtime/src 8)
[ -z "$big$old$mains$benches$over" ] && exit 0
printf 'structure check failed\nover 1,500 lines:\n%s\ndeprecated:\n%s\nextra mains in crates/bench:\n%s\nbench targets:\n%s\nunwrap/expect/panic over the ceiling in\n%s\n' \
    "$big" "$old" "$mains" "$benches" "$over" >&2
exit 1
