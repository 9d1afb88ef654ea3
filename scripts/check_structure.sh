#!/bin/sh
# Structure gate: no source file of condor-core over 1,500 lines, no
# deprecated item (or allow for one) anywhere in the code trees,
# condor-bench stays one harness: one `fn main` (bench_report; every
# experiment is a function behind `condor exp`) and no [[bench]] target,
# and condor-core's non-test code (each file up to its `#[cfg(test)]`,
# comments aside) holds no more `unwrap()` / `expect(` / `panic!` than the
# ceiling below. The ceiling only goes down: lower it with every site a PR
# turns into a typed error or a documented invariant.
set -eu
cd "$(dirname "$0")/.."
big=$(find crates/core/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1500')
old=$(grep -rn 'deprecated' crates src tests examples || true)
mains=$(grep -rn 'fn main' crates/bench | sed 1d)
benches=$(grep -rn '^\[\[bench\]\]' Cargo.toml crates/*/Cargo.toml || true)
panic_ceiling=42
panics=$(find crates/core/src -name '*.rs' -exec awk \
    '/^#\[cfg\(test\)\]/ { nextfile } !/^[[:space:]]*\/\// && /unwrap\(\)|expect\(|panic!/ { print FILENAME ":" FNR ": " $0 }' {} +)
count=$(printf '%s' "$panics" | grep -c . || true)
[ "$count" -le "$panic_ceiling" ] && panics=
[ -z "$big$old$mains$benches$panics" ] && exit 0
printf 'structure check failed\nover 1,500 lines:\n%s\ndeprecated:\n%s\nextra mains in crates/bench:\n%s\nbench targets:\n%s\nunwrap/expect/panic in condor-core (%s, ceiling %s):\n%s\n' \
    "$big" "$old" "$mains" "$benches" "$count" "$panic_ceiling" "$panics" >&2
exit 1
