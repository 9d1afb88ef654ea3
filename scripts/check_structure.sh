#!/bin/sh
# Structure gate: no source file of condor-core over 1,500 lines, no
# deprecated item (or allow for one) anywhere in the code trees, and
# condor-bench stays one harness: one `fn main` (bench_report; every
# experiment is a function behind `condor exp`) and no [[bench]] target.
set -eu
cd "$(dirname "$0")/.."
big=$(find crates/core/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1500')
old=$(grep -rn 'deprecated' crates src tests examples || true)
mains=$(grep -rn 'fn main' crates/bench | sed 1d)
benches=$(grep -rn '^\[\[bench\]\]' Cargo.toml crates/*/Cargo.toml || true)
[ -z "$big$old$mains$benches" ] && exit 0
printf 'structure check failed\nover 1,500 lines:\n%s\ndeprecated:\n%s\nextra mains in crates/bench:\n%s\nbench targets:\n%s\n' \
    "$big" "$old" "$mains" "$benches" >&2
exit 1
