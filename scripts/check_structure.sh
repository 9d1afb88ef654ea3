#!/bin/sh
# Structure gate: no source file of condor-core over 1,500 lines, and no
# deprecated item (or allow for one) anywhere in the code trees.
set -eu
cd "$(dirname "$0")/.."
big=$(find crates/core/src -name '*.rs' -exec wc -l {} + | awk '$2 != "total" && $1 > 1500')
old=$(grep -rn 'deprecated' crates src tests examples || true)
[ -z "$big$old" ] && exit 0
printf 'structure check failed\nover 1,500 lines:\n%s\ndeprecated:\n%s\n' "$big" "$old" >&2
exit 1
