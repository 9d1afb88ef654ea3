#!/bin/sh
# Structure gate: no source file of condor-core over 1,500 lines, no
# deprecated item (or allow for one) anywhere in the code trees,
# condor-bench stays one harness: one `fn main` (bench_report; every
# experiment is a function behind `condor exp`) and no [[bench]] target,
# and the non-test code (each file up to its `#[cfg(test)]`, comments
# aside) of every crate holds no more `unwrap()` / `expect(` / `panic!`
# than that crate's ceiling below. A ceiling only goes down: lower it with
# every site a PR turns into a typed error or a documented invariant.
#
# Surface rule: every `pub` fn, struct, enum, trait, const, type or static
# under crates/*/src and src/ is named (word match) by some other file of
# crates, src, tests, benchmark or examples, or is listed with a one-line
# reason in scripts/surface_allowlist.txt. A listed name that some other
# file names, or that no longer exists, must leave the list.
#
# Field rule: the same for every `pub` struct field there, listed as
# `Struct::field` and matched on the field's name: a field nobody outside
# its file names is a knob nobody turns, so it becomes a constant.
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
over=$(panics crates/bench/src 13; panics crates/ckpt/src 1; panics crates/core/src 22
    panics crates/metrics/src 4; panics crates/model/src 1; panics crates/net/src 0
    panics crates/runtime/src 7; panics crates/sim/src 6; panics crates/workload/src 0
    panics src 3)

allow=scripts/surface_allowlist.txt
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
# "file key name" for every pub item (key = name) and every pub struct
# field (key = Struct::field), then "file:name" for every word that names
# one, anywhere in the code trees.
find crates/*/src src -name '*.rs' -exec awk '
    FNR == 1 { owner = "" }
    match($0, /^[[:space:]]*(pub[^[:space:]]*[[:space:]]+)?struct[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/) {
        n = split(substr($0, RSTART, RLENGTH), w, /[[:space:]]+/); owner = w[n] }
    match($0, /^[[:space:]]*pub[[:space:]]+((const|unsafe|async|extern)[[:space:]]+)*(fn|struct|enum|trait|const|type|static)[[:space:]]+[A-Za-z_][A-Za-z0-9_]*/) {
        n = split(substr($0, RSTART, RLENGTH), w, /[[:space:]]+/); print FILENAME, w[n], w[n] }
    match($0, /^[[:space:]]*pub[[:space:]]+[a-z_][a-z0-9_]*[[:space:]]*:([^:]|$)/) {
        split(substr($0, RSTART, RLENGTH), w, /[[:space:]:]+/); print FILENAME, owner "::" w[3], w[3] }' {} + |
    sort -u > "$tmp/defs"
awk '{ print $3 }' "$tmp/defs" | sort -u > "$tmp/names"
grep -rowF --include='*.rs' --exclude-dir=target -f "$tmp/names" crates src tests benchmark examples |
    sort -u > "$tmp/refs"
# Items and fields no other file names.
awk -F: 'FNR == NR { named[$2] = named[$2] " " $1; next }
    { split($0, d, " "); n = split(named[d[3]], f, " "); other = 0
      for (i = 1; i <= n; i++) if (f[i] != d[1]) other = 1
      if (!other) print d[1] ": " d[2] }' "$tmp/refs" "$tmp/defs" > "$tmp/dead"
awk '!/^#/ && NF { print $1 }' "$allow" | sort -u > "$tmp/allowed"
unlisted=$(awk 'FNR == NR { ok[$1] = 1; next } !($2 in ok)' "$tmp/allowed" "$tmp/dead")
stale=$(awk 'FNR == NR { dead[$2] = 1; next } !($1 in dead)' "$tmp/dead" "$tmp/allowed")
unexplained=$(awk '!/^#/ && NF == 1' "$allow")

[ -z "$big$old$mains$benches$over$unlisted$stale$unexplained" ] && exit 0
printf 'structure check failed\nover 1,500 lines:\n%s\ndeprecated:\n%s\nextra mains in crates/bench:\n%s\nbench targets:\n%s\nunwrap/expect/panic over the ceiling in\n%s\n' \
    "$big" "$old" "$mains" "$benches" "$over" >&2
printf 'pub items and fields no other file names (use, demote or delete them, or list them in %s):\n%s\nlisted in %s but named elsewhere or gone:\n%s\nlisted without a reason:\n%s\n' \
    "$allow" "$unlisted" "$allow" "$stale" "$unexplained" >&2
exit 1
