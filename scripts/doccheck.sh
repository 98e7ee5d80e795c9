#!/bin/sh
# doccheck.sh — fails CI when godoc coverage regresses or a doc cites
# something that does not exist.
#
# Five gates:
#   1. Every package under internal/ and cmd/ must carry a package-level
#      doc comment ("// Package <name> ...") in at least one non-test file.
#   2. No exported top-level declaration anywhere under internal/ may lack
#      a preceding doc comment (a cheap grep-grade approximation of
#      revive's exported rule; it catches the common case of an exported
#      func/type/var/const added without any comment).
#   3. Every `-flag` inside an inline code span of docs/*.md, README.md,
#      DESIGN.md or EXPERIMENTS.md must be registered on a flag set in
#      cmd/prioplus-sim. Exempt: the Go-toolchain flags listed below, and
#      spans that run another program (first word sh, bash, or a path).
#   4. Every `pkg.Symbol` / `pkg.Type.Member` in such a span, where pkg is a
#      package directory under internal/, must resolve by grep in that
#      package's non-test files: Symbol as a top-level declaration (or a
#      method of any of its types), Member as a method of Type or a field
#      written out in Type's struct (a field promoted from an embedded
#      struct is cited under the struct that declares it). A seam that only
#      tests reach (export_test.go) is not API, so a doc may not cite it.
#   5. Each doc stays within its byte budget below, so prose cannot regrow
#      silently. A change that cuts a doc lowers its line; one that must
#      grow it raises the line in the same diff, so the growth is visible.
#
# Run from the repository root: sh scripts/doccheck.sh
set -eu

fail=0

for dir in internal/*/ cmd/*/; do
    name=$(basename "$dir")
    # Library packages document "Package <name> ..."; main packages
    # document "Command <name> ...".
    if ! grep -qs "^// \(Package\|Command\) $name " "$dir"*.go; then
        echo "doccheck: package $dir has no '// Package|Command $name ...' doc comment" >&2
        fail=1
    fi
done

undocumented=$(find internal -name '*.go' ! -name '*_test.go' -print0 | xargs -0 awk '
/^\/\// { prevcomment=1; next }
/^func [A-Z]/ || /^func \([a-z]+ \*?[A-Z][A-Za-z]*\) [A-Z]/ || /^type [A-Z]/ || /^var [A-Z]/ || /^const [A-Z]/ {
    if (!prevcomment) print FILENAME ":" FNR ": undocumented exported declaration: " $0
}
{ prevcomment=0 }
')
if [ -n "$undocumented" ]; then
    echo "$undocumented" >&2
    fail=1
fi

docs="docs/*.md README.md DESIGN.md EXPERIMENTS.md"

# spans prints every inline code span of the docs, one per line, prefixed
# "file:line:"; fenced blocks are skipped (they hold whole shell sessions).
spans() {
    # shellcheck disable=SC2086
    awk '
    FNR == 1 { fence = 0 }
    /^```/ { fence = !fence; next }
    fence { next }
    { n = split($0, part, "`"); for (i = 2; i <= n; i += 2) print FILENAME ":" FNR ":" part[i] }
    ' $docs
}

# Flags of go build/test/vet/version/tool and gofmt that the docs mention.
gotool=" bench benchmem benchtime count cpu fuzz fuzztime gcflags l m o pgo proto r race run s tags w "
registered=$(grep -oh 'fs\.[A-Za-z0-9]*(\(&[A-Za-z.]*, \)\?"[a-z0-9-]*"' cmd/prioplus-sim/*.go |
    sed 's/.*"\(.*\)"/\1/' | sort -u)
badflags=$(spans | awk -v gotool="$gotool" -v registered="$registered" '
BEGIN { n = split(registered, r, "\n"); for (i = 1; i <= n; i++) ok[r[i]] = 1 }
{
    match($0, /^[^:]*:[0-9]+/); where = substr($0, 1, RLENGTH)
    m = split(substr($0, RLENGTH + 2), tok, /[ \t]+/)
    if (tok[1] == "sh" || tok[1] == "bash" || tok[1] ~ /\//) next
    for (j = 1; j <= m; j++) {
        t = tok[j]; sub(/=.*/, "", t)
        if (t !~ /^-[a-z][a-z0-9-]*$/) continue
        t = substr(t, 2)
        if (!ok[t] && index(gotool, " " t " ") == 0)
            print where ": cites flag -" t ", which cmd/prioplus-sim does not register"
    }
}')
if [ -n "$badflags" ]; then
    echo "$badflags" >&2
    fail=1
fi

# resolves <dir> <Symbol> [Member]
tab=$(printf '\t')
resolves() {
    files=$(ls "$1"/*.go | grep -v '_test\.go$')
    if [ -z "${3:-}" ]; then
        # A top-level declaration, a method, or a name in a var/const block.
        # shellcheck disable=SC2086
        grep -Eqs "^(func|type|var|const) $2\\b|^func \\([a-z]+ \\*?[A-Z][A-Za-z0-9]*\\) $2\\b|^$tab$2\\b" $files
        return
    fi
    # shellcheck disable=SC2086
    grep -Eqs "^func \\([a-z]+ \\*?$2\\) $3\\b" $files && return 0
    # shellcheck disable=SC2086
    awk -v ty="$2" -v mem="$3" '
    $0 ~ "^type " ty " struct \\{" { in_t = 1; next }
    in_t && /^}/ { in_t = 0 }
    in_t && $0 ~ "^\t([A-Za-z0-9_]+, )*" mem "(,| |$)" { found = 1 }
    END { exit !found }
    ' $files
}

pkgs=$(find internal -type d | sed 's|.*/||' | sort -u | tr '\n' '|' | sed 's/|$//')
cites=$(spans | awk -v pk="$pkgs" '
{
    match($0, /^[^:]*:[0-9]+/); where = substr($0, 1, RLENGTH); s = substr($0, RLENGTH + 2)
    re = "(^|[^A-Za-z0-9_./])(" pk ")\\.[A-Z][A-Za-z0-9_]*(\\.[A-Za-z_][A-Za-z0-9_]*)?"
    while (match(s, re)) {
        t = substr(s, RSTART, RLENGTH); sub(/^[^a-z]/, "", t)
        print where, t
        s = substr(s, RSTART + RLENGTH)
    }
}')
badsyms=$(echo "$cites" | while read -r where cite; do
    [ -n "$cite" ] || continue
    pkg=${cite%%.*}
    rest=${cite#*.}
    sym=${rest%%.*}
    mem=
    [ "$rest" = "$sym" ] || mem=${rest#*.}
    dir=$(find internal -type d -name "$pkg" | head -1)
    resolves "$dir" "$sym" $mem || echo "$where: cites $cite, which does not resolve in $dir"
done)
if [ -n "$badsyms" ]; then
    echo "$badsyms" >&2
    fail=1
fi

while read -r doc max; do
    size=$(wc -c < "$doc")
    if [ "$size" -gt "$max" ]; then
        echo "doccheck: $doc is $size bytes, over its $max-byte budget" >&2
        fail=1
    fi
done <<EOF
docs/API.md 7024
docs/ARCHITECTURE.md 47347
docs/OBSERVABILITY.md 37347
docs/PERFORMANCE.md 28932
README.md 15397
DESIGN.md 13682
EXPERIMENTS.md 13906
EOF

if [ "$fail" -ne 0 ]; then
    echo "doccheck: FAIL" >&2
    exit 1
fi
echo "doccheck: ok"
