#!/bin/sh
# doclint checks that every package in the module carries a package doc
# comment: a // comment block immediately above the `package` clause in at
# least one of its files. Undocumented packages fail the build; `go doc`
# and pkg.go.dev would render them with an empty synopsis.
#
# The serving stack — internal/fed, internal/replica, internal/serve and
# their instruments, internal/instr — and the scheduler core internal/sched
# are additionally held to a stricter bar: every exported identifier needs
# its own doc comment (cmd/doclint, an AST-level check), with the rare
# exemption recorded in scripts/doclint-allow.txt. The serving packages are
# what operators script against; internal/sched joined the list with the
# incremental pass machinery (DESIGN.md §15), whose invariants live in
# those doc comments.
#
# A backticked `Test…`, `Fuzz…` or `Benchmark…` name in DESIGN.md,
# PERFORMANCE.md, README.md or OPERATIONS.md must be a function some
# _test.go file in the tree defines, so the documents cannot cite a check
# that was renamed or deleted.
#
# A `schedd …` or `schedload …` command those four documents quote — a
# backticked span, or a line of a fenced block, with or without `./` or
# `go run ./cmd/` in front — may use only flags that binary's -h lists,
# so no quoted command is left without a binary that runs it. Each binary
# is built once a run.
#
# PERFORMANCE.md and DESIGN.md are held to line budgets, so a change
# replaces its layer's paragraph instead of appending a section; run
# tables belong in `make bench-compare` output, not in the documents.
# Run via `make doclint` (part of `make check`).
set -eu

fail=0
for dir in $(go list -f '{{.Dir}}' ./...); do
    found=0
    for f in "$dir"/*.go; do
        [ -e "$f" ] || continue
        case "$f" in
        *_test.go) continue ;;
        esac
        # A documented file has a comment line directly before the package
        # clause (no blank line between them).
        if awk '
            /^package / { if (prev ~ /^\/\//) ok = 1; exit }
            { prev = $0 }
            END { exit ok ? 0 : 1 }
        ' "$f"; then
            found=1
            break
        fi
    done
    if [ "$found" -eq 0 ]; then
        rel=${dir#"$(pwd)/"}
        echo "doclint: package $rel has no package doc comment" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "doclint: add a // comment block above the package clause in one file per package" >&2
    exit 1
fi

go run ./cmd/doclint -allow scripts/doclint-allow.txt \
    internal/fed internal/instr internal/replica internal/serve internal/sched

defined=$(grep -rhoE --include='*_test.go' --exclude-dir=.bench_build '^func (Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*' . | sed 's/^func //' | sort -u)
for doc in DESIGN.md PERFORMANCE.md README.md OPERATIONS.md; do
    for name in $(grep -ohE '`(Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*' "$doc" | tr -d '`' | sort -u); do
        if ! printf '%s\n' "$defined" | grep -qx "$name"; then
            echo "doclint: $doc names $name, which no _test.go defines" >&2
            fail=1
        fi
    done
done
if [ "$fail" -ne 0 ]; then
    exit 1
fi

bins=$(mktemp -d)
trap 'rm -rf "$bins"' EXIT
for cmd in schedd schedload; do
    go build -o "$bins/$cmd" "./cmd/$cmd"
    "$bins/$cmd" -h | sed -n 's/^  \(-[a-z0-9-]*\).*/\1/p' > "$bins/$cmd.flags"
done
awk '
    # check reads one quoted command line, from its command to the first
    # comment, pipe, list separator or redirection.
    function check(s,   n, i, tok, cmd) {
        sub(/^[ \t$]+/, "", s)
        sub(/^go run \.\/cmd\//, "", s)
        sub(/^\.\//, "", s)
        if (s !~ /^(schedd|schedload) /) return
        sub(/ *(#| [|] |;|&&|>).*/, "", s)
        n = split(s, tok, /[ \t]+/)
        cmd = tok[1]
        for (i = 2; i <= n; i++) {
            gsub(/^[[(]+|[]),.]+$|=.*/, "", tok[i])
            if (tok[i] ~ /^-[a-z][a-z0-9-]*$/ && tok[i] != "-h" && !((cmd, tok[i]) in known)) {
                printf "doclint: %s quotes `%s`, but %s has no %s flag\n", doc, s, cmd, tok[i] > "/dev/stderr"
                bad = 1
            }
        }
    }
    # flush checks every backticked span of the paragraph read so far.
    function flush(   n, i, part) {
        n = split(para, part, "`")
        for (i = 2; i <= n; i += 2) check(part[i])
        para = ""
    }
    FILENAME ~ /\.flags$/ { cmd = FILENAME; sub(/.*\//, "", cmd); sub(/\.flags$/, "", cmd); known[cmd, $0] = 1; next }
    FNR == 1 { flush(); doc = FILENAME; fence = 0; cont = "" }
    /^[ \t]*```/ { flush(); fence = !fence; next }
    fence {
        line = cont $0
        if (line ~ /\\$/) { sub(/\\$/, " ", line); cont = line; next }
        cont = ""
        check(line)
        next
    }
    /^[ \t]*$/ { flush(); next }
    { para = para " " $0 }
    END { flush(); exit bad }
' "$bins/schedd.flags" "$bins/schedload.flags" DESIGN.md PERFORMANCE.md README.md OPERATIONS.md || exit 1

for budget in PERFORMANCE.md:1174 DESIGN.md:1313; do
    doc=${budget%:*}
    max=${budget#*:}
    lines=$(wc -l < "$doc")
    if [ "$lines" -gt "$max" ]; then
        echo "doclint: $doc has $lines lines, over its budget of $max: replace text instead of adding it" >&2
        exit 1
    fi
done

echo "doclint: all packages documented, gated-package exports all carry doc comments, named tests all defined, quoted commands use only their binaries' flags, documents within their line budgets"
