#!/bin/sh
# lint-diagnostics.sh — the typed-diagnostics lint gate.
#
# The compilation front end (diagram model, checker, compiler, codegen)
# and the pass pipeline that composes it report every problem as a
# typed diag.Diagnostic with a stable rule code; a bare fmt.Errorf
# there would produce an untyped error that -diag-json consumers and
# the editor message strip cannot key on.
# The checkpoint reader (internal/hypercube/checkpoint.go) reads files
# from outside the program, so it is gated file by file the same way:
# every checkpoint error is an R042 diagnostic.
# This script rejects any fmt.Errorf in those packages and files.
# Construct errors with diag.Errorf / diag.ErrorfAt (or
# checker.ruleErr) instead.
#
# Exit status: 0 clean, 1 violations found.
set -eu

cd "$(dirname "$0")/.."

gated="internal/diagram internal/checker internal/compiler internal/codegen internal/pipeline"
gated_files="internal/hypercube/checkpoint.go"

bad=0
for pkg in $gated; do
    # Non-test sources only: tests may build arbitrary errors.
    for f in "$pkg"/*.go; do
        case "$f" in
        *_test.go) continue ;;
        esac
        if grep -Hn 'fmt\.Errorf' "$f"; then
            bad=1
        fi
    done
done
for f in $gated_files; do
    if [ ! -f "$f" ]; then
        echo "lint-diagnostics: gated file $f is missing" >&2
        bad=1
    elif grep -Hn 'fmt\.Errorf' "$f"; then
        bad=1
    fi
done

if [ "$bad" -ne 0 ]; then
    echo "lint-diagnostics: bare fmt.Errorf in a diagnostic-typed package." >&2
    echo "Use diag.Errorf(rule, ...) / diag.ErrorfAt(rule, pos, ...) so the" >&2
    echo "error carries a stable rule code (see internal/diag/codes.go)." >&2
    exit 1
fi
echo "lint-diagnostics: ok (no bare fmt.Errorf in $gated $gated_files)"
