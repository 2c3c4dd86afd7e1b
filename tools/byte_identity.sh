#!/usr/bin/env bash
# Check that this checkout writes every seeded artifact byte for byte as
# commit REF does.
#
#   tools/byte_identity.sh REF
#
# Extracts REF with `git archive` into a temporary directory, copies this
# checkout's tools/artifacts.sh into it, runs that script in both trees
# and compares the two output directories with `diff -r`. This checkout
# means its working tree, uncommitted changes included. When any file
# differs or exists on one side only, it ends with a line "K of M
# artifacts differ from REF:" on stderr, M counting the files of both
# sides, and the `diff -rq` list of what differs, under out-ref/ and
# out-this/ (a directory on one side only is one entry).
# Exits 0 when every file is identical, 1 when any differs, 2 on bad
# usage or an unknown REF. The temporary directory is removed on exit.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 REF" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
if ! git -C "$root" rev-parse --quiet --verify "$1^{commit}" > /dev/null 2>&1; then
    echo "$0: unknown commit $1" >&2
    exit 2
fi
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/ref"
git -C "$root" archive "$1" | tar -x -C "$tmp/ref"
mkdir -p "$tmp/ref/tools"
cp "$root/tools/artifacts.sh" "$tmp/ref/tools/artifacts.sh"
bash "$tmp/ref/tools/artifacts.sh" "$tmp/out-ref"
bash "$root/tools/artifacts.sh" "$tmp/out-this"
cd "$tmp"
if ! diff -r out-ref out-this; then
    differing="$(diff -rq out-ref out-this || true)"
    total="$( (cd out-ref && find . -type f; cd ../out-this && find . -type f) | sort -u | wc -l)"
    echo "$(wc -l <<< "$differing") of $total artifacts differ from $1:" >&2
    echo "$differing" >&2
    exit 1
fi
echo "all $(find out-this -type f | wc -l) artifacts identical to $1"
