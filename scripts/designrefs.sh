#!/usr/bin/env sh
# designrefs.sh — refuse a dangling DESIGN.md section reference.
#
# The section numbers are those of DESIGN.md's `##` and `###` headings
# ("## 5. Fidelity notes" is 5, "### 5.1 Background scheduler" is
# 5.1). Every `DESIGN.md §N` or `DESIGN.md §N.M` in a .go, .md or .sh
# file, the Makefile or ci.yml must name one of them, so renumbering a
# section without fixing its references fails `make build`.
set -eu
cd "$(dirname "$0")/.."
sections=$(sed -n 's/^###\{0,1\} \([0-9][0-9]*\(\.[0-9][0-9]*\)\{0,1\}\)\.\{0,1\} .*/\1/p' DESIGN.md)
refs=$(find . \( -path ./.git -o -path ./.bench_build \) -prune -o \
	\( -name '*.go' -o -name '*.md' -o -name '*.sh' -o -name Makefile -o -name ci.yml \) -print |
	xargs grep -noE 'DESIGN\.md §[0-9]+(\.[0-9]+)?' || true)
dangling=$(echo "$refs" | awk -v known="$(echo $sections)" '
	BEGIN { n = split(known, s, " "); for (i = 1; i <= n; i++) ok[s[i]] = 1 }
	NF { sec = $0; sub(/.*§/, "", sec); if (!(sec in ok)) print }')
if [ -n "$dangling" ]; then
	echo "designrefs: DESIGN.md has no such section (its sections: $(echo $sections)):" >&2
	echo "$dangling" >&2
	exit 1
fi
echo "designrefs: $(echo "$refs" | grep -c .) DESIGN.md § references, each to one of $(echo "$sections" | grep -c .) sections"
