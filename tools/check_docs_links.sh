#!/usr/bin/env bash
# Fail on broken intra-repo markdown links in README.md and docs/*.md.
#
# Checks every inline link target `[text](target)`: external links
# (scheme://, mailto:) are skipped, pure-anchor links (#section) are
# skipped, and everything else must exist on disk relative to the
# file containing the link (any #fragment is stripped first).
#
# Additionally enforces the documentation contract: the pages listed
# in required_pages must exist AND be linked from README.md, so a
# page can neither be deleted nor orphaned without CI noticing.
#
# Usage: tools/check_docs_links.sh   (from anywhere; repo-relative)
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
status=0
checked=0

required_pages="docs/architecture.md docs/trace-format.md \
docs/repro-guide.md docs/workloads.md docs/tuning.md docs/fleet.md \
docs/trace-query.md docs/what-if.md docs/streaming.md \
docs/scenarios.md"
for page in $required_pages; do
    if [ ! -f "$repo_root/$page" ]; then
        echo "MISSING: required page $page does not exist" >&2
        status=1
    elif ! grep -q "]($page" "$repo_root/README.md"; then
        echo "ORPHANED: $page is not linked from README.md" >&2
        status=1
    fi
done

for doc in "$repo_root"/README.md "$repo_root"/docs/*.md; do
    [ -f "$doc" ] || continue
    dir="$(dirname "$doc")"
    # One inline link target per line. Markdown images share the
    # (target) syntax, so they are covered too.
    while IFS= read -r target; do
        case "$target" in
            *://*|mailto:*) continue ;;  # external
            '#'*) continue ;;            # same-file anchor
            # GitHub UI routes (CI badge / workflow-run pages): real
            # on github.com, never files in the tree.
            *actions/workflows/*) continue ;;
            '') continue ;;
        esac
        path="${target%%#*}"             # strip fragment
        checked=$((checked + 1))
        if [ ! -e "$dir/$path" ] && [ ! -e "$repo_root/$path" ]; then
            echo "BROKEN: $doc -> $target" >&2
            status=1
        fi
    done < <(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//')
done

if [ "$checked" -eq 0 ]; then
    echo "no intra-repo links found — checker misconfigured?" >&2
    exit 1
fi
echo "checked $checked link(s), $( [ $status -eq 0 ] && echo all resolve || echo BROKEN LINKS FOUND )"
exit $status
