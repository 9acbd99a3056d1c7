#!/usr/bin/env bash
# Cross-crate dead-public-API sweep (warnalyzer-style).
#
# rustc's dead_code lint stops at crate boundaries: an item that is
# `pub` is "used" as far as its own crate is concerned, even when no
# other workspace crate (or test, bench, or binary) ever touches it.
# This script approximates the cross-crate check with a grep heuristic:
# for every `pub fn|struct|enum|trait|const|type` declared under
# crates/*/src, count identifier occurrences everywhere else in the
# workspace (other files in the same crate included — a helper used
# only beside its own definition is still suspicious API surface).
# Zero occurrences outside the defining file => reported.
#
# Intentional exports (public API kept for downstream users, trait
# impls resolved by name, serde shapes) live in ci/deadpub_allowlist.txt
# — one identifier per line, `#` comments allowed. An entry must name a
# declared public item: a stale entry (its item deleted or renamed) is
# a finding too, so the allowlist cannot outlive what it excuses.
#
# Exit code: 1 when non-allowlisted findings or stale allowlist entries
# exist, else 0. CI blocks on it.
set -euo pipefail
cd "$(dirname "$0")/.."

allowlist=ci/deadpub_allowlist.txt
findings=0
checked=0

# Identifiers permitted to be unreferenced.
declare -A allowed
allow_count=0
if [[ -f "$allowlist" ]]; then
    while IFS= read -r line; do
        line="${line%%#*}"
        line="$(echo "$line" | tr -d '[:space:]')"
        if [[ -n "$line" ]]; then
            allowed["$line"]=1
            allow_count=$((allow_count + 1))
        fi
    done < "$allowlist"
fi

# All declarations: file:line:identifier. Skips #[doc(hidden)]-free
# detection niceties — this is a heuristic, the allowlist absorbs noise.
decls=$(grep -rn --include='*.rs' -E '^[[:space:]]*pub (async )?(fn|struct|enum|trait|const|type) [A-Za-z_][A-Za-z0-9_]*' crates/*/src \
    | sed -E 's/^([^:]+):([0-9]+):[[:space:]]*pub (async )?(fn|struct|enum|trait|const|type) ([A-Za-z_][A-Za-z0-9_]*).*/\1:\2:\5/')

# Stale allowlist entries: identifiers no public declaration carries.
declare -A declared
while IFS=: read -r _ _ ident; do
    [[ -n "$ident" ]] && declared["$ident"]=1
done <<< "$decls"
for ident in "${!allowed[@]}"; do
    if [[ -z "${declared[$ident]:-}" ]]; then
        echo "stale allowlist entry: $ident (no public item of that name)"
        findings=$((findings + 1))
    fi
done

while IFS=: read -r file line ident; do
    [[ -z "$ident" ]] && continue
    [[ -n "${allowed[$ident]:-}" ]] && continue
    checked=$((checked + 1))
    # Occurrences of the identifier anywhere in the workspace outside
    # the defining file (sources, integration tests, benches, docs get
    # no say — docs referencing a dead item keep it dead).
    if ! grep -rqw --include='*.rs' --exclude-dir=target "$ident" crates tests --exclude="$(basename "$file")" 2>/dev/null; then
        # --exclude matches by basename and may drop same-named files in
        # other crates; re-check precisely before reporting.
        uses=$(grep -rlw --include='*.rs' "$ident" crates tests 2>/dev/null | grep -cv "^$file\$" || true)
        if [[ "$uses" -eq 0 ]]; then
            echo "dead-pub? $file:$line $ident"
            findings=$((findings + 1))
        fi
    fi
done <<< "$decls"

echo
echo "checked $checked public declarations; $findings findings (allowlist: $allow_count entries)"
if [[ "$findings" -gt 0 ]]; then
    echo "add intentional exports to $allowlist, delete the item, or drop the stale entry"
    exit 1
fi
