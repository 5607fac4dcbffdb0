#!/usr/bin/env bash
# Fails when the fault sites in src/ differ from the first column of the
# fault-site table in DESIGN.md §7. A site is the string literal named by
# UPA_FAILPOINT(...), UPA_FAILPOINT_HIT(...) or a manual
# Failpoints::Evaluate("...") call.
#
# Usage: scripts/check_fault_sites.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

in_src=$(grep -rhoE '(UPA_FAILPOINT(_HIT)?|Evaluate)\("[^"]+"\)' \
    --include='*.h' --include='*.cpp' src |
  sed -E 's/^[^"]*"([^"]+)"\)$/\1/' | sort -u)
in_design=$(sed -n '/^### Fault-site inventory/,/^## /p' DESIGN.md |
  sed -nE 's/^\| `([^`]+)` \|.*/\1/p' | sort -u)

status=0
while IFS= read -r site; do
  [[ -n "${site}" ]] || continue
  echo "fault site ${site} is in src/ but not in DESIGN.md's inventory"
  status=1
done < <(comm -23 <(echo "${in_src}") <(echo "${in_design}"))
while IFS= read -r site; do
  [[ -n "${site}" ]] || continue
  echo "fault site ${site} is in DESIGN.md's inventory but not in src/"
  status=1
done < <(comm -13 <(echo "${in_src}") <(echo "${in_design}"))
exit "${status}"
