#!/usr/bin/env bash
# Fails when a header under src/ has no #include in src/, bench/, examples/
# or releasebench/ other than its own .cpp. Every module needs a caller
# outside its own unit test; tests/ does not count as a caller.
#
# Usage: scripts/check_orphan_modules.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
while IFS= read -r header; do
  own="src/${header%.h}.cpp"
  if ! grep -rlF --include='*.h' --include='*.cpp' "#include \"${header}\"" \
      src bench examples releasebench | grep -vxF "${own}" | grep -q .; then
    echo "orphan module: src/${header} has no includer outside tests/"
    status=1
  fi
done < <(cd src && find . -name '*.h' | sed 's|^\./||' | sort)
exit "${status}"
