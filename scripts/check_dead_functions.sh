#!/usr/bin/env bash
# Fails when an out-of-line upa:: function in the src/ libraries is kept by
# no bench, example or release_bench binary, unless
# scripts/dead_function_allowlist.txt names it. Also fails on an allow-list
# line that matches no such function, so the list cannot go stale. Every
# function needs a caller outside its own unit test; tests/ is not built.
#
# The build is -O0 with one section per function, linked with
# --gc-sections, so each binary keeps exactly the functions it can reach.
# At -O2, calls inside a translation unit are inlined, and their callees
# would look dead.
#
# Usage: scripts/check_dead_functions.sh   (from any directory; builds into
# build-callers/ and build-callers/releasebench/, reused across runs)
set -euo pipefail
cd "$(dirname "$0")/.."

build=build-callers
allowlist=scripts/dead_function_allowlist.txt
flags=(-DCMAKE_BUILD_TYPE=Debug
       -DCMAKE_CXX_FLAGS=-ffunction-sections
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

targets=()
binaries=()
for source in bench/*.cpp examples/*.cpp; do
  name="$(basename "${source}" .cpp)"
  targets+=("${name}")
  binaries+=("${build}/$(dirname "${source}")/${name}")
done
binaries+=("${build}/releasebench/release_bench")

tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT

# Build output goes to a log that is shown only when a step fails.
quiet() { "$@" > "${tmp}/log" 2>&1 || { cat "${tmp}/log"; exit 1; }; }
quiet cmake -S . -B "${build}" "${flags[@]}"
quiet cmake -S releasebench -B "${build}/releasebench" "${flags[@]}"
quiet cmake --build "${build}" -j"$(nproc)" --target "${targets[@]}"
quiet cmake --build "${build}/releasebench" -j"$(nproc)" --target release_bench

nm --defined-only "${binaries[@]}" | awk 'NF == 3 { print $3 }' \
  | sort -u > "${tmp}/kept"
nm --defined-only "${build}"/src/*/*.a | awk '$2 == "T" { print $3 }' \
  | sort -u > "${tmp}/defined"
comm -23 "${tmp}/defined" "${tmp}/kept" | c++filt \
  | grep '^upa::' | sort > "${tmp}/dead" || true

echo "$(wc -l < "${tmp}/defined") out-of-line symbols in src/;" \
  "$(wc -l < "${tmp}/dead") upa:: symbols" \
  "($(sort -u "${tmp}/dead" | wc -l) functions) kept by no binary"

# One qualified name per line, matched up to the parameter list (ABI tags
# such as [abi:cxx11] ignored); '#' starts the reason.
sed 's/#.*//; s/[[:space:]]*$//; s/^[[:space:]]*//' "${allowlist}" \
  | grep -v '^$' > "${tmp}/allowed" || true

sort -u "${tmp}/dead" | awk -v allowlist="${tmp}/allowed" '
  BEGIN { while ((getline line < allowlist) > 0) allowed[++n] = line }
  {
    name = $0
    gsub(/\[abi:[^]]*\]/, "", name)
    listed = 0
    for (i = 1; i <= n; i++) {
      if (index(name, allowed[i] "(") == 1) { listed = 1; used[i] = 1 }
    }
    if (!listed) { print "dead function: " $0; status = 1 }
  }
  END {
    for (i = 1; i <= n; i++) {
      if (!used[i]) {
        print "stale allow-list entry (no dead function matches): " allowed[i]
        status = 1
      }
    }
    exit status
  }'
