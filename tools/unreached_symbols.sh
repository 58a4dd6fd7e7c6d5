#!/usr/bin/env bash
# Lists the library functions that no program reaches.
#
# Builds every program without tests (tools, examples, bench/) and, as its
# own build, perfbench/, all at -O0 with one section per function, and links
# them with --gc-sections so the linker drops every function no program
# calls. Then prints the strong (T) symbols of libdfp.a that no program
# binary keeps, demangled, one per line.
#
# The output is compared with tools/unreached_keep.txt, the functions that
# stay although no program calls them (outside-input readers, protocol
# mirrors, test oracles and test observation hooks). The script exits 1 when
# an unreached function is missing from that list or a listed one is reached
# (or gone), so the list stays exact. Header-only and template code is not
# covered: it has no strong symbol in the archive.
#
# Usage (from anywhere):
#   tools/unreached_symbols.sh            # build dir under ${TMPDIR:-/tmp}
#   JOBS=4 tools/unreached_symbols.sh
#   KEEP_BUILD=1 tools/unreached_symbols.sh   # leave the build dir behind
set -euo pipefail
export LC_ALL=C

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
KEEP_LIST="${ROOT}/tools/unreached_keep.txt"
JOBS="${JOBS:-2}"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/dfp-unreached.XXXXXX")"
if [[ -z "${KEEP_BUILD:-}" ]]; then
    trap 'rm -rf "${WORK}"' EXIT
else
    echo "build dir: ${WORK}" >&2
fi

FLAGS=(
    -DCMAKE_BUILD_TYPE=Debug
    -DCMAKE_CXX_FLAGS_DEBUG=-O0
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections"
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)

build() {  # build <source dir> <build dir> [cmake options...]
    local src="$1" out="$2"
    shift 2
    cmake -S "${src}" -B "${out}" "${FLAGS[@]}" "$@" >"${out}.log" 2>&1 &&
        cmake --build "${out}" -j "${JOBS}" >>"${out}.log" 2>&1 || {
        echo "build failed; see ${out}.log" >&2
        trap - EXIT
        exit 2
    }
}

echo "building programs (log: ${WORK}/main.log)" >&2
build "${ROOT}" "${WORK}/main" -DDFP_BUILD_TESTS=OFF
echo "building perfbench (log: ${WORK}/perfbench.log)" >&2
build "${ROOT}/perfbench" "${WORK}/perfbench"

LIB="${WORK}/main/src/libdfp.a"
nm --defined-only "${LIB}" 2>/dev/null | awk '$2 == "T" { print $3 }' |
    sort -u >"${WORK}/library.txt"

: >"${WORK}/kept_raw.txt"
while IFS= read -r -d '' bin; do
    nm --defined-only "${bin}" | awk '{ print $3 }' >>"${WORK}/kept_raw.txt"
done < <(find "${WORK}/main" "${WORK}/perfbench" -path '*/CMakeFiles' -prune -o \
    -type f -perm -u+x -print0)
sort -u "${WORK}/kept_raw.txt" >"${WORK}/kept.txt"

comm -23 "${WORK}/library.txt" "${WORK}/kept.txt" | c++filt | sort >"${WORK}/unreached.txt"
cat "${WORK}/unreached.txt"

grep -v -e '^#' -e '^[[:space:]]*$' "${KEEP_LIST}" | sort >"${WORK}/keep.txt"
status=0
extra="$(comm -23 "${WORK}/unreached.txt" "${WORK}/keep.txt")"
if [[ -n "${extra}" ]]; then
    echo "unreached and not in tools/unreached_keep.txt (delete them, or list why they stay):" >&2
    sed 's/^/  /' <<<"${extra}" >&2
    status=1
fi
stale="$(comm -13 "${WORK}/unreached.txt" "${WORK}/keep.txt")"
if [[ -n "${stale}" ]]; then
    echo "listed in tools/unreached_keep.txt but reached or gone (drop them from the list):" >&2
    sed 's/^/  /' <<<"${stale}" >&2
    status=1
fi
echo "$(wc -l <"${WORK}/unreached.txt") unreached, $(wc -l <"${WORK}/keep.txt") kept on purpose" >&2
exit "${status}"
