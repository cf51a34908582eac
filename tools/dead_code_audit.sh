#!/usr/bin/env bash
# Dead-code audit: lists the out-of-line functions of src/ that no shipped
# program links, and compares that list with tools/dead_code_audit.txt.
#
# The shipped programs are the bench/ programs (micro_benchmarks included),
# the examples, stellar_sim and the perfbench package's stellar_perfbench.
# The tree and the perfbench package are built out of tree at -O0 with one
# section per function and linked with --gc-sections, so a function stays in
# a program only if something that program can run reaches it. A function
# counts if it is a global text symbol (nm's `T`) of a src/ archive; header
# templates and inline functions are weak symbols and are not counted.
#
#   tools/dead_code_audit.sh                   # build dir: build-audit/
#   AUDIT_DIR=dir JOBS=n tools/dead_code_audit.sh
#
# It prints the list and exits 1 if it differs from tools/dead_code_audit.txt
# in either direction. Each line of that file is one function that stays on
# purpose with no shipped caller, with its reason:
#   <demangled name without [abi:cxx11]>  # <why it stays>
set -euo pipefail

cd "$(dirname "$0")/.."

AUDIT_DIR=${AUDIT_DIR:-build-audit}
JOBS=${JOBS:-$(nproc)}
LIST=tools/dead_code_audit.txt
flags=(-DCMAKE_BUILD_TYPE=Debug "-DCMAKE_CXX_FLAGS_DEBUG=-O0 -g0 -ffunction-sections -fdata-sections"
       -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections)

# One program per source file of bench/ and examples/, plus the CLI.
programs=()
for src in bench/*.cc examples/*.cpp; do
  programs+=("$(basename "${src%.*}")")
done

cmake -B "$AUDIT_DIR" -S . "${flags[@]}" >/dev/null
cmake --build "$AUDIT_DIR" -j "$JOBS" --target "${programs[@]}" stellar_sim_cli >/dev/null
# The perfbench package builds every src/ library and its one program.
cmake -B "$AUDIT_DIR/perfbench" -S perfbench "${flags[@]}" >/dev/null
cmake --build "$AUDIT_DIR/perfbench" -j "$JOBS" >/dev/null

binaries=("$AUDIT_DIR/tools/stellar_sim" "$AUDIT_DIR/perfbench/stellar_perfbench")
for name in "${programs[@]}"; do
  if [[ -x "$AUDIT_DIR/bench/$name" ]]; then
    binaries+=("$AUDIT_DIR/bench/$name")
  else
    binaries+=("$AUDIT_DIR/examples/$name")
  fi
done

# Demangled names of the global text symbols in the given files.
text_symbols() {
  nm -C --defined-only "$@" | sed -n 's/^[0-9a-f]* T //p' | sed 's/\[abi:cxx11\]//g' |
    LC_ALL=C sort -u
}

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mapfile -t archives < <(find "$AUDIT_DIR/perfbench/stellar" -name 'lib*.a' | sort)
text_symbols "${archives[@]}" >"$tmp/library"
text_symbols "${binaries[@]}" >"$tmp/shipped"
LC_ALL=C comm -23 "$tmp/library" "$tmp/shipped" >"$tmp/dead"

unreasoned=$(sed -e '/^#/d' -e '/^[[:space:]]*$/d' -e '/  # ./d' "$LIST")
if [[ -n "$unreasoned" ]]; then
  printf "dead_code_audit: every line of %s needs '  # <reason>':\n%s\n" "$LIST" "$unreasoned" >&2
  exit 1
fi
sed -e '/^#/d' -n -e 's/  # .*$//p' "$LIST" | LC_ALL=C sort -u >"$tmp/listed"

echo "src/ functions no shipped program reaches ($(wc -l <"$tmp/dead") of $(wc -l <"$tmp/library")):"
sed 's/^/  /' "$tmp/dead"
if ! LC_ALL=C cmp -s "$tmp/dead" "$tmp/listed"; then
  echo "dead_code_audit: the list differs from $LIST" >&2
  LC_ALL=C comm -23 "$tmp/dead" "$tmp/listed" | sed 's/^/  unlisted (delete it, or list it with a reason): /' >&2
  LC_ALL=C comm -13 "$tmp/dead" "$tmp/listed" | sed 's/^/  listed but shipped or gone (remove its line): /' >&2
  exit 1
fi
echo "dead_code_audit: matches $LIST"
