#!/bin/sh
# Vectorization witness for the serving kernel's C passes.
#
# Compiles lib/genlibm/genlibm_stubs.c and lib/polyeval/polyeval_stubs.c
# once each with the flags their dune files give them (on top of
# ocamlopt's own C flags) plus -fopt-info-vec-optimized, and fails
# unless the x86-64-v3 clone of every pass loop reports "loop vectorized
# using 32 byte vectors" (the baseline clone has 16-byte vectors at
# most).  Identical bits can hide a 2-3x slowdown that no test sees.
#
# The loops are keyed by name, not by line: each carries a
# `/* vec: NAME */` comment on its `for` line, and the witness looks up
# that line's number in the compiler's report.  The sweep's loops come
# from one macro, so its marker stands for every `case ...: SWEEP(...)`
# line, where gcc reports each expansion.
#
# Skipped, with a message, off x86_64 or with a C compiler other than
# gcc.  Usage: tools/vec_witness.sh
set -eu

cd "$(dirname "$0")/.."

if [ "$(uname -m)" != x86_64 ]; then
  echo "vectorization witness skipped: not an x86_64 host"; exit 0
fi
cc=$(ocamlopt -config | sed -n 's/^c_compiler: //p')
case "$cc" in
  *gcc*) ;;
  *) echo "vectorization witness skipped: C compiler is $cc, not gcc"; exit 0 ;;
esac
cflags=$(ocamlopt -config | sed -n 's/^ocamlc_cflags: //p')
cppflags=$(ocamlopt -config | sed -n 's/^ocamlc_cppflags: //p')
where=$(ocamlopt -where)

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# check FILE NAME...: every named loop of FILE is vectorized in 32 bytes.
check() {
  file=$1; shift
  dir=$(dirname "$file")
  # The (:standard ...) flags of the library's foreign_stubs stanza.
  flags=$(sed 's/;.*//' "$dir/dune" | tr '\n' ' ' \
            | sed -n 's/.*(:standard \([^()]*\)).*/\1/p')
  [ -n "$flags" ] || { echo "no C flags found in $dir/dune"; exit 1; }
  report="$work/$(basename "$file").opt"
  # shellcheck disable=SC2086  # the flag lists are word lists
  $cc $cflags $cppflags $flags -I "$where" -c "$file" -o "$work/stub.o" \
    -fopt-info-vec-optimized="$report"
  for name in "$@"; do
    marker=$(grep -n "vec: $name\( \|\*\)" "$file" | cut -d: -f1)
    [ -n "$marker" ] || { echo "$file: no loop marked 'vec: $name'"; exit 1; }
    if [ "$name" = sweep ]; then
      lines=$(grep -n 'case .*: SWEEP(' "$file" | cut -d: -f1)
      [ -n "$lines" ] || { echo "$file: no SWEEP cases"; exit 1; }
    else
      lines=$marker
    fi
    for line in $lines; do
      grep -q "^$file:$line:[0-9]*: optimized: loop vectorized using 32 byte vectors" \
        "$report" || {
        echo "$file:$line: loop '$name' is not vectorized in the x86-64-v3 clone"
        echo "compiler report:"; cat "$report"; exit 1
      }
    done
    echo "vectorized: $name ($(echo "$lines" | wc -w) loop(s))"
  done
}

check lib/genlibm/genlibm_stubs.c "exp pass 1" "log pass 1" select \
  "exp compensate" "log compensate"
check lib/polyeval/polyeval_stubs.c sweep
echo "every pass loop is vectorized in the x86-64-v3 clone"
