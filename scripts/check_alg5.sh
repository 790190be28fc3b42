#!/usr/bin/env bash
# Algorithm 5 has one implementation, Slicer_contract.verify, which the
# contract and the user-side Verifier both call (DESIGN.md §5, "One
# Algorithm 5"). This lint fails if any other .ml file under lib/ or
# bin/ calls the primitives it is built from: Rsa_acc.verify_mem,
# Rsa_acc.verify_mem_batch or Prime_rep.of_offset. A second copy of the
# check would have to call one of them. Run by `dune runtest`, or
# directly from the repo root.
set -u

cd "$(dirname "$0")/.." || exit 1

home=lib/chain/slicer_contract.ml
[ -f "$home" ] || { echo "check_alg5: $home not found" >&2; exit 1; }

# grep exits 1 on zero matches, which is the passing case.
hits=$(grep -rnE 'Rsa_acc\.verify_mem|Prime_rep\.of_offset' lib bin --include='*.ml' \
       | grep -v "^$home:") || true

if [ -n "$hits" ]; then
  echo "$hits" >&2
  echo "check_alg5: only $home may call Rsa_acc.verify_mem, Rsa_acc.verify_mem_batch or Prime_rep.of_offset; call Slicer_contract.verify instead" >&2
  exit 1
fi
echo "check_alg5: Algorithm 5 runs only in $home"
