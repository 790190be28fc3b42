#!/usr/bin/env bash
# Algorithm 5 has one implementation, Slicer_contract.verify, which the
# contract and the user-side Verifier both call (DESIGN.md §5, "One
# Algorithm 5"). This lint fails if any other .ml file under lib/ or
# bin/ calls the primitives it is built from: Rsa_acc.verify_mem,
# Rsa_acc.verify_mem_batch or Prime_rep.of_offset. A second copy of the
# check would have to call one of them. It also fails if a .ml file
# under lib/ or bin/ other than the owner's and the cloud's names the
# memoized walk, Prime_rep.to_prime or Prime_rep.to_primes: every
# verifier checks the prime a claim's committed hint names, so only the
# parties that make primes walk (Prime_rep.to_prime_uncached, the walk
# without the memo, does not count). And the contract has one deploy
# site: it fails if a .ml file under lib/ or bin/ other than
# lib/core/station.ml names Slicer_contract.deploy, so every database is
# stood up through Station.deploy with its service's shard and dispute
# window (DESIGN.md §6). And the accumulator's factors stay with the
# owner: it fails if a .ml file under lib/ or bin/ other than
# lib/core/owner.ml and lib/accumulator/rsa_acc.ml names their accessor,
# Rsa_acc.factors, so no other party computes with them and no codec
# can write them (DESIGN.md §6). Run by `dune runtest`, or directly from
# the repo root.
set -u

cd "$(dirname "$0")/.." || exit 1

home=lib/chain/slicer_contract.ml
walkers="lib/core/owner.ml lib/core/cloud.ml"
deployer=lib/core/station.ml
keepers="lib/core/owner.ml lib/accumulator/rsa_acc.ml"
for f in $home $walkers $deployer $keepers; do
  [ -f "$f" ] || { echo "check_alg5: $f not found" >&2; exit 1; }
done

status=0

# grep exits 1 on zero matches, which is the passing case.
hits=$(grep -rnE 'Rsa_acc\.verify_mem|Prime_rep\.of_offset' lib bin --include='*.ml' \
       | grep -v "^$home:") || true
if [ -n "$hits" ]; then
  echo "$hits" >&2
  echo "check_alg5: only $home may call Rsa_acc.verify_mem, Rsa_acc.verify_mem_batch or Prime_rep.of_offset; call Slicer_contract.verify instead" >&2
  status=1
fi

walks=$(grep -rnE 'Prime_rep\.to_primes?\b' lib bin --include='*.ml') || true
for f in $walkers; do
  walks=$(printf '%s\n' "$walks" | grep -v "^$f:") || true
done
if [ -n "$walks" ]; then
  echo "$walks" >&2
  echo "check_alg5: only $walkers may walk (Prime_rep.to_prime, Prime_rep.to_primes); a verifier checks the claim's hint through Slicer_contract.verify" >&2
  status=1
fi

deploys=$(grep -rnE 'Slicer_contract\.deploy\b' lib bin --include='*.ml' \
          | grep -v "^$deployer:") || true
if [ -n "$deploys" ]; then
  echo "$deploys" >&2
  echo "check_alg5: only $deployer may call Slicer_contract.deploy; stand a database up through Station.deploy" >&2
  status=1
fi

opens=$(grep -rnE 'Rsa_acc\.factors\b' lib bin --include='*.ml') || true
for f in $keepers; do
  opens=$(printf '%s\n' "$opens" | grep -v "^$f:") || true
done
if [ -n "$opens" ]; then
  echo "$opens" >&2
  echo "check_alg5: only $keepers may name Rsa_acc.factors; every other party holds (modulus, generator) only" >&2
  status=1
fi

[ "$status" -eq 0 ] && echo "check_alg5: Algorithm 5 runs only in $home; only $walkers walk; only $deployer deploys; only $keepers open the factors"
exit "$status"
