#!/usr/bin/env bash
# State belongs to an instance, not to a process-global table (ROADMAP,
# north star and item 10). This lint fails if a .ml file under lib/
# binds a top-level value to Hashtbl.create, except the two tables that
# stay process-global, each for a measured reason:
#   lib/accumulator/prime_rep.ml:cache - the H_prime memo. perfbench
#     reads Prime_rep.cache_stats (), and the contract's hinted check
#     answers from the cloud's primes there; a miss costs a 272-bit
#     Baillie-PSW test, 92-184 us (numtheory/bpsw-272).
#   lib/chain/slicer_contract.ml:memo - the Algorithm-5 memo. perfbench
#     calls Verifier.verify_claims without an instance, and a search
#     checked from the memo costs 0.11-0.19 ms against 1.07-1.18 ms for
#     the check itself (EXPERIMENTS, "Three process-global tables go").
# An allowed table that no longer exists fails too, so the list cannot
# go stale. Run by `dune runtest`, or directly from the repo root.
set -u

cd "$(dirname "$0")/.." || exit 1

allowed="lib/accumulator/prime_rep.ml:cache lib/chain/slicer_contract.ml:memo"

# Each top-level binding, from its column-0 `let` (or `and`) to the
# next column-0 line, is joined into one line. A binding with no
# parameters whose body starts with Hashtbl.create is a table that
# lives as long as the process.
tables=$(find lib -name '*.ml' | sort | while read -r f; do
  awk -v file="$f" '
    function flush(  name) {
      if (text ~ /^(let|and) +(rec +)?[a-z_][A-Za-z0-9_]* *(:[^=]*)?= *Hashtbl\.create/) {
        name = text
        sub(/^(let|and) +(rec +)?/, "", name)
        sub(/[^A-Za-z0-9_].*/, "", name)
        print file ":" name
      }
      text = ""
    }
    /^[^ \t]/ { flush(); if ($0 ~ /^(let|and) /) text = $0; next }
    text != "" { text = text " " $0 }
    END { flush() }' "$f"
done)

status=0
for t in $tables; do
  case " $allowed " in
    *" $t "*) ;;
    *)
      echo "check_globals: $t is a process-global Hashtbl; give it to the instance that owns it" >&2
      status=1
      ;;
  esac
done
for a in $allowed; do
  case " $(echo $tables) " in
    *" $a "*) ;;
    *)
      echo "check_globals: allowed table $a no longer exists; remove it from the allow-list" >&2
      status=1
      ;;
  esac
done
[ "$status" -eq 0 ] && echo "check_globals: process-global tables: $allowed"
exit "$status"
