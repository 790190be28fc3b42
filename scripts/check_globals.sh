#!/usr/bin/env bash
# State belongs to an instance, not to a process-global table or buffer
# (ROADMAP, north star and item 10). This lint fails if a .ml file under
# lib/ binds a module-level value to Hashtbl.create, Buffer.create or
# Bytes.create, at the top level or inside a nested struct (Obs.Export
# is one), except the two tables that stay process-global, each for a
# measured reason:
#   lib/accumulator/prime_rep.ml:cache - the H_prime memo. perfbench
#     reads Prime_rep.cache_stats (), and the contract's hinted check
#     answers from the cloud's primes there; a miss costs a 272-bit
#     Baillie-PSW test, 92-184 us (numtheory/bpsw-272).
#   lib/chain/slicer_contract.ml:memo - the Algorithm-5 memo. perfbench
#     calls Verifier.verify_claims without an instance, and a search
#     checked from the memo costs 0.11-0.19 ms against 1.07-1.18 ms for
#     the check itself (EXPERIMENTS, "Three process-global tables go").
# No buffer is allowed: one shared by every caller is written by
# concurrent scrapes and renders, so a render buffer belongs to the
# instance that locks it (Obs.Registry owns the exposition's).
# An allowed table that no longer exists fails too, so the list cannot
# go stale.
# The C stubs under lib/ run on several domains at once, so they keep
# no mutable state between calls either: a file-scope object in a .c or
# .h file under lib/ must be const (a pointer const itself, not only
# what it points to) or thread-local. Static functions and const tables
# pass; a table of residues or powers is immutable data, built at
# compile time or handed to the kernel, never a C static filled on
# first use. Objects that a macro defines are not seen.
# Run by `dune runtest`, or directly from the repo root.
set -u

cd "$(dirname "$0")/.." || exit 1

allowed="lib/accumulator/prime_rep.ml:cache lib/chain/slicer_contract.ml:memo"

# Each module-level binding, from its `let` (or `and`) at its
# structure's item column to the next line at or left of that column,
# is joined into one line. A `struct` that ends a line opens a nested
# structure whose items sit at the column of its first line, and the
# `end` back at the column of its opening line closes it, so a
# `let ... in` inside a function body, always deeper, is never an item.
# A binding with no parameters whose body starts with one of the
# constructors is state that lives as long as the process; it prints as
# file:name, or file:Module.name inside a nested struct.
bindings=$(find lib -name '*.ml' | sort | while read -r f; do
  awk -v file="$f" '
    function flush(  name, kind) {
      if (text ~ /^(let|and) +(rec +)?[a-z_][A-Za-z0-9_'"'"']* *(:[^=]*)?= *(Hashtbl|Buffer|Bytes)\.create/) {
        name = text
        sub(/^(let|and) +(rec +)?/, "", name)
        sub(/[^A-Za-z0-9_'"'"'].*/, "", name)
        kind = text
        sub(/^[^=]*= */, "", kind)
        sub(/\..*/, "", kind)
        print kind " " file ":" path name
      }
      text = ""
    }
    BEGIN { depth = 0; item[0] = 0; path = ""; pending = 0 }
    /^[ \t]*$/ { next }
    {
      match($0, /^ */)
      ind = RLENGTH
      line = substr($0, ind + 1)
      if (pending) { depth++; item[depth] = ind; opened[depth] = open_ind; names[depth] = open_name; pending = 0 }
      if (ind <= item[depth]) flush()
      if (depth > 0 && ind <= opened[depth] && line ~ /^end([^A-Za-z0-9_]|$)/) {
        sub(/[A-Za-z0-9_]*\.$/, "", path)
        depth--
        next
      }
      if (ind == item[depth] && line ~ /^(let|and) /) text = line
      else if (text != "") text = text " " line
      if (line ~ /(^|[^A-Za-z0-9_])struct *$/) {
        flush()
        pending = 1
        open_ind = ind
        open_name = line
        if (sub(/^module +(rec +)?/, "", open_name)) sub(/[^A-Za-z0-9_].*/, "", open_name)
        else open_name = "_"
        path = path open_name "."
      }
    }
    END { flush() }' "$f"
done)

tables=$(echo "$bindings" | awk '$1 == "Hashtbl" { print $2 }')
buffers=$(echo "$bindings" | awk '$1 == "Buffer" || $1 == "Bytes" { print $2 }')

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
for b in $buffers; do
  echo "check_globals: $b is a process-global buffer; give it to the instance that owns it" >&2
  status=1
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

# Each file with its comments, string and character literals and
# preprocessor lines blanked, cut into file-scope statements at braces
# and semicolons: a brace after a `)` with no `=` is a function body,
# skipped whole; any other brace (an initializer, a struct body) is
# skipped inside its statement. A statement with no parenthesis but a
# function pointer's `(*` declares a function; one that starts with
# typedef, or is a bare struct, union or enum, declares a type; every
# other one declares objects, and prints unless it is thread-local or
# const after its last `*`. So does a static declared inside a function
# body.
cglobals=$(find lib \( -name '*.c' -o -name '*.h' \) | sort | while read -r f; do
  awk -v file="$f" '
    { src = src $0 "\n" }
    function check(stmt,  head, tail) {
      gsub(/[ \t\n]+/, " ", stmt)
      sub(/^ /, "", stmt); sub(/ $/, "", stmt)
      if (stmt == "" || stmt ~ /^typedef /) return
      if (stmt ~ /^(static )?(struct|union|enum)( [A-Za-z_][A-Za-z0-9_]*)?( \{\})?$/) return
      head = stmt
      sub(/ ?=.*/, "", head)
      if (head ~ /\(/ && head !~ /\( ?\*/) return
      if (head ~ /(^| )(__thread|_Thread_local|thread_local)( |$)/) return
      tail = head
      if (tail ~ /\*/) sub(/.*\*/, "", tail)
      if (tail ~ /(^| )const( |$)/) return
      print file ": " head
    }
    END {
      n = length(src); out = ""; i = 1; bol = 1
      while (i <= n) {
        c = substr(src, i, 1); d = substr(src, i, 2)
        if (d == "/*") { j = index(substr(src, i + 2), "*/"); i = (j ? i + j + 3 : n + 1); out = out " "; continue }
        if (d == "//") { while (i <= n && substr(src, i, 1) != "\n") i++; continue }
        if (c == "\"" || c == "\047") {
          q = c; i++
          while (i <= n && substr(src, i, 1) != q) i += (substr(src, i, 1) == "\\" ? 2 : 1)
          i++; out = out q q; bol = 0; continue
        }
        if (bol && c == "#") {
          while (i <= n && !(substr(src, i, 1) == "\n" && substr(src, i - 1, 1) != "\\")) i++
          continue
        }
        if (c == "\n") bol = 1
        else if (c != " " && c != "\t") bol = 0
        out = out c; i++
      }
      depth = 0; stmt = ""; body = 0; inner = ""
      for (i = 1; i <= length(out); i++) {
        c = substr(out, i, 1)
        if (c == "{") {
          if (depth == 0) body = (stmt ~ /\)[ \t\n]*$/ && stmt !~ /=/)
          depth++; inner = ""
        }
        else if (c == "}") {
          depth--; inner = ""
          if (depth == 0) { if (body) stmt = ""; else stmt = stmt "{}" }
        }
        else if (depth == 0) {
          if (c == ";") { check(stmt); stmt = "" }
          else stmt = stmt c
        }
        else if (body) {
          # A static inside a function body lives as long as the process.
          if (c == ";") { if (inner ~ /^[ \t\n]*static[ \t\n]/) check(inner); inner = "" }
          else inner = inner c
        }
      }
    }' "$f"
done)
if [ -n "$cglobals" ]; then
  echo "$cglobals" | while read -r g; do
    echo "check_globals: $g is mutable C state that outlives a call; make it const or thread-local, or give it to the caller" >&2
  done
  status=1
fi

[ "$status" -eq 0 ] && echo "check_globals: process-global tables: $allowed; buffers: none; mutable C statics: none"
exit "$status"
