#!/bin/sh
# Threaded dispatch: each handler of the fast VM loop ends in its own
# indirect jump. Counts them in both Vm::ExecSpecsImpl instantiations of the
# redfat_vm archive and fails below 35 in either. GCC 12 at -O2 emits 41 and
# 40 with -fno-crossjumping, and merges them back into 6 and 5 without it.
# Usage: vm_dispatch_jumps.sh <objdump> <libredfat_vm.a>
"$1" -d --no-show-raw-insn -C "$2" | awk '
  /^[0-9a-f]+ <.*>:$/ {
    fn = match($0, /Vm::ExecSpecsImpl<[A-Za-z0-9_]+>/) ? substr($0, RSTART, RLENGTH) : ""
    next
  }
  fn != "" && /[ \t]jmp[ \t]+\*/ { jumps[fn]++ }
  END {
    for (f in jumps) {
      print f ": " jumps[f] " indirect jumps"
      low = low || jumps[f] < 35
      n++
    }
    exit (n != 2 || low)
  }'
