#!/usr/bin/env python3
"""Fail when objects compiled with different -m flags share a weak symbol.

Each vector ISA's kernels live in translation units compiled with that
ISA's -m flags (src/nt/CMakeLists.txt). An inline function or template
that such a unit and a baseline unit both compile out of line becomes
one weak symbol with two bodies, and the linker keeps whichever object
comes first: a baseline caller can then run AVX-512 code on a host
without it. docs/SIMD.md ("Linkage") states the rule this script
enforces.

Usage: check_isa_symbols.py BUILD_DIR

Reads BUILD_DIR/compile_commands.json, runs `nm --defined-only` on every
object it names that exists, and groups the weak symbols (nm types W, w,
V, v and u; not the DW.ref. personality pointers) by the set of -m flags
their objects were compiled with. It prints each symbol defined under
more than one flag set, with its objects, and exits 1 if there is any.
Run it on a Debug build: an optimized build inlines most such functions
and hides the clash.
"""
import json
import os
import shlex
import shutil
import subprocess
import sys

WEAK_TYPES = set("WwVvu")

# Compiler-generated references to the C++ personality routine: one
# pointer, the same in every object that has exception tables.
IGNORED_PREFIXES = ("DW.ref.",)


def object_and_flags(entry):
    """The entry's object path and its frozen set of -m flags."""
    args = entry.get("arguments") or shlex.split(entry["command"])
    obj = None
    for i, arg in enumerate(args):
        if arg == "-o" and i + 1 < len(args):
            obj = args[i + 1]
        elif arg.startswith("-o") and len(arg) > 2:
            obj = arg[2:]
    if obj is None:
        return None, None
    obj = os.path.join(entry["directory"], obj)
    flags = frozenset(a for a in args if a.startswith("-m"))
    return obj, flags


def weak_symbols(obj):
    out = subprocess.run(["nm", "--defined-only", obj], check=True,
                         capture_output=True, text=True).stdout
    syms = set()
    for line in out.splitlines():
        parts = line.split()
        if (len(parts) >= 3 and parts[1] in WEAK_TYPES and
                not parts[2].startswith(IGNORED_PREFIXES)):
            syms.add(parts[2])
    return syms


def demangle(names):
    if not shutil.which("c++filt"):
        return list(names)
    out = subprocess.run(["c++filt"], input="\n".join(names),
                         capture_output=True, text=True).stdout
    return out.splitlines()


def main():
    if len(sys.argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    db = os.path.join(sys.argv[1], "compile_commands.json")
    with open(db) as f:
        entries = json.load(f)

    # symbol -> {flag set -> [objects]}
    defs = {}
    checked = 0
    for entry in entries:
        obj, flags = object_and_flags(entry)
        if obj is None or not os.path.exists(obj):
            continue
        checked += 1
        for sym in weak_symbols(obj):
            defs.setdefault(sym, {}).setdefault(flags, []).append(obj)
    if checked == 0:
        print(f"{db}: no built object found", file=sys.stderr)
        return 2

    clashes = sorted(s for s, by_flags in defs.items() if len(by_flags) > 1)
    for sym, name in zip(clashes, demangle(clashes)):
        print(f"weak symbol under {len(defs[sym])} -m flag sets: {name}")
        for flags, objs in sorted(defs[sym].items(),
                                  key=lambda kv: sorted(kv[0])):
            label = " ".join(sorted(flags)) or "(baseline)"
            for obj in objs:
                print(f"    {label}: {os.path.relpath(obj, sys.argv[1])}")
    print(f"checked {checked} objects: {len(clashes)} weak symbol(s) "
          "defined under more than one -m flag set")
    return 1 if clashes else 0


if __name__ == "__main__":
    sys.exit(main())
