#!/usr/bin/env python3
"""Kernel linkage check (ctest tensor/KernelLinkage).

The three kernel translation units (src/tensor/kernels/kernels_scalar.cpp,
kernels_avx2.cpp, kernels_avx512.cpp) compile the same templates and
helpers — gemm_common.h's VecTile and driver, the generic loops, the AVX2
kernels — under different -m flags. A weak (W, V) or unique (u) symbol in a
code section is a COMDAT copy: the linker keeps one for the whole program,
and if it keeps the AVX-512 TU's, the scalar tier runs AVX-512 code and
dies with SIGILL on a narrower host (DESIGN.md §15). So every instantiation
must stay local to its TU, and this check fails on any weak or unique
symbol in a .text section of those objects. Data symbols carry no code and
pass (the personality routine's DW.ref.*, and inline constexpr constants
such as kKC that some builds emit).

Usage: check_kernel_linkage.py NM ARCHIVE
  NM       the nm binary (CMake's CMAKE_NM)
  ARCHIVE  the static library holding the kernel objects (actcomp_tensor)
"""

import re
import subprocess
import sys

KERNEL_OBJECTS = ("kernels_scalar.cpp.o", "kernels_avx2.cpp.o",
                  "kernels_avx512.cpp.o")
SHARED_CLASSES = ("W", "V", "u")  # weak, weak object, GNU unique


def main(argv):
    if len(argv) != 3:
        raise SystemExit(__doc__)
    nm, archive = argv[1], argv[2]
    out = subprocess.run([nm, "--format=sysv", "--defined-only", "-C", archive],
                         check=True, capture_output=True, text=True).stdout
    member = None
    seen = set()
    shared = []
    for line in out.splitlines():
        header = re.match(r"Symbols from .*\[(.+)\]:$", line)
        if header:
            member = header.group(1)
            if member in KERNEL_OBJECTS:
                seen.add(member)
            continue
        if member not in KERNEL_OBJECTS:
            continue
        # Name|Value|Class|Type|Size|Line|Section; a demangled name may
        # itself hold '|', so split from the right.
        fields = line.rsplit("|", 6)
        if len(fields) != 7:
            continue
        name, cls, section = fields[0].strip(), fields[2].strip(), fields[6].strip()
        if cls in SHARED_CLASSES and section.startswith(".text"):
            shared.append(f"{member}: {cls} {name} [{section}]")
    missing = [o for o in KERNEL_OBJECTS if o not in seen]
    if missing:
        print(f"{archive}: no kernel object(s) {', '.join(missing)}",
              file=sys.stderr)
        return 1
    if shared:
        print("kernel objects export code the linker may share across tiers:",
              file=sys.stderr)
        for s in shared:
            print("  " + s, file=sys.stderr)
        return 1
    print(f"{len(seen)} kernel objects: no weak or unique code symbols")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
