#!/usr/bin/env python3
"""Documentation consistency checks (./ci.sh docs).

Two guarantees:

1. Every relative markdown link in the repo's *.md files points at a file
   (or file#anchor) that exists. External http(s)/mailto links are not
   fetched.

2. EXPERIMENTS.md and bench/CMakeLists.txt agree in both directions: every
   bench binary declared in CMake has a catalog entry (a heading containing
   the binary name in backticks), and every catalog entry names a binary
   that actually builds. A bench added without documentation — or
   documentation for a bench that was deleted — fails CI.

3. WIRE_FORMATS.md's registry tables agree with the code's label sources,
   in both directions: the settings table against the Table 1 rows
   (kTable1) in src/compress/settings.cpp, and the lossless algo / plane
   split tables against lossless_algo_label() / plane_split_label() in
   src/compress/lossless.cpp. A wire format added to the code without a
   spec row — or a spec row for a format the code no longer has — fails CI.

Exit code 0 when clean; 1 with one line per violation otherwise.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SKIP_DIRS = {".git", "build", "build-asan", "build-tsan"}

LINK_RE = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
HEADING_CODE_RE = re.compile(r"^#{1,6} .*`([A-Za-z0-9_]+)`", re.M)
CMAKE_BIN_RE = re.compile(r"(?:actcomp_bench|add_executable)\(\s*([A-Za-z0-9_]+)")


def md_files():
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in SKIP_DIRS]
        for name in sorted(filenames):
            if name.endswith(".md"):
                yield os.path.join(dirpath, name)


def check_links(errors):
    for path in md_files():
        with open(path, encoding="utf-8") as f:
            text = f.read()
        rel = os.path.relpath(path, ROOT)
        in_fence = False
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line.lstrip().startswith("```"):
                in_fence = not in_fence
                continue
            if in_fence:
                continue
            for target in LINK_RE.findall(line):
                if target.startswith(("http://", "https://", "mailto:", "#")):
                    continue
                target_path = target.split("#", 1)[0]
                if not target_path:
                    continue
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), target_path))
                if not os.path.exists(resolved):
                    errors.append(
                        f"{rel}:{lineno}: broken link -> {target}")


def check_bench_coverage(errors):
    cmake_path = os.path.join(ROOT, "bench", "CMakeLists.txt")
    with open(cmake_path, encoding="utf-8") as f:
        declared = set(CMAKE_BIN_RE.findall(f.read()))
    experiments_path = os.path.join(ROOT, "EXPERIMENTS.md")
    with open(experiments_path, encoding="utf-8") as f:
        documented = set(HEADING_CODE_RE.findall(f.read()))

    for name in sorted(declared - documented):
        errors.append(
            f"EXPERIMENTS.md: bench binary `{name}` (bench/CMakeLists.txt) "
            "has no catalog entry")
    for name in sorted(documented - declared):
        errors.append(
            f"EXPERIMENTS.md: catalog entry `{name}` names no binary in "
            "bench/CMakeLists.txt")


# A registry table in WIRE_FORMATS.md: an HTML marker comment, then a
# markdown table whose first column holds the backticked format label.
REGISTRY_MARKER_RE = re.compile(r"<!--\s*registry:([a-z-]+)\s*-->")
TABLE_LABEL_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")
CASE_LABEL_RE = {
    "settings": re.compile(r'^\s*\{"([^"]+)", Family::k\w+,', re.M),
    "lossless-algo": re.compile(r'case LosslessAlgo::k\w+:\s*return "([^"]+)";'),
    "plane-split": re.compile(r'case PlaneSplit::k\w+:\s*return "([^"]+)";'),
}
REGISTRY_SOURCE = {
    "settings": os.path.join("src", "compress", "settings.cpp"),
    "lossless-algo": os.path.join("src", "compress", "lossless.cpp"),
    "plane-split": os.path.join("src", "compress", "lossless.cpp"),
}


def spec_registries(spec_text):
    """Labels listed under each `<!-- registry:name -->` marker's table."""
    registries = {}
    lines = spec_text.splitlines()
    for i, line in enumerate(lines):
        m = REGISTRY_MARKER_RE.search(line)
        if not m:
            continue
        labels = []
        for row in lines[i + 1:]:
            if not row.startswith("|"):
                if labels:
                    break  # table ended
                continue  # header / separator rows before the first label
            cell = TABLE_LABEL_RE.match(row)
            if cell:
                labels.append(cell.group(1))
        registries[m.group(1)] = labels
    return registries


def check_wire_format_spec(errors):
    spec_path = os.path.join(ROOT, "WIRE_FORMATS.md")
    if not os.path.exists(spec_path):
        errors.append("WIRE_FORMATS.md: missing (the wire-format spec is "
                      "required; see tools/check_docs.py)")
        return
    with open(spec_path, encoding="utf-8") as f:
        documented = spec_registries(f.read())

    for name, case_re in sorted(CASE_LABEL_RE.items()):
        source_rel = REGISTRY_SOURCE[name]
        with open(os.path.join(ROOT, source_rel), encoding="utf-8") as f:
            in_code = set(case_re.findall(f.read()))
        if not in_code:
            errors.append(f"{source_rel}: no labels found for registry "
                          f"'{name}' (regex drifted from the code?)")
            continue
        if name not in documented:
            errors.append(f"WIRE_FORMATS.md: missing `<!-- registry:{name} "
                          "-->` table")
            continue
        in_spec = set(documented[name])
        for label in sorted(in_code - in_spec):
            errors.append(f"WIRE_FORMATS.md: registry '{name}' lacks a row "
                          f"for `{label}` ({source_rel})")
        for label in sorted(in_spec - in_code):
            errors.append(f"WIRE_FORMATS.md: registry '{name}' row `{label}` "
                          f"names no format in {source_rel}")


def main():
    errors = []
    check_links(errors)
    check_bench_coverage(errors)
    check_wire_format_spec(errors)
    for e in errors:
        print(e, file=sys.stderr)
    if errors:
        print(f"check_docs: {len(errors)} problem(s)", file=sys.stderr)
        return 1
    print("check_docs: all markdown links resolve; EXPERIMENTS.md and "
          "bench/CMakeLists.txt agree; WIRE_FORMATS.md registries match "
          "the code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
