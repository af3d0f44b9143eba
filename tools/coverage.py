#!/usr/bin/env python3
"""Line coverage of src/ from a gcc --coverage build.

Usage, from the repository root (the script itself may run from any
directory: --root defaults to the repository that holds it):

  cmake -S . -B build-cov -DCMAKE_BUILD_TYPE=Debug -DTW_CHECK_LEVEL=cheap \\
        "-DCMAKE_CXX_FLAGS=-O1 --coverage" -DCMAKE_EXE_LINKER_FLAGS=--coverage
  cmake --build build-cov -j
  find build-cov -name '*.gcda' -delete
  (cd build-cov && ctest -E '^tools\\.' -j)
  python3 tools/coverage.py build-cov

Runs gcov (JSON format) on the library's object files (the .gcda files
under <build>/src) and unions the per-line counts of each src/ file over
them: a header line counts as covered when any library unit ran it.
Lines gcov does not mark executable are not counted. Prints covered/total
lines and the number of src/ functions that never ran, a template
counting once for all its instances; --functions lists them. Exits 1
without counting when a .gcda file is torn (see torn()), and 2 when no
.gcda file is found or none of their lines is in <root>/src.
"""

from __future__ import annotations

import argparse
import collections
import json
import pathlib
import subprocess
import sys


def gcov_json(gcda: pathlib.Path) -> list[dict]:
    """The JSON documents gcov prints for one .gcda file."""
    proc = subprocess.run(
        ["gcov", "--json-format", "--stdout", str(gcda)],
        cwd=gcda.parent, capture_output=True, text=True, check=False)
    docs = []
    for line in proc.stdout.splitlines():
        line = line.strip()
        if line.startswith("{"):
            docs.append(json.loads(line))
    return docs


def torn(gcda: pathlib.Path) -> bool:
    """True when `gcda` ends inside a record: a process was killed while
    it wrote the file. libgcov cannot merge into such a file ("Merge
    mismatch"), so every later process's counts for that object are
    dropped. Walks the GCC 12 layout (16-byte header, records of tag,
    byte length and payload, where a negative length marks an all-zero
    counter record without payload, then a zero word); files of older
    layouts are not checked."""
    data = gcda.read_bytes()
    if len(data) < 16 or data[4:8][::-1] < b"B2":
        return False
    pos = 16
    while pos + 8 <= len(data):
        length = int.from_bytes(data[pos + 4:pos + 8], "little", signed=True)
        pos += 8 + max(0, length)
    return data[pos:] != bytes(4)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("build", help="build tree of a --coverage build, after "
                                  "its tests ran")
    ap.add_argument("--root",
                    default=pathlib.Path(__file__).resolve().parent.parent,
                    help="repository root (default: the one holding this "
                         "script)")
    ap.add_argument("--functions", action="store_true",
                    help="also list the src/ functions that never ran")
    args = ap.parse_args()
    src = (pathlib.Path(args.root) / "src").resolve()
    lib = pathlib.Path(args.build).resolve() / "src"
    gcdas = sorted(lib.rglob("*.gcda"))
    if not gcdas:
        print(f"coverage.py: no .gcda files under {lib} (run the tests "
              "of a --coverage build first)", file=sys.stderr)
        return 2

    broken = [g for g in gcdas if torn(g)]
    if broken:
        for g in broken:
            print(f"coverage.py: {g} is torn (a writer was killed while "
                  "writing it); later counts for it were dropped",
                  file=sys.stderr)
        return 1

    lines: dict[tuple[str, int], int] = collections.defaultdict(int)
    funcs: dict[tuple[str, int], int] = collections.defaultdict(int)
    names: dict[tuple[str, int], str] = {}
    for gcda in gcdas:
        for doc in gcov_json(gcda):
            for f in doc.get("files", []):
                path = pathlib.Path(f["file"])
                if not path.is_absolute():
                    path = (pathlib.Path(doc.get("current_working_directory",
                                                 gcda.parent)) / path)
                path = path.resolve()
                if src not in path.parents:
                    continue
                rel = str(path.relative_to(src.parent))
                for ln in f.get("lines", []):
                    lines[(rel, ln["line_number"])] += ln["count"]
                for fn in f.get("functions", []):
                    key = (rel, fn["start_line"])
                    funcs[key] += fn["execution_count"]
                    names.setdefault(key, fn["demangled_name"])

    covered = sum(1 for count in lines.values() if count > 0)
    total = len(lines)
    if total == 0:
        print(f"coverage.py: no line of the .gcda files under {lib} is in "
              f"{src} (is --root the tree that was built?)", file=sys.stderr)
        return 2
    print(f"src/ line coverage: {100.0 * covered / total:.1f} % "
          f"({covered} of {total} lines)")
    never = sorted(k for k, count in funcs.items() if count == 0)
    print(f"src/ functions that never ran: {len(never)}")
    if args.functions:
        for rel, line in never:
            print(f"  {rel}:{line}: {names[(rel, line)]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
