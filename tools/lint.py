#!/usr/bin/env python3
"""Repo-specific determinism and integer-geometry lint.

Rules (each reports file:line and exits nonzero on any hit):

  1. No floating-point coordinate math in src/geom: `float`/`double` are
     banned there. All geometry is integer (DBU) so that overlap areas,
     bounding boxes and route lengths are exact and platform-independent.

  2. No ad-hoc randomness outside src/util/rng.*: `rand(`, `srand(`,
     `std::random_device`, `std::mt19937`, `std::default_random_engine`,
     `std::minstd_rand` are banned in src/. Every stochastic component
     takes an explicit `tw::Rng&` (or a seed) threaded from one master
     seed, so runs are reproducible bit-for-bit.

  3. No hidden nondeterminism in library code: wall-clock seeding and
     environment reads (`time(`, `clock(`, `system_clock`,
     `steady_clock`, `high_resolution_clock`, `getenv`) are banned in
     src/. Timing belongs in bench/, not in the algorithms.

  4. No raw `assert(` in src/: use the TW_ASSERT / TW_REQUIRE /
     TW_ENSURE contract macros (src/check/contracts.hpp), which print
     offending values and honor TW_CHECK_LEVEL.

  5. No checkpoint file handling outside src/recover: hand-built
     checkpoint paths (`.twcp`, `ckpt-NNNNNN`) are banned elsewhere in
     src/. Checkpoints must go through recover::FileCheckpointSink /
     write_checkpoint_file (atomic temp+rename, CRC framing) and
     find_latest_checkpoint — a raw ofstream to a checkpoint path would
     silently drop both guarantees (docs/ROBUSTNESS.md).

  6. No raw threading outside the two thread owners: `std::thread`,
     `std::jthread`, `std::async` and `.detach()` are banned in src/
     except in src/pool/workers.* (WorkerCrew, the parallel map) and
     src/pool/executor.cpp (PoolExecutor, the serve thread pool). Their
     slots and jobs share no mutable algorithm state (docs/ROBUSTNESS.md
     "Concurrency discipline") — a stray thread anywhere else would
     silently break the determinism guarantee and the re-entrancy audit
     the pool depends on.

  7. No direct placement mutation in the annealers: calls like
     `placement.set_center(...)` / `placement.restore(...)` are banned in
     src/place/stage1.cpp and src/refine/stage2.cpp. Every per-move
     mutation there must go through the MoveTxn transaction layer
     (src/place/move_txn.hpp), which keeps the overlap engine's spatial
     index and the net-bound cache in sync and owns snapshot/revert. A
     bare mutator call would silently desynchronize the incremental
     evaluation core (docs/PERF.md).

  8. No ad-hoc search state in src/route: `std::priority_queue` and
     per-query scratch vectors named like `dist`/`visited`/`parent` are
     banned outside search_workspace.{hpp,cpp}. Every search must run on
     the shared epoch-stamped SearchWorkspace — a private heap or
     distance array would silently reintroduce the O(V) per-query resets
     and allocations the workspace exists to eliminate, and would bypass
     its deterministic tie-break and work counters (docs/PERF.md
     "Global router").

  9. No socket/daemon syscalls outside src/serve: `socket(`, `listen(`,
     `accept(`, `connect(`, `setsockopt(`, `sendmsg(`/`recvmsg(` and the
     <sys/socket.h>/<sys/un.h> headers are banned elsewhere in src/. All
     process-boundary I/O belongs to the placement service
     (docs/ROBUSTNESS.md "Placement service"); a stray socket in library
     code would make algorithm results depend on peers the determinism
     and crash-recovery audits never see. (`bind`/`poll`/`send`/`recv`
     are legitimate method names elsewhere — SearchWorkspace::bind,
     FaultInjector::poll — so the rule keys on the unambiguous tokens
     and the headers, which any real socket code must include.)

  10. No file renames outside src/recover/durable.*: `rename(`,
     `renameat(` and `renameat2(` (also as `std::filesystem::rename(`)
     are banned elsewhere in src/. A rename is how a temp file commits
     into place, and recover::write_atomic is the one write that checks
     every step (flush, close) before it renames; the checkpoint sink,
     the result cache and the journal all go through it. A second copy
     would drift, as three did before, and rename a failed write into
     place (docs/ROBUSTNESS.md "Atomic writes").

Lines may opt out with a trailing `// lint: allow(<rule>)` where <rule>
is one of: float-geom, raw-random, nondeterminism, raw-assert,
checkpoint-io, raw-thread, txn-mutation, route-workspace,
daemon-syscalls, atomic-write — or one of
tools/semlint.py's semantic rules (rng-value, txn-reach, layer-dag,
float-flow, pool-capture), which that tool audits itself.

With --check-allows, every suppression comment is audited too: an allow
naming an unknown rule id, or an allow of one of the rules above that
suppresses nothing on its line (the rule no longer matches, or never
applied to that file), is an error. Suppressions must not outlive their
violations — a stale allow is a trap for the next edit of that line.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

CXX_SUFFIXES = {".hpp", ".cpp", ".h", ".cc", ".cxx", ".ipp"}

RULES = [
    # (rule-id, applies-to predicate, regex, message)
    (
        "float-geom",
        lambda rel: rel.parts[:2] == ("src", "geom"),
        re.compile(r"\b(float|double|long\s+double)\b"),
        "floating point is banned in src/geom (integer DBU coordinates only)",
    ),
    (
        "raw-random",
        lambda rel: rel.parts[0] == "src" and rel.parts[:2] != ("src", "util"),
        re.compile(
            r"\b(std::)?(rand|srand)\s*\(|std::random_device"
            r"|std::mt19937|std::default_random_engine|std::minstd_rand"
        ),
        "ad-hoc randomness is banned; take a tw::Rng& or an explicit seed "
        "(src/util/rng.hpp)",
    ),
    (
        "nondeterminism",
        lambda rel: rel.parts[0] == "src",
        re.compile(
            r"\b(std::)?(time|clock)\s*\(|system_clock|steady_clock"
            r"|high_resolution_clock|\bgetenv\s*\("
        ),
        "wall-clock/environment reads are banned in library code",
    ),
    (
        "raw-assert",
        lambda rel: rel.parts[0] == "src",
        re.compile(r"(?<![\w.])assert\s*\("),
        "use TW_ASSERT/TW_REQUIRE/TW_ENSURE (src/check/contracts.hpp) "
        "instead of raw assert()",
    ),
    (
        "checkpoint-io",
        lambda rel: rel.parts[0] == "src" and rel.parts[:2] != ("src", "recover"),
        re.compile(r"\.twcp|ckpt-\d"),
        "checkpoint files are written/located only via src/recover "
        "(FileCheckpointSink / write_checkpoint_file / "
        "find_latest_checkpoint)",
    ),
    (
        "raw-thread",
        lambda rel: rel.parts[0] == "src"
        and str(rel) not in (
            "src/pool/workers.hpp",
            "src/pool/workers.cpp",
            "src/pool/executor.cpp",
        ),
        re.compile(r"std::j?thread\b|std::async\b|\.detach\s*\("),
        "threads live only in WorkerCrew (src/pool/workers.*, the parallel "
        "map: pool replicas and the router's phase one; size a crew with "
        "host_workers()) and PoolExecutor (src/pool/executor.cpp, the "
        "serve thread pool); library code elsewhere must stay "
        "single-threaded and deterministic",
    ),
    (
        "txn-mutation",
        lambda rel: str(rel) in (
            "src/place/stage1.cpp",
            "src/refine/stage2.cpp",
        ),
        re.compile(
            r"\b(p|placement)\.(set_center|set_orient|set_instance"
            r"|set_aspect|assign_pin_to_site|assign_group|restore"
            r"|restore_cell|randomize)\s*\("
        ),
        "annealer mutations must go through MoveTxn "
        "(src/place/move_txn.hpp); direct placement mutators bypass the "
        "incremental evaluation core",
    ),
    (
        "route-workspace",
        lambda rel: rel.parts[:2] == ("src", "route")
        and rel.name not in ("search_workspace.hpp", "search_workspace.cpp"),
        re.compile(
            r"std::priority_queue"
            r"|\bstd::vector<[^>]*>\s+(dist|dists|distance|visited|seen"
            r"|parent|parents|prev|via)\s*[;({=]"
        ),
        "searches in src/route must run on SearchWorkspace "
        "(route/search_workspace.hpp); private heaps or dist/visited "
        "arrays bypass its O(touched) resets, counters and deterministic "
        "tie-break",
    ),
    (
        "daemon-syscalls",
        lambda rel: rel.parts[0] == "src" and rel.parts[:2] != ("src", "serve"),
        re.compile(
            r"(?<![\w.:>])(socket|listen|accept4?|connect|setsockopt"
            r"|recvmsg|sendmsg|ppoll)\s*\("
            r"|\bsys/socket\.h|\bsys/un\.h|\bsockaddr_un\b"
        ),
        "socket/daemon syscalls live only in src/serve (the placement "
        "service, docs/ROBUSTNESS.md); library code must stay free of "
        "process-boundary I/O",
    ),
    (
        "atomic-write",
        lambda rel: rel.parts[0] == "src"
        and str(rel) not in ("src/recover/durable.hpp",
                             "src/recover/durable.cpp"),
        re.compile(r"\brename(at2?)?\s*\("),
        "files are committed into place only by recover::write_atomic "
        "(src/recover/durable.hpp), which checks flush and close before "
        "it renames",
    ),
]

# Rules whose tokens live inside string literals (paths): match with
# string literals kept, comments still stripped.
STRING_RULES = {"checkpoint-io"}

ALLOW = re.compile(r"//\s*lint:\s*allow\(([a-z-]+)\)")
LINE_COMMENT = re.compile(r"//.*$")
STRING_LIT = re.compile(r'"(?:[^"\\]|\\.)*"')


def known_rule_ids() -> set[str]:
    """All rule ids an allow comment may legitimately name: this linter's
    rules plus tools/semlint.py's semantic checks (imported so the two
    tools can't drift; falls back to the documented set if semlint is
    missing, e.g. when lint.py is vendored alone)."""
    ids = {r[0] for r in RULES}
    try:
        sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))
        import semlint  # noqa: PLC0415

        ids |= set(semlint.RULES)
    except ImportError:
        ids |= {"rng-value", "txn-reach", "layer-dag", "float-flow",
                "pool-capture"}
    return ids


def strip_noise(line: str) -> str:
    """Removes string literals and // comments so they can't false-positive."""
    line = STRING_LIT.sub('""', line)
    return LINE_COMMENT.sub("", line)


def lint_file(path: pathlib.Path, rel: pathlib.Path,
              known_ids: set[str] | None = None) -> list[str]:
    problems = []
    active = [r for r in RULES if r[1](rel)]
    if not active and known_ids is None:
        return problems
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except OSError as e:
        return [f"{rel}: unreadable: {e}"]
    by_id = {r[0]: r for r in RULES}
    in_block_comment = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        allowed = {m.group(1) for m in ALLOW.finditer(raw)}
        line = raw
        # Cheap block-comment tracking (no nesting, good enough for C++).
        if in_block_comment:
            end = line.find("*/")
            if end < 0:
                continue
            line = line[end + 2 :]
            in_block_comment = False
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block_comment = True
                break
            line = line[:start] + line[end + 2 :]
        with_strings = LINE_COMMENT.sub("", line)
        line = strip_noise(line)
        for rule_id, _pred, rx, msg in active:
            if rule_id in allowed:
                continue
            haystack = with_strings if rule_id in STRING_RULES else line
            if rx.search(haystack):
                problems.append(f"{rel}:{lineno}: [{rule_id}] {msg}")
        if known_ids is not None:
            for rule_id in sorted(allowed):
                if rule_id not in known_ids:
                    problems.append(
                        f"{rel}:{lineno}: [allow-audit] suppression names "
                        f"unknown rule '{rule_id}' (known: "
                        f"{', '.join(sorted(known_ids))})")
                    continue
                if rule_id not in by_id:
                    continue  # semlint rule: semlint audits its own allows
                _id, pred, rx, _msg = by_id[rule_id]
                haystack = with_strings if rule_id in STRING_RULES else line
                if not pred(rel) or not rx.search(haystack):
                    problems.append(
                        f"{rel}:{lineno}: [allow-audit] stale suppression "
                        f"'lint: allow({rule_id})' — the rule no longer "
                        "matches this line; remove the comment "
                        "(suppressions must not outlive their violations)")
    return problems


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("--check-allows", action="store_true",
                    help="also audit every 'lint: allow(...)' comment: "
                         "unknown rule ids and suppressions that no "
                         "longer suppress anything are errors")
    args = ap.parse_args()
    root = pathlib.Path(args.root).resolve()
    src = root / "src"
    if not src.is_dir():
        print(f"lint.py: no src/ under {root}", file=sys.stderr)
        return 2

    known_ids = known_rule_ids() if args.check_allows else None
    problems: list[str] = []
    for path in sorted(src.rglob("*")):
        if path.suffix not in CXX_SUFFIXES or not path.is_file():
            continue
        problems.extend(lint_file(path, path.relative_to(root), known_ids))

    for p in problems:
        print(p)
    if problems:
        print(f"lint.py: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    print("lint.py: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
