#!/usr/bin/env python3
"""Self-test for the repo's static-analysis tools.

Runs tools/lint.py and tools/semlint.py over the fixture corpus in
tests/tools/fixtures/ and fails unless every check fires on its `bad`
mini-tree and stays quiet on its `good` twin. This is what keeps the
analyzers honest: a regex or extractor regression that silently stops a
rule from matching turns this suite red even though the real sources
(which are clean) would keep passing.

Layout — one directory per rule id, each holding two mini repo roots:

  tests/tools/fixtures/<rule>/bad/src/...   must produce >= 1 <rule> finding
  tests/tools/fixtures/<rule>/good/src/...  must produce 0 findings

The driver picks the tool from the rule id: lint.py rules run the full
linter, semlint rules run `semlint.py --checks <rule>` on the token
backend (the backends share all downstream logic, so this also covers
the libclang path's reporting), and the two audit fixtures exercise
`lint.py --check-allows` and semlint's stale-allow detection.

Registered as the ctest case `tools.lint_selftest`.
"""

from __future__ import annotations

import argparse
import pathlib
import subprocess
import sys

TOOLS_DIR = pathlib.Path(__file__).resolve().parent

LINT_RULES = {
    "float-geom", "raw-random", "nondeterminism", "raw-assert",
    "checkpoint-io", "raw-thread", "txn-mutation", "route-workspace",
    "daemon-syscalls", "atomic-write",
}
SEMLINT_RULES = {
    "rng-value", "txn-reach", "layer-dag", "float-flow", "pool-capture",
}


def command_for(rule: str, fixture_root: pathlib.Path) -> list[str]:
    if rule in LINT_RULES:
        return [sys.executable, str(TOOLS_DIR / "lint.py"),
                "--root", str(fixture_root)]
    if rule in SEMLINT_RULES:
        return [sys.executable, str(TOOLS_DIR / "semlint.py"),
                "--root", str(fixture_root), "--backend", "tokens",
                "--checks", rule]
    if rule == "allow-audit":
        return [sys.executable, str(TOOLS_DIR / "lint.py"),
                "--root", str(fixture_root), "--check-allows"]
    if rule == "stale-allow":
        return [sys.executable, str(TOOLS_DIR / "semlint.py"),
                "--root", str(fixture_root), "--backend", "tokens",
                "--checks", "rng-value"]
    raise KeyError(rule)


def run_case(rule: str, kind: str, fixture_root: pathlib.Path) -> list[str]:
    """Returns a list of failure descriptions (empty = pass)."""
    proc = subprocess.run(command_for(rule, fixture_root),
                          capture_output=True, text=True)
    out = proc.stdout + proc.stderr
    failures: list[str] = []
    if kind == "good":
        if proc.returncode != 0:
            failures.append(
                f"{rule}/good: expected exit 0, got {proc.returncode}:\n"
                + out.rstrip())
    else:
        if proc.returncode != 1:
            failures.append(
                f"{rule}/bad: expected exit 1 (findings), got "
                f"{proc.returncode}:\n" + out.rstrip())
        elif rule not in out:
            failures.append(
                f"{rule}/bad: findings do not name rule '{rule}':\n"
                + out.rstrip())
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fixtures",
                    default=str(TOOLS_DIR.parent / "tests" / "tools"
                                / "fixtures"),
                    help="fixture corpus directory")
    args = ap.parse_args()

    fixtures = pathlib.Path(args.fixtures)
    if not fixtures.is_dir():
        print(f"selftest.py: no fixture corpus at {fixtures}",
              file=sys.stderr)
        return 2

    rules = sorted(p.name for p in fixtures.iterdir() if p.is_dir())
    expected = LINT_RULES | SEMLINT_RULES | {"allow-audit", "stale-allow"}
    missing = sorted(expected - set(rules))
    if missing:
        print(f"selftest.py: fixture(s) missing for: {', '.join(missing)}",
              file=sys.stderr)
        return 1

    failures: list[str] = []
    cases = 0
    for rule in rules:
        if rule not in expected:
            failures.append(f"{rule}: unexpected fixture directory (no "
                            "such rule — stale corpus?)")
            continue
        for kind in ("good", "bad"):
            root = fixtures / rule / kind
            if not root.is_dir():
                failures.append(f"{rule}: missing '{kind}' mini-tree")
                continue
            cases += 1
            failures.extend(run_case(rule, kind, root))

    for f in failures:
        print(f)
    if failures:
        print(f"selftest.py: {len(failures)} failure(s) over {cases} "
              "case(s)", file=sys.stderr)
        return 1
    print(f"selftest.py: OK ({cases} cases, {len(rules)} rules)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
