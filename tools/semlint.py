#!/usr/bin/env python3
"""Semantic invariant analyzer for the TimberWolfMC repository.

Where tools/lint.py enforces line-level token rules, this analyzer builds
a model of the whole source tree — include graph, type-alias map,
function signatures, a cross-translation-unit call graph, and lambda
capture lists — and enforces the five load-bearing invariants that
regexes cannot see through typedefs, helper layers, or call chains:

  rng-value     `tw::Rng` may never be copied, passed, or returned by
                value anywhere in src/ (outside src/util/rng.* itself).
                A silent stream fork makes two components consume the
                same xoshiro sequence and breaks same-seed fingerprints.
                Caught through aliases (`using R = tw::Rng`) and local
                copy-initialization from a known Rng variable.

  txn-reach     Placement mutators (set_center, restore,
                assign_pin_to_site, ...) may only execute under the
                MoveTxn transaction layer while the annealers run.
                Enforced on the cross-TU call graph: any function
                reachable from code defined in the stage-1/stage-2
                annealer TUs that calls a mutator is flagged, unless it
                belongs to the transaction/resync layer (move_txn,
                placement, legalize). This catches a helper in any other
                TU that the annealers reach indirectly — rule 7 of
                lint.py only sees the two annealer files themselves.

  layer-dag     The include graph must respect the normative layer table
                in DESIGN.md ("Layering (normative)", fenced block
                tagged `layers`). Every src/ file is classified into a
                layer group (first matching glob wins) and every
                cross-group include must be a declared edge. The table
                itself must be acyclic.

  float-flow    No floating-point type may flow into the integer-exact
                geometry signatures: in src/geom every parameter,
                return, and declared alias must resolve to a non-float
                type through the repo-wide alias map; in src/estimator
                the DBU-carrying names (Coord, Point, Span, Rect, Area)
                must still resolve to integers (costs are legitimately
                double there). Catches `using Coord2 = double`
                laundering that lint.py's token rule cannot.

  pool-capture  Worker lambdas in src/pool must enumerate their captures
                explicitly, and every by-reference capture must be a
                std::atomic, a const binding, or a name on the
                documented disjoint-slot allowlist. This gives a static
                race-surface report that complements TSan.

Any flagged line may opt out with a trailing `// lint: allow(<rule>)`,
and semlint itself reports a stale-allow finding when such a comment
suppresses nothing (suppressions must not outlive their violations).

Backends: the analysis runs on a built-in C++ token model. When the
libclang Python bindings (`clang.cindex`) are importable, semlint
additionally parses each translation unit from compile_commands.json and
refines the model with canonical types (seeing through `auto`, template
arguments, and aliases defined outside the scanned tree). Select with
--backend=tokens|clang|auto (default auto: use libclang when available).

Output: `file:line: rule: message`, one per finding; exit 1 on findings,
2 on configuration errors. Registered as the ctest case `tools.semlint`
and run by the CI `static-analysis` job. See docs/CHECKING.md.
"""

from __future__ import annotations

import argparse
import fnmatch
import json
import pathlib
import re
import sys
from dataclasses import dataclass, field

CXX_SUFFIXES = {".hpp", ".cpp", ".h", ".cc", ".cxx", ".ipp"}

RULES = ("rng-value", "txn-reach", "layer-dag", "float-flow", "pool-capture")

ALLOW = re.compile(r"//\s*lint:\s*allow\(([a-z-]+)\)")

# ---------------------------------------------------------------------------
# Check configuration (documented in docs/CHECKING.md "Semantic analysis").

# rng-value: the RNG implementation itself may construct/return Rng.
RNG_IMPL_FILES = {"src/util/rng.hpp", "src/util/rng.cpp"}

# txn-reach: the annealer TUs whose transitive callees are audited.
ANNEALER_ROOT_FILES = {
    "src/place/stage1.cpp",
    "src/refine/stage2.cpp",
}

# txn-reach: files allowed to invoke placement mutators directly even when
# reachable from the annealers — the transaction layer itself, the
# placement class (mutators calling each other), and the legalizer (runs
# between passes and owns the engine resync that follows it). The
# baseline constructive placers and the warm-start sources also qualify:
# they perform whole-placement initialization strictly before a placer
# constructs its overlap/net-bound engines, so there is no index to
# desync (the name-keyed call graph chains them into the annealers only
# through the multilevel flow's run/resume methods).
TXN_LAYER_FILES = {
    "src/place/move_txn.hpp",
    "src/place/move_txn.cpp",
    "src/place/placement.hpp",
    "src/place/placement.cpp",
    "src/place/legalize.hpp",
    "src/place/legalize.cpp",
    "src/baseline/quadratic.cpp",
    "src/baseline/shelf.cpp",
    "src/flow/warm_start.cpp",
}

# txn-reach: the Placement mutator surface (kept in sync with
# lint.py rule 7 and place/placement.hpp).
PLACEMENT_MUTATORS = {
    "set_center",
    "set_orient",
    "set_instance",
    "set_aspect",
    "assign_pin_to_site",
    "assign_group",
    "restore",
    "restore_cell",
    "randomize",
    "suspend_net_bounds",
}

# float-flow: names that carry DBU (integer) geometry. In src/estimator
# these must resolve to integer types even though plain cost doubles are
# legal there.
GEOM_CARRIER_NAMES = {"Coord", "Point", "Span", "Rect", "Area"}

# pool-capture: by-reference captures whose concurrent use is proven
# disjoint by construction and documented in docs/ROBUSTNESS.md
# ("Replica pool"): replica `id` is WorkerCrew slot `id` and writes only
# reports[id], and the crew's run() barrier publishes every slot.
POOL_SLOT_ALLOWLIST = {"reports"}

CXX_KEYWORDS = {
    "alignas", "alignof", "asm", "auto", "bool", "break", "case", "catch",
    "char", "class", "co_await", "co_return", "co_yield", "concept",
    "const", "consteval", "constexpr", "constinit", "const_cast",
    "continue", "decltype", "default", "delete", "do", "double",
    "dynamic_cast", "else", "enum", "explicit", "export", "extern",
    "false", "float", "for", "friend", "goto", "if", "inline", "int",
    "long", "mutable", "namespace", "new", "noexcept", "nullptr",
    "operator", "private", "protected", "public", "register",
    "reinterpret_cast", "requires", "return", "short", "signed", "sizeof",
    "static", "static_assert", "static_cast", "struct", "switch",
    "template", "this", "thread_local", "throw", "true", "try", "typedef",
    "typeid", "typename", "union", "unsigned", "using", "virtual", "void",
    "volatile", "wchar_t", "while",
}

NOT_CALLS = CXX_KEYWORDS | {
    "TW_ASSERT", "TW_REQUIRE", "TW_ENSURE", "TW_ASSERT_FULL",
    "TW_REQUIRE_FULL", "TW_ENSURE_FULL", "defined", "assert",
}

FLOAT_TOKENS = {"float", "double"}


# ---------------------------------------------------------------------------
# Findings


@dataclass
class Finding:
    file: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.rule}: {self.message}"


# ---------------------------------------------------------------------------
# Lexing: comment/string stripping that preserves line numbers, plus a
# token stream tagged with line numbers.


def strip_comments(text: str) -> list[str]:
    """Returns per-line source with comments and string/char literals
    blanked (string literals become "" so tokenization stays sane)."""
    out: list[str] = []
    i, n = 0, len(text)
    line: list[str] = []
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            out.append("".join(line))
            line = []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                i += 2
                continue
            if c == '"':
                # R"delim( ... )delim"
                j = i - 1
                while j >= 0 and (text[j].isalnum() or text[j] == "_"):
                    j -= 1
                if text[j + 1 : i].endswith("R"):
                    m = re.match(r'R"([^(]*)\(', text[i - 1 : i + 32])
                    if m:
                        state = "raw"
                        raw_delim = ")" + m.group(1) + '"'
                        line.append('""')
                        i += len(m.group(1)) + 2
                        continue
                state = "string"
                line.append('""')
                i += 1
                continue
            if c == "'":
                state = "char"
                line.append("0")
                i += 1
                continue
            line.append(c)
            i += 1
            continue
        if state == "line_comment":
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                i += 2
            else:
                i += 1
            continue
        if state == "string":
            if c == "\\":
                i += 2
            elif c == '"':
                state = "code"
                i += 1
            else:
                i += 1
            continue
        if state == "char":
            if c == "\\":
                i += 2
            elif c == "'":
                state = "code"
                i += 1
            else:
                i += 1
            continue
        if state == "raw":
            if text.startswith(raw_delim, i):
                state = "code"
                i += len(raw_delim)
            else:
                i += 1
            continue
    if line:
        out.append("".join(line))
    return out


TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"
    r"|\d[\w.]*"
    r"|::|->|\+\+|--|&&|\|\||<<|>>|<=|>=|==|!=|\+=|-=|\*=|/=|\.\.\."
    r"|[{}()\[\];,<>=&*+\-/!%^|?~:.#]"
)


@dataclass
class Tok:
    text: str
    line: int


def tokenize(lines: list[str]) -> list[Tok]:
    toks: list[Tok] = []
    for lineno, line in enumerate(lines, start=1):
        for m in TOKEN_RE.finditer(line):
            toks.append(Tok(m.group(0), lineno))
    return toks


# ---------------------------------------------------------------------------
# Per-file model


@dataclass
class Param:
    type_tokens: list[str]
    name: str
    line: int


@dataclass
class Func:
    name: str            # simple name
    qual: str            # scope-qualified, e.g. "tw::Stage1Placer::run"
    line: int
    ret_tokens: list[str]
    params: list[Param]
    calls: list[tuple[str, int, str]] = field(default_factory=list)
    # (callee simple name, line, receiver name or "" for free calls)


@dataclass
class Capture:
    text: str   # e.g. "&", "=", "&reports", "this", "n"
    line: int


@dataclass
class Lambda:
    line: int
    captures: list[Capture]


@dataclass
class FileModel:
    rel: str
    lines: list[str]                 # comment/string-stripped
    raw_lines: list[str]             # original (for allow comments)
    toks: list[Tok]
    includes: list[tuple[str, int]] = field(default_factory=list)
    aliases: dict[str, tuple[str, int]] = field(default_factory=dict)
    funcs: list[Func] = field(default_factory=list)
    lambdas: list[Lambda] = field(default_factory=list)
    rng_vars: set[str] = field(default_factory=set)
    txn_vars: set[str] = field(default_factory=set)
    # names declared with type MoveTxn in this file (any ref-ness)
    # names declared with (possibly aliased) type Rng in this file

    def allows_at(self, line: int) -> set[str]:
        if 1 <= line <= len(self.raw_lines):
            return {m.group(1) for m in ALLOW.finditer(self.raw_lines[line - 1])}
        return set()


INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')

SPECIFIERS = {
    "static", "inline", "constexpr", "consteval", "virtual", "explicit",
    "friend", "extern", "mutable", "typename", "struct", "class", "enum",
}


def extract_model(rel: str, text: str) -> FileModel:
    raw_lines = text.splitlines()
    lines = strip_comments(text)
    toks = tokenize(lines)
    fm = FileModel(rel=rel, lines=lines, raw_lines=raw_lines, toks=toks)

    for lineno, raw in enumerate(raw_lines, start=1):
        m = INCLUDE_RE.match(raw)
        if m:
            fm.includes.append((m.group(1), lineno))

    _extract_aliases(fm)
    _extract_functions(fm)
    _extract_lambdas(fm)
    _extract_rng_vars(fm)
    return fm


def _extract_aliases(fm: FileModel) -> None:
    toks = fm.toks
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.text == "using" and i + 2 < len(toks) and toks[i + 2].text == "=":
            name = toks[i + 1].text
            j = i + 3
            depth = 0
            body: list[str] = []
            while j < len(toks):
                tt = toks[j].text
                if tt in "<([":
                    depth += 1
                elif tt in ">)]":
                    depth -= 1
                elif tt == ";" and depth <= 0:
                    break
                body.append(tt)
                j += 1
            if re.match(r"[A-Za-z_]\w*$", name):
                fm.aliases[name] = (" ".join(body), t.line)
            i = j
        elif t.text == "typedef":
            j = i + 1
            depth = 0
            body: list[str] = []
            while j < len(toks):
                tt = toks[j].text
                if tt in "<([":
                    depth += 1
                elif tt in ">)]":
                    depth -= 1
                elif tt == ";" and depth <= 0:
                    break
                body.append(tt)
                j += 1
            if body and re.match(r"[A-Za-z_]\w*$", body[-1]):
                fm.aliases[body[-1]] = (" ".join(body[:-1]), t.line)
            i = j
        i += 1


def _match_forward(toks: list[Tok], i: int, open_c: str, close_c: str) -> int:
    """Index just past the matching close for the opener at toks[i]."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == open_c:
            depth += 1
        elif t == close_c:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def _extract_functions(fm: FileModel) -> None:
    """Finds function definitions at namespace/class scope and records
    their signature plus every call-looking site in the body."""
    toks = fm.toks
    n = len(toks)
    scopes: list[tuple[str, str]] = []  # (kind, name); kind: ns|class|brace
    i = 0
    stmt_start = 0  # token index where the current declaration began
    while i < n:
        t = toks[i].text
        if t == "namespace":
            j = i + 1
            name = ""
            while j < n and toks[j].text not in "{;":
                if re.match(r"[A-Za-z_]\w*$", toks[j].text):
                    name += ("::" if name else "") + toks[j].text
                j += 1
            if j < n and toks[j].text == "{":
                scopes.append(("ns", name or "<anon>"))
                i = j + 1
                stmt_start = i
                continue
            i = j + 1
            stmt_start = i
            continue
        if t in ("class", "struct"):
            # find the name; skip forward declarations (`class X;`) and
            # variable declarations (`struct X x;`)
            j = i + 1
            name = ""
            while j < n and toks[j].text not in "{;(":
                if re.match(r"[A-Za-z_]\w*$", toks[j].text) and not name:
                    name = toks[j].text
                j += 1
            if j < n and toks[j].text == "{":
                scopes.append(("class", name or "<anon>"))
                i = j + 1
                stmt_start = i
                continue
            i = j + 1
            stmt_start = i
            continue
        if t == "{":
            # Could be a function body, an initializer, or a plain block.
            sig = _try_signature(toks, stmt_start, i, scopes)
            if sig is not None:
                func, body_open = sig
                body_end = _match_forward(toks, i, "{", "}")
                _collect_calls(toks, i + 1, body_end - 1, func)
                fm.funcs.append(func)
                i = body_end
                stmt_start = i
                continue
            scopes.append(("brace", ""))
            i += 1
            stmt_start = i
            continue
        if t == "}":
            if scopes:
                scopes.pop()
            i += 1
            stmt_start = i
            continue
        if t == ";":
            i += 1
            stmt_start = i
            continue
        if t in ("public", "private", "protected") and i + 1 < n and \
                toks[i + 1].text == ":":
            i += 2
            stmt_start = i
            continue
        i += 1
    return


def _try_signature(toks: list[Tok], start: int, brace: int,
                   scopes: list[tuple[str, str]]):
    """If toks[start:brace] looks like `ret name(params) tail`, returns a
    Func; otherwise None."""
    # Trim trailing qualifiers after the parameter list.
    j = brace - 1
    # member-initializer list: `: member_(x), other_(y)` — scan back to
    # the `)` that closes the parameter list at depth 0.
    depth = 0
    close = -1
    k = brace - 1
    while k >= start:
        t = toks[k].text
        if t in ")]":
            depth += 1
        elif t in "([":
            depth -= 1
            if depth < 0:
                return None
        if t == ")" and depth == 1:
            pass
        k -= 1
    # Simpler: walk forward recording top-level parens.
    depth = 0
    paren_open = paren_close = -1
    k = start
    while k < brace:
        t = toks[k].text
        if t == "(":
            if depth == 0:
                paren_open = k
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                paren_close = k
                break
        elif t in "{};" and depth == 0:
            return None
        k += 1
    if paren_open < 0 or paren_close < 0:
        return None
    # tail between ) and { may contain const/noexcept/override/-> ... /
    # member-init list; anything else disqualifies (e.g. `if (...) {`).
    k = paren_close + 1
    saw_colon = False
    while k < brace:
        t = toks[k].text
        if t in ("const", "noexcept", "override", "final", "mutable"):
            k += 1
            continue
        if t == "->":  # trailing return type: consume to brace
            k = brace
            break
        if t == ":":
            saw_colon = True
            k = brace
            break
        if t == "(":  # noexcept(...)
            k = _match_forward(toks, k, "(", ")")
            continue
        return None
    # name: identifier (possibly Class::name chain, operator, ~dtor)
    p = paren_open - 1
    if p < start:
        return None
    name_tok = toks[p]
    if not re.match(r"[A-Za-z_]\w*$", name_tok.text):
        return None
    if name_tok.text in CXX_KEYWORDS and name_tok.text != "operator":
        return None
    # qualification chain before the name
    qual_parts = [name_tok.text]
    q = p - 1
    while q - 1 >= start and toks[q].text == "::" and \
            re.match(r"[A-Za-z_]\w*$", toks[q - 1].text):
        qual_parts.insert(0, toks[q - 1].text)
        q -= 2
    ret_tokens = [tt.text for tt in toks[start:q + 1]]
    # Filter obvious non-functions: control keywords before the paren.
    if name_tok.text in ("if", "for", "while", "switch", "catch", "return",
                         "sizeof", "new", "delete", "else", "do"):
        return None
    # A call statement like `foo(a, b);` never directly precedes `{` at
    # statement scope, but `x = foo(...)` + `{` can't happen either; the
    # main false-positive risk is lambdas assigned with `= [...] (...) {`
    # which _extract_functions never routes here because `=` stays in
    # ret_tokens — reject those.
    if any(tt in ("=", "return", "throw") for tt in ret_tokens):
        return None
    # Constructors/destructors have empty ret_tokens — that's fine.
    scope_name = "::".join(s[1] for s in scopes if s[0] in ("ns", "class") and s[1])
    qual = "::".join([x for x in [scope_name] if x] + qual_parts)
    params = _parse_params(toks, paren_open + 1, paren_close)
    ret = [tt for tt in ret_tokens if tt not in SPECIFIERS]
    return Func(name=name_tok.text, qual=qual, line=name_tok.line,
                ret_tokens=ret, params=params), brace


def _parse_params(toks: list[Tok], start: int, end: int) -> list[Param]:
    params: list[Param] = []
    depth = 0
    cur: list[Tok] = []

    def flush() -> None:
        if not cur:
            return
        # drop default argument
        body = cur
        for idx, tt in enumerate(body):
            if tt.text == "=":
                body = body[:idx]
                break
        if not body:
            return
        name = ""
        type_toks = [t.text for t in body]
        if re.match(r"[A-Za-z_]\w*$", body[-1].text) and \
                body[-1].text not in CXX_KEYWORDS and len(body) > 1:
            name = body[-1].text
            type_toks = [t.text for t in body[:-1]]
        params.append(Param(type_tokens=type_toks, name=name,
                            line=body[0].line))

    i = start
    while i < end:
        t = toks[i].text
        if t in "<([":
            depth += 1
        elif t in ">)]":
            depth -= 1
        if t == "," and depth == 0:
            flush()
            cur = []
        else:
            cur.append(toks[i])
        i += 1
    flush()
    return params


def _collect_calls(toks: list[Tok], start: int, end: int, func: Func) -> None:
    i = start
    while i < end:
        t = toks[i]
        if re.match(r"[A-Za-z_]\w*$", t.text) and t.text not in NOT_CALLS and \
                i + 1 < end and toks[i + 1].text == "(":
            prev = toks[i - 1].text if i > start else ""
            is_member = prev in (".", "->")
            receiver = ""
            if is_member and i - 2 >= start and \
                    re.match(r"[A-Za-z_]\w*$", toks[i - 2].text):
                receiver = toks[i - 2].text
            # skip declarations like `Type name(...)`: heuristic — if the
            # previous token is an identifier (a type) this is likely a
            # declaration; treat constructor calls as calls anyway (the
            # callee name then is the type, which matters for rng-value,
            # handled separately) but keep them out of the call graph.
            is_decl = bool(re.match(r"[A-Za-z_]\w*$", prev)) and prev not in (
                "return", "") and not is_member
            if not is_decl:
                func.calls.append((t.text, t.line, receiver))
        i += 1


LAMBDA_PREV_OK = {
    "=", "(", "{", ",", "return", "&&", "||", "!", "?", ":", ";", "<<",
    ">>", "", "case",
}


def _extract_lambdas(fm: FileModel) -> None:
    toks = fm.toks
    n = len(toks)
    for i, t in enumerate(toks):
        if t.text != "[":
            continue
        prev = toks[i - 1].text if i > 0 else ""
        if prev not in LAMBDA_PREV_OK:
            continue
        close = _match_forward(toks, i, "[", "]")
        if close >= n or toks[close].text not in ("(", "{", "mutable",
                                                  "->", "noexcept"):
            continue
        caps = _parse_captures(toks, i + 1, close - 1)
        fm.lambdas.append(Lambda(line=t.line, captures=caps))


def _parse_captures(toks: list[Tok], start: int, end: int) -> list[Capture]:
    caps: list[Capture] = []
    depth = 0
    cur: list[Tok] = []

    def flush() -> None:
        if not cur:
            return
        text = "".join(t.text for t in cur)
        caps.append(Capture(text=text, line=cur[0].line))

    i = start
    while i < end:
        t = toks[i].text
        if t in "<([":
            depth += 1
        elif t in ">)]":
            depth -= 1
        if t == "," and depth == 0:
            flush()
            cur = []
        else:
            cur.append(toks[i])
        i += 1
    flush()
    return caps


def _extract_rng_vars(fm: FileModel) -> None:
    """Names declared with type Rng / MoveTxn (any ref-ness) anywhere in
    the file — Rng names are used to spot copy-initialization of one Rng
    from another; MoveTxn names let txn-reach accept mutator calls that
    go through a transaction receiver."""
    toks = fm.toks
    for i, t in enumerate(toks):
        if t.text not in ("Rng", "MoveTxn"):
            continue
        j = i + 1
        while j < len(toks) and toks[j].text in ("&", "*", "&&", "const"):
            j += 1
        if j < len(toks) and re.match(r"[A-Za-z_]\w*$", toks[j].text) and \
                toks[j].text not in CXX_KEYWORDS:
            (fm.rng_vars if t.text == "Rng" else fm.txn_vars).add(
                toks[j].text)


# ---------------------------------------------------------------------------
# Repository model


@dataclass
class RepoModel:
    root: pathlib.Path
    files: dict[str, FileModel]                  # rel -> model
    aliases: dict[str, list[str]]                # name -> expansions
    backend: str = "tokens"

    def alias_expansions(self) -> dict[str, list[str]]:
        return self.aliases


def load_compile_commands(root: pathlib.Path,
                          build_dir: str | None) -> list[dict]:
    candidates: list[pathlib.Path] = []
    if build_dir:
        candidates.append(pathlib.Path(build_dir) / "compile_commands.json")
    else:
        for d in sorted(root.glob("build*")):
            candidates.append(d / "compile_commands.json")
    for c in candidates:
        if c.is_file():
            try:
                return json.loads(c.read_text())
            except (OSError, json.JSONDecodeError) as e:
                print(f"semlint.py: unreadable {c}: {e}", file=sys.stderr)
    return []


def build_repo_model(root: pathlib.Path, backend: str,
                     build_dir: str | None) -> RepoModel:
    files: dict[str, FileModel] = {}
    src = root / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix not in CXX_SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(root).as_posix()
        files[rel] = extract_model(rel, path.read_text(encoding="utf-8",
                                                       errors="replace"))
    aliases: dict[str, list[str]] = {}
    for fm in files.values():
        for name, (expansion, _line) in fm.aliases.items():
            aliases.setdefault(name, [])
            if expansion not in aliases[name]:
                aliases[name].append(expansion)
    model = RepoModel(root=root, files=files, aliases=aliases)

    if backend in ("clang", "auto"):
        ok = _augment_with_clang(model, load_compile_commands(root, build_dir))
        if ok:
            model.backend = "clang+tokens"
        elif backend == "clang":
            print("semlint.py: --backend=clang requested but the libclang "
                  "python bindings are unavailable", file=sys.stderr)
            sys.exit(2)
    return model


def _augment_with_clang(model: RepoModel, ccdb: list[dict]) -> bool:
    """Refines the token model with libclang canonical types: alias
    expansions become canonical spellings and function parameter/return
    types are replaced by canonical ones (resolving auto and template
    arguments exactly). Returns False when libclang is unusable."""
    try:
        from clang import cindex  # type: ignore
    except ImportError:
        return False
    try:
        index = cindex.Index.create()
    except Exception as e:  # LibclangError has no stable type path
        print(f"semlint.py: libclang unusable ({e}); "
              "falling back to the token backend", file=sys.stderr)
        return False

    by_file = {str((pathlib.Path(e.get("directory", ".")) /
                    e["file"]).resolve()): e for e in ccdb if "file" in e}
    parsed = 0
    for rel, fm in model.files.items():
        if not rel.endswith(".cpp"):
            continue
        abspath = str((model.root / rel).resolve())
        entry = by_file.get(abspath)
        if entry is None:
            continue
        args = _clang_args(entry)
        try:
            tu = index.parse(abspath, args=args)
        except Exception as e:
            print(f"semlint.py: libclang failed on {rel}: {e}",
                  file=sys.stderr)
            continue
        parsed += 1
        _walk_clang(model, tu.cursor, cindex)
    return parsed > 0


def _clang_args(entry: dict) -> list[str]:
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = entry.get("command", "").split()
    out: list[str] = []
    skip = False
    for a in argv[1:]:
        if skip:
            skip = False
            continue
        if a in ("-o", "-c"):
            skip = a == "-o"
            continue
        if a.endswith((".cpp", ".cc", ".o")):
            continue
        out.append(a)
    return out


def _walk_clang(model: RepoModel, cursor, cindex) -> None:
    from_kind = cindex.CursorKind
    for c in cursor.walk_preorder():
        loc = c.location
        if loc.file is None:
            continue
        try:
            rel = pathlib.Path(loc.file.name).resolve().relative_to(
                model.root.resolve()).as_posix()
        except ValueError:
            continue
        fm = model.files.get(rel)
        if fm is None:
            continue
        if c.kind in (from_kind.TYPE_ALIAS_DECL, from_kind.TYPEDEF_DECL):
            try:
                canon = c.underlying_typedef_type.get_canonical().spelling
            except Exception:
                continue
            model.aliases.setdefault(c.spelling, [])
            if canon not in model.aliases[c.spelling]:
                model.aliases[c.spelling].append(canon)
        elif c.kind in (from_kind.FUNCTION_DECL, from_kind.CXX_METHOD,
                        from_kind.CONSTRUCTOR):
            if not c.is_definition():
                continue
            target = None
            for f in fm.funcs:
                if f.line == loc.line and f.name in (c.spelling,
                                                     c.spelling.split("<")[0]):
                    target = f
                    break
            if target is None:
                continue
            try:
                target.ret_tokens = [
                    c.result_type.get_canonical().spelling]
                args = list(c.get_arguments())
                if len(args) == len(target.params):
                    for p, a in zip(target.params, args):
                        p.type_tokens = [a.type.get_canonical().spelling]
            except Exception:
                continue


# ---------------------------------------------------------------------------
# Type resolution


def resolve_floaty(type_tokens: list[str],
                   aliases: dict[str, list[str]]) -> bool:
    """True when the type, after repo-wide alias expansion, contains a
    floating-point primitive."""
    seen: set[str] = set()
    work = list(type_tokens)
    steps = 0
    while work and steps < 4096:
        steps += 1
        tok = work.pop()
        for piece in re.findall(r"[A-Za-z_]\w*", tok):
            if piece in FLOAT_TOKENS:
                return True
            if piece in seen:
                continue
            seen.add(piece)
            for expansion in aliases.get(piece, []):
                work.append(expansion)
    return False


def resolves_to_rng(type_tokens: list[str],
                    aliases: dict[str, list[str]]) -> bool:
    toks = [t for t in type_tokens if t not in ("tw", "::", "const")]
    if not toks:
        return False
    if any(t in ("&", "*", "&&") for t in toks):
        return False
    ids = [t for t in toks if re.match(r"[A-Za-z_]\w*$", t)]
    if len(ids) != 1:
        return False
    name = ids[0]
    seen: set[str] = set()
    work = [name]
    while work:
        cur = work.pop()
        if cur == "Rng":
            return True
        if cur in seen:
            continue
        seen.add(cur)
        for expansion in aliases.get(cur, []):
            parts = [p for p in re.findall(r"[A-Za-z_]\w*", expansion)
                     if p not in ("tw", "const")]
            if len(parts) == 1 and "&" not in expansion and \
                    "*" not in expansion:
                work.append(parts[0])
    return False


# ---------------------------------------------------------------------------
# Check: rng-value


def check_rng_value(model: RepoModel) -> list[Finding]:
    out: list[Finding] = []
    aliases = model.aliases
    for rel, fm in model.files.items():
        if rel in RNG_IMPL_FILES:
            continue
        for f in fm.funcs:
            for p in f.params:
                if resolves_to_rng(p.type_tokens, aliases):
                    out.append(Finding(rel, p.line, "rng-value",
                        f"function '{f.qual}' takes parameter "
                        f"'{p.name or '<unnamed>'}' of type tw::Rng by value"
                        " — a copied generator forks the stream and breaks"
                        " same-seed reproducibility; pass tw::Rng&"))
            if resolves_to_rng(f.ret_tokens, aliases):
                out.append(Finding(rel, f.line, "rng-value",
                    f"function '{f.qual}' returns tw::Rng by value — "
                    "derive child streams only via Rng::split()/"
                    "derive_seed (src/util/rng.hpp)"))
        out.extend(_rng_copy_inits(rel, fm))
    return out


def _rng_copy_inits(rel: str, fm: FileModel) -> list[Finding]:
    """Flags `Rng a = b;` / `Rng a(b);` / `Rng a{b};` / `auto a = b;`
    where b is a name known to hold an Rng."""
    out: list[Finding] = []
    toks = fm.toks
    n = len(toks)
    for i, t in enumerate(toks):
        if t.text not in ("Rng", "auto"):
            continue
        if t.text == "Rng" and i + 1 < n and toks[i + 1].text in (
                "&", "*", "&&"):
            continue
        j = i + 1
        if j >= n or not re.match(r"[A-Za-z_]\w*$", toks[j].text) or \
                toks[j].text in CXX_KEYWORDS:
            continue
        k = j + 1
        if k >= n:
            continue
        init = toks[k].text
        if init == "=" and k + 2 < n and toks[k + 2].text == ";" and \
                toks[k + 1].text in fm.rng_vars:
            src_name = toks[k + 1].text
        elif t.text == "Rng" and init in ("(", "{") and k + 2 < n and \
                toks[k + 2].text == (")" if init == "(" else "}") and \
                toks[k + 1].text in fm.rng_vars:
            src_name = toks[k + 1].text
        else:
            continue
        out.append(Finding(rel, t.line, "rng-value",
            f"'{toks[j].text}' copy-constructs an Rng from '{src_name}' — "
            "this silently forks the stream; use the original Rng& or "
            "Rng::split()"))
    return out


# ---------------------------------------------------------------------------
# Check: txn-reach


def check_txn_reach(model: RepoModel) -> list[Finding]:
    # 1. index functions by simple name (cross-TU over-approximation)
    by_name: dict[str, list[tuple[str, Func]]] = {}
    for rel, fm in model.files.items():
        for f in fm.funcs:
            by_name.setdefault(f.name, []).append((rel, f))

    # 2. BFS from every function defined in the annealer TUs
    reachable: dict[tuple[str, str], tuple[str, str] | None] = {}
    work: list[tuple[str, Func]] = []
    for root_file in ANNEALER_ROOT_FILES:
        fm = model.files.get(root_file)
        if fm is None:
            continue
        for f in fm.funcs:
            key = (root_file, f.qual)
            if key not in reachable:
                reachable[key] = None
                work.append((root_file, f))
    while work:
        rel, f = work.pop()
        for callee, _line, _member in f.calls:
            for crel, cf in by_name.get(callee, []):
                key = (crel, cf.qual)
                if key not in reachable:
                    reachable[key] = (rel, f.qual)
                    work.append((crel, cf))

    # 3. flag mutator calls in reachable functions outside the txn layer
    out: list[Finding] = []
    reach_files = {}
    for (rel, qual) in reachable:
        reach_files.setdefault(rel, set()).add(qual)
    for rel, fm in model.files.items():
        if rel in TXN_LAYER_FILES:
            continue
        quals = reach_files.get(rel)
        if not quals:
            continue
        for f in fm.funcs:
            if f.qual not in quals:
                continue
            for callee, line, receiver in f.calls:
                if callee not in PLACEMENT_MUTATORS:
                    continue
                # A call through a MoveTxn receiver IS the transaction
                # layer — MoveTxn replays the mutation with cache resync.
                if receiver and receiver in fm.txn_vars:
                    continue
                chain = _chain(reachable, (rel, f.qual))
                out.append(Finding(rel, line, "txn-reach",
                    f"'{f.qual}' calls placement mutator '{callee}' and is "
                    f"reachable from the annealers ({chain}); per-move "
                    "mutations must go through MoveTxn "
                    "(src/place/move_txn.hpp), which keeps the overlap "
                    "index and net-bound cache in sync"))
    return out


def _chain(reachable: dict, key: tuple[str, str]) -> str:
    parts = [key[1]]
    seen = {key}
    cur = reachable.get(key)
    while cur is not None and cur not in seen and len(parts) < 6:
        seen.add(cur)
        parts.append(cur[1])
        cur = reachable.get(cur)
    return " <- ".join(parts)


# ---------------------------------------------------------------------------
# Check: layer-dag


@dataclass
class LayerTable:
    groups: list[tuple[str, list[str], list[str]]]
    # (name, globs, allowed deps) in declaration order; first match wins

    def classify(self, rel: str) -> str | None:
        for name, globs, _deps in self.groups:
            for g in globs:
                if _glob_match(rel, g):
                    return name
        return None

    def allowed(self, group: str) -> set[str]:
        for name, _globs, deps in self.groups:
            if name == group:
                return set(deps) | {group}
        return {group}


def _glob_match(rel: str, pattern: str) -> bool:
    # fnmatch treats '*' as crossing '/'; that is fine for our patterns
    # ('src/geom/**' and 'src/check/contracts.*'), but translate '**'
    # explicitly for clarity.
    rx = fnmatch.translate(pattern.replace("**", "*"))
    return re.match(rx, rel) is not None


LAYERS_BLOCK_RE = re.compile(r"```layers\n(.*?)```", re.S)


def parse_layer_table(design_md: pathlib.Path) -> LayerTable | str:
    """Parses the normative fenced `layers` block out of DESIGN.md.
    Returns an error string on configuration problems."""
    try:
        text = design_md.read_text(encoding="utf-8")
    except OSError as e:
        return f"cannot read {design_md}: {e}"
    m = LAYERS_BLOCK_RE.search(text)
    if not m:
        return (f"{design_md} has no ```layers fenced block — the layer "
                "table is normative (see DESIGN.md 'Layering (normative)')")
    groups: list[tuple[str, list[str], list[str]]] = []
    for raw in m.group(1).splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line or ":" not in line.split("=", 1)[1]:
            return f"bad layer line (want 'name = globs : deps'): {raw!r}"
        name, rest = line.split("=", 1)
        globs_part, deps_part = rest.split(":", 1)
        name = name.strip()
        globs = globs_part.split()
        deps = deps_part.split()
        if not name or not globs:
            return f"bad layer line: {raw!r}"
        groups.append((name, globs, deps))
    names = [g[0] for g in groups]
    if len(set(names)) != len(names):
        return "duplicate group names in the layer table"
    known = set(names)
    for name, _globs, deps in groups:
        for d in deps:
            if d not in known:
                return f"group '{name}' depends on unknown group '{d}'"
    # DAG check over declared edges
    adj = {name: [d for d in deps if d != name]
           for name, _g, deps in groups}
    state: dict[str, int] = {}

    def dfs(u: str, stack: list[str]) -> str | None:
        state[u] = 1
        stack.append(u)
        for v in adj[u]:
            if state.get(v, 0) == 1:
                return " -> ".join(stack + [v])
            if state.get(v, 0) == 0:
                cyc = dfs(v, stack)
                if cyc:
                    return cyc
        stack.pop()
        state[u] = 2
        return None

    for name in adj:
        if state.get(name, 0) == 0:
            cyc = dfs(name, [])
            if cyc:
                return f"layer table contains a cycle: {cyc}"
    return LayerTable(groups=groups)


def check_layer_dag(model: RepoModel, table: LayerTable) -> list[Finding]:
    out: list[Finding] = []
    for rel, fm in model.files.items():
        group = table.classify(rel)
        if group is None:
            out.append(Finding(rel, 1, "layer-dag",
                "file matches no group in the DESIGN.md layer table — "
                "add it to a layer"))
            continue
        allowed = table.allowed(group)
        for inc, line in fm.includes:
            target_rel = "src/" + inc
            if target_rel not in model.files:
                continue  # system or non-src include
            tgroup = table.classify(target_rel)
            if tgroup is None or tgroup in allowed:
                continue
            out.append(Finding(rel, line, "layer-dag",
                f"include of {inc} crosses layers upward: group '{group}' "
                f"may depend on {sorted(allowed - {group})}, not "
                f"'{tgroup}' (DESIGN.md 'Layering (normative)')"))
    return out


# ---------------------------------------------------------------------------
# Check: float-flow


def check_float_flow(model: RepoModel) -> list[Finding]:
    out: list[Finding] = []
    aliases = model.aliases
    for rel, fm in model.files.items():
        in_geom = rel.startswith("src/geom/")
        in_est = rel.startswith("src/estimator/")
        if not (in_geom or in_est):
            continue
        for name, (expansion, line) in fm.aliases.items():
            if resolve_floaty([expansion], aliases):
                out.append(Finding(rel, line, "float-flow",
                    f"alias '{name}' resolves to a floating-point type — "
                    "geometry aliases must stay integer (DBU) so overlap "
                    "areas and route lengths are exact"))
        for f in fm.funcs:
            sig_parts = [("return type", f.ret_tokens, f.line)] + [
                (f"parameter '{p.name or '<unnamed>'}'", p.type_tokens,
                 p.line) for p in f.params]
            for what, toks, line in sig_parts:
                if in_geom:
                    if resolve_floaty(toks, aliases):
                        out.append(Finding(rel, line, "float-flow",
                            f"{what} of '{f.qual}' involves a floating-"
                            "point type — src/geom signatures are integer "
                            "DBU only"))
                else:
                    carriers = [t for t in toks if t in GEOM_CARRIER_NAMES]
                    if carriers and resolve_floaty(carriers, aliases):
                        out.append(Finding(rel, line, "float-flow",
                            f"{what} of '{f.qual}' uses geometry carrier "
                            f"{carriers} which resolves to floating point "
                            "— DBU-carrying types must stay integer even "
                            "in src/estimator"))
    return out


# ---------------------------------------------------------------------------
# Check: pool-capture


def check_pool_capture(model: RepoModel) -> list[Finding]:
    out: list[Finding] = []
    for rel, fm in model.files.items():
        if not rel.startswith("src/pool/"):
            continue
        for lam in fm.lambdas:
            for cap in lam.captures:
                text = cap.text
                if text in ("&", "="):
                    out.append(Finding(rel, cap.line, "pool-capture",
                        f"lambda uses a default capture '[{text}]' — "
                        "worker lambdas in src/pool must enumerate their "
                        "captures so the race surface is auditable"))
                    continue
                if text == "this":
                    out.append(Finding(rel, cap.line, "pool-capture",
                        "lambda captures 'this' — capture the needed "
                        "members individually (const refs or atomics) so "
                        "the shared-state surface is explicit"))
                    continue
                if not text.startswith("&"):
                    continue  # by-value copies are race-free
                name = re.match(r"&([A-Za-z_]\w*)", text)
                if not name:
                    continue
                varname = name.group(1)
                if varname in POOL_SLOT_ALLOWLIST:
                    continue
                if _declared_atomic_or_const(fm, varname):
                    continue
                out.append(Finding(rel, cap.line, "pool-capture",
                    f"lambda captures '{varname}' by reference but its "
                    "declaration is neither std::atomic nor const nor on "
                    "the documented disjoint-slot allowlist "
                    f"({sorted(POOL_SLOT_ALLOWLIST)}) — see "
                    "docs/ROBUSTNESS.md 'Replica pool'"))
    return out


def _declared_atomic_or_const(fm: FileModel, name: str) -> bool:
    decl_re = re.compile(
        r"(?:^|[^\w])(?:const\b[^;=(){}]*|[^;{}]*\batomic\s*<[^;>]*>[^;=(){}]*)"
        rf"[&\s]\s*{re.escape(name)}\s*[;={{(\[]")
    for line in fm.lines:
        if name not in line:
            continue
        if decl_re.search(line):
            return True
    return False


# ---------------------------------------------------------------------------
# Allow-comment filtering + stale-allow audit


def apply_allows(model: RepoModel,
                 findings: list[Finding]) -> tuple[list[Finding], list[Finding]]:
    """Drops findings suppressed by `// lint: allow(<rule>)` on their
    line; reports stale semlint allows (suppressing nothing)."""
    kept: list[Finding] = []
    used: set[tuple[str, int, str]] = set()
    for f in findings:
        fm = model.files.get(f.file)
        if fm and f.rule in fm.allows_at(f.line):
            used.add((f.file, f.line, f.rule))
            continue
        kept.append(f)
    stale: list[Finding] = []
    for rel, fm in model.files.items():
        for lineno, raw in enumerate(fm.raw_lines, start=1):
            for m in ALLOW.finditer(raw):
                rule = m.group(1)
                if rule not in RULES:
                    continue  # lint.py rules are audited by lint.py
                if (rel, lineno, rule) not in used:
                    stale.append(Finding(rel, lineno, "stale-allow",
                        f"suppression 'lint: allow({rule})' matches no "
                        "semlint finding on this line — remove it "
                        "(suppressions must not outlive their violations)"))
    return kept, stale


# ---------------------------------------------------------------------------
# Driver


CHECKS = {
    "rng-value": lambda model, table: check_rng_value(model),
    "txn-reach": lambda model, table: check_txn_reach(model),
    "layer-dag": lambda model, table: check_layer_dag(model, table),
    "float-flow": lambda model, table: check_float_flow(model),
    "pool-capture": lambda model, table: check_pool_capture(model),
}


def main() -> int:
    ap = argparse.ArgumentParser(
        description="AST-level semantic invariant analyzer (see "
                    "docs/CHECKING.md 'Semantic analysis')")
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("-p", dest="build_dir", default=None,
                    help="build dir containing compile_commands.json "
                         "(default: <root>/build*/)")
    ap.add_argument("--backend", choices=("auto", "clang", "tokens"),
                    default="auto",
                    help="auto: refine with libclang when importable; "
                         "clang: require libclang; tokens: built-in only")
    ap.add_argument("--checks", default=",".join(RULES),
                    help="comma-separated subset of checks to run")
    ap.add_argument("--layers", default=None,
                    help="file holding the ```layers block "
                         "(default: <root>/DESIGN.md)")
    ap.add_argument("--list-checks", action="store_true")
    args = ap.parse_args()

    if args.list_checks:
        for r in RULES:
            print(r)
        return 0

    root = pathlib.Path(args.root).resolve()
    if not (root / "src").is_dir():
        print(f"semlint.py: no src/ under {root}", file=sys.stderr)
        return 2

    selected = [c.strip() for c in args.checks.split(",") if c.strip()]
    unknown = [c for c in selected if c not in CHECKS]
    if unknown:
        print(f"semlint.py: unknown check(s): {', '.join(unknown)}",
              file=sys.stderr)
        return 2

    table: LayerTable | None = None
    if "layer-dag" in selected:
        layers_path = pathlib.Path(args.layers) if args.layers \
            else root / "DESIGN.md"
        parsed = parse_layer_table(layers_path)
        if isinstance(parsed, str):
            print(f"semlint.py: {parsed}", file=sys.stderr)
            return 2
        table = parsed

    backend = "tokens" if args.backend == "tokens" else args.backend
    model = build_repo_model(root, backend, args.build_dir)

    findings: list[Finding] = []
    for name in selected:
        findings.extend(CHECKS[name](model, table))
    kept, stale = apply_allows(model, findings)
    kept.extend(stale)
    kept.sort(key=lambda f: (f.file, f.line, f.rule))

    for f in kept:
        print(f.render())
    if kept:
        print(f"semlint.py [{model.backend}]: {len(kept)} finding(s)",
              file=sys.stderr)
        return 1
    print(f"semlint.py [{model.backend}]: OK "
          f"({len(model.files)} files, {len(selected)} checks)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
