#!/usr/bin/env python3
"""faultroute_analyze — the semantic contract analyzer.

Where tools/lint/faultroute_lint.py checks lines, this tool checks *reachability*:
it builds per-TU ASTs and a linked cross-TU call graph over the compile
database (build/compile_commands.json) for src/, tools/ and bench/, then
proves four contract families that the repo otherwise enforces only by prose
in docs/ARCHITECTURE.md and by differential tests:

  hot-alloc
      From the annotated hot roots (`// analyze:hot-root(<name>)`: route_all's
      worker body, run_traffic's step loop, DistanceOracle column builds, the
      BFS metric on pooled scratch), no reachable
      call may allocate: no `new` / malloc / make_shared, no growing container
      member (push_back / insert / resize / reserve / rehash / ...), no
      sized container construction. Justified warm-up sites carry
      `// analyze:allow-hot-alloc(<reason>)`; per-batch setup calls whose whole
      subtree is warm-up carry `// analyze:cold(<reason>)` on the call line,
      which prunes the traversal there.

  determinism
      Nothing reachable from the annotated result/report producers
      (`// analyze:det-root(<name>)`: reporters, tables, metric serializers)
      may call rand()/random_device (outside src/random), read a clock
      (outside src/obs, whose provenance/profiling output is documented as
      nondeterministic), hash or order raw pointer values, or iterate an
      unordered container (iteration order would leak into ordered output).

  lock-discipline
      Every mutex acquisition site is collected into a lock graph. A function
      holding lock L must not be able to reach a second acquisition of L
      (re-entrant deadlock), and no two locks may be acquired in both orders
      on different call paths (inversion deadlock). Additionally every atomic
      load/store/RMW under src/ must spell its memory_order explicitly — the
      implicit-seq_cst default is how unintended orderings drift in
      (composing with the linter's memory_order_relaxed file allowlist).

  throw-safety
      Every function reachable from a parallel_index_loop body that contains
      a `throw` must be justified (`// analyze:allow-throw-safety(<reason>)`,
      per function or per file). parallel_index_loop rethrows the first
      exception after joining — that contract is safe, but only when each
      thrower is intentional (the probe-budget throw being the canonical one).

Annotation grammar (checked; a reason under {} characters is itself a
finding, so annotations cannot rot into bare switches):

  // analyze:hot-root(<name>)               marks a hot-alloc traversal root
  // analyze:det-root(<name>)               marks a determinism traversal root
  // analyze:cold(<reason>)                 prunes hot-alloc traversal at this call line
  // analyze:allow-<rule>(<reason>)         suppress <rule> on this line / next line;
  //                                        on a function's definition line: whole function
  // analyze:allow-file-<rule>(<reason>)    suppress <rule> in this whole file

Frontends: the AST is produced by libclang (clang.cindex over the compile
database) when the bindings and a loadable libclang are present, and by a
built-in single-purpose C++ tokenizer frontend otherwise, both emitting the
same IR (functions, call sites with argument counts, operation sites) so the
rule engines and the findings format are frontend-independent. `--frontend
libclang` on a machine without libclang is a *reported skip* (exit 0), never
a silent pass.

Usage:
  tools/analyze/faultroute_analyze.py [--root DIR] [-p BUILD_DIR]
      [--frontend auto|libclang|internal] [--json PATH] [--jobs N]
  tools/analyze/faultroute_analyze.py --self-test

Exit status: 0 clean (or reported skip), 1 findings, 2 usage/setup error.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import fnmatch
import json
import os
import re
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

MIN_REASON_CHARS = 10

__doc__ = __doc__.format(MIN_REASON_CHARS)

SCHEMA_ID = "faultroute.analyze.v1"
SCHEMA_VERSION = 1

ANALYZED_DIRS = ("src", "tools", "bench")
CXX_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}

RULES = ("hot-alloc", "determinism", "lock-discipline", "throw-safety")
META_RULE = "annotation"  # malformed tags / missing required roots

# Roots that must exist as annotations in the real tree. Deleting a
# `analyze:hot-root` comment silently un-protects a subsystem; this list makes
# that deletion loud. Matched as qualified-name suffixes.
REQUIRED_HOT_ROOTS = (
    "route_all",                  # routing worker body (src/traffic/routing_phase.cpp)
    "run_traffic",                # event-engine step loop (src/traffic/traffic_engine.cpp)
    "DistanceOracle::bfs_block",  # oracle column builds (src/graph/distance_oracle.cpp)
    "Topology::distance",         # BFS metric on pooled scratch (src/graph/topology.cpp)
)
REQUIRED_DET_ROOTS = (
    "JsonLinesReporter::report",  # scenario cell emission (src/scenario/reporter.cpp)
    "CsvReporter::report",        # scenario CSV rows (src/scenario/reporter.cpp)
)

# ------------------------------------------------------------- banned symbols

ALLOC_FUNCS = {
    "malloc", "calloc", "realloc", "aligned_alloc", "strdup",
    "make_shared", "make_unique",
}
GROW_METHODS = {
    "push_back", "emplace_back", "push_front", "emplace_front", "push",
    "insert", "emplace", "emplace_hint", "try_emplace", "insert_or_assign",
    "resize", "reserve", "rehash", "append", "assign",
}
# Container types whose *sized* construction allocates. `Path` is the
# project-wide alias for std::vector<VertexId> (core/path.hpp).
CONTAINER_TYPES = {
    "vector", "string", "deque", "map", "set", "unordered_map",
    "unordered_set", "multimap", "multiset", "list", "basic_string", "Path",
}
RAND_FUNCS = {"rand", "srand", "rand_r", "random", "drand48", "lrand48", "mrand48"}
RAND_TOKENS = {"random_device"}
CLOCK_TOKENS = {"system_clock", "steady_clock", "high_resolution_clock",
                "gettimeofday", "clock_gettime"}
ATOMIC_METHODS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_or",
    "fetch_and", "fetch_xor", "compare_exchange_weak", "compare_exchange_strong",
    "test_and_set", "clear", "wait", "notify_one", "notify_all",
}
# Atomic methods that take a memory_order argument (clear/notify do too but
# default-order clear() on atomic_flag is not used in this tree).
ATOMIC_ORDERED_METHODS = {
    "load", "store", "exchange", "fetch_add", "fetch_sub", "fetch_or",
    "fetch_and", "fetch_xor", "compare_exchange_weak", "compare_exchange_strong",
}
LOCK_GUARD_TYPES = {"lock_guard", "unique_lock", "shared_lock", "scoped_lock"}

# Directories whose file paths exempt an op kind from a rule.
RAND_EXEMPT_DIR = "src/random"
CLOCK_EXEMPT_DIR = "src/obs"

CXX_KEYWORDS = {
    "if", "else", "for", "while", "do", "switch", "case", "return", "sizeof",
    "alignof", "alignas", "decltype", "static_cast", "dynamic_cast",
    "const_cast", "reinterpret_cast", "catch", "throw", "new", "delete",
    "co_await", "co_return", "co_yield", "noexcept", "static_assert",
    "typeid", "using", "template", "typename", "operator", "requires",
    "default", "break", "continue", "goto", "assert",
}

# ------------------------------------------------------------------------ IR


@dataclass
class CallSite:
    name: str          # "probe", "DistanceOracle::bfs_block", "vector", ...
    line: int
    args: int          # argument count at the call site
    is_member: bool    # x.f() / x->f()


@dataclass
class Op:
    kind: str          # alloc | growth | maybe-growth | container-ctor | rand |
    #                    clock | ptr-hash | unordered-iter | atomic-implicit |
    #                    throw
    line: int
    detail: str
    # For maybe-growth: the call site, so the rule engine can check whether a
    # project method actually resolves (then the call graph covers it).
    call: object = None


@dataclass
class LockSite:
    lock_id: str       # "DistanceOracle::mutex_", "<local>:error_mutex", ...
    line: int
    shared: bool       # shared_lock acquisition
    # Call sites made while this lock is held (within the guard's scope).
    calls_under: list = field(default_factory=list)


@dataclass
class FunctionDef:
    qname: str         # "faultroute::DistanceOracle::bfs_block"
    file: str          # repo-relative path
    line: int
    calls: list = field(default_factory=list)   # [CallSite]
    ops: list = field(default_factory=list)     # [Op]
    locks: list = field(default_factory=list)   # [LockSite]
    min_args: int = 0
    max_args: int = 1 << 30

    @property
    def name(self) -> str:
        return self.qname.rsplit("::", 1)[-1]


@dataclass
class Annotations:
    """Per-file annotation tags, parsed from comments in the raw source."""
    # line -> [(tag, payload)], e.g. 12 -> [("allow-hot-alloc", "warm-up ...")]
    tags: dict = field(default_factory=dict)
    file_allows: dict = field(default_factory=dict)  # rule -> reason
    malformed: list = field(default_factory=list)    # [(line, message)]


@dataclass
class Finding:
    rule: str
    file: str
    line: int
    function: str
    message: str

    def location(self) -> str:
        return f"{self.file}:{self.line}" if self.line else self.file

    def __str__(self) -> str:
        return f"{self.location()}: [{self.rule}] {self.message}"


# ----------------------------------------------------------- comment handling

def strip_comments(text: str) -> str:
    """Blanks // and /* */ comments (and raw strings down to plain strings),
    preserving line numbers and ordinary string literal spans."""
    out = []
    i, n = 0, len(text)
    state = "code"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                # Raw string: find delimiter, blank the contents.
                m = re.match(r'R"([^(\s]*)\(', text[i:])
                if m:
                    close = ")" + m.group(1) + '"'
                    end = text.find(close, i)
                    if end != -1:
                        span = text[i:end + len(close)]
                        out.append('"' + "".join("\n" if ch == "\n" else " "
                                                 for ch in span[:-1]) + '"')
                        i = end + len(close)
                        continue
            if c == '"':
                state = "str"
            elif c == "'":
                state = "chr"
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append(c)
                out.append(nxt)
                i += 2
                continue
            if c == quote or c == "\n":
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


ANNOTATION_RE = re.compile(r"analyze:([a-z][a-z-]*)\(([^)]*)\)")
ANNOTATION_LOOSE_RE = re.compile(r"analyze:([a-z][a-z-]*)")
KNOWN_TAGS = (
    {"hot-root", "det-root", "cold"}
    | {f"allow-{r}" for r in RULES}
    | {f"allow-file-{r}" for r in RULES}
)
REASON_REQUIRED_TAGS = {"cold"} | {f"allow-{r}" for r in RULES} | {
    f"allow-file-{r}" for r in RULES}


def parse_annotations(raw_text: str) -> Annotations:
    ann = Annotations()
    for lineno, line in enumerate(raw_text.splitlines(), 1):
        seen_spans = []
        for m in ANNOTATION_RE.finditer(line):
            seen_spans.append(m.span())
            tag, payload = m.group(1), m.group(2).strip()
            if tag not in KNOWN_TAGS:
                ann.malformed.append(
                    (lineno, f"unknown annotation 'analyze:{tag}' "
                             f"(known: {', '.join(sorted(KNOWN_TAGS))})"))
                continue
            if tag in REASON_REQUIRED_TAGS and len(payload) < MIN_REASON_CHARS:
                ann.malformed.append(
                    (lineno, f"'analyze:{tag}' requires a real reason "
                             f"(>= {MIN_REASON_CHARS} chars), got '{payload}'"))
                continue
            if tag.startswith("allow-file-"):
                ann.file_allows[tag[len("allow-file-"):]] = payload
            else:
                ann.tags.setdefault(lineno, []).append((tag, payload))
        for m in ANNOTATION_LOOSE_RE.finditer(line):
            if not any(s <= m.start() < e for s, e in seen_spans):
                ann.malformed.append(
                    (lineno, f"annotation 'analyze:{m.group(1)}' is missing its "
                             "(<payload>) — the grammar is analyze:<tag>(<text>)"))
    return ann


def tag_at(ann: Annotations, line: int, tag: str):
    """Returns the payload if `tag` appears on `line` or the line above."""
    for lineno in (line, line - 1):
        for t, payload in ann.tags.get(lineno, []):
            if t == tag:
                return payload
    return None


# ---------------------------------------------------------- internal frontend

TOKEN_RE = re.compile(
    r"""[A-Za-z_]\w*
      | \.?\d(?:[\w.]|[eEpP][+-])*
      | "(?:[^"\\\n]|\\.)*"
      | '(?:[^'\\\n]|\\.)*'
      | ::|->|\+\+|--|<<=|>>=|<<|>=|<=|==|!=|&&|\|\||\.\.\.
      | [-+*/%^&|~!<>=?:;,.(){}\[\]\\#]
    """,
    re.VERBOSE,
)


def tokenize(stripped: str):
    """Yields (text, line) tokens from comment-stripped C++ source, with
    preprocessor directive lines removed (both #if branches stay visible)."""
    lines = stripped.splitlines()
    keep = []
    i = 0
    while i < len(lines):
        line = lines[i]
        if line.lstrip().startswith("#"):
            keep.append("")
            while line.rstrip().endswith("\\") and i + 1 < len(lines):
                i += 1
                line = lines[i]
                keep.append("")
        else:
            keep.append(line)
        i += 1
    toks = []
    for lineno, line in enumerate(keep, 1):
        for m in TOKEN_RE.finditer(line):
            toks.append((m.group(0), lineno))
    return toks


def _match_forward(toks, i, open_t, close_t):
    """Index of the token matching open_t at toks[i]; -1 if unbalanced."""
    depth = 0
    while i < len(toks):
        t = toks[i][0]
        if t == open_t:
            depth += 1
        elif t == close_t:
            depth -= 1
            if depth == 0:
                return i
        i += 1
    return -1


def _collect_decl_names(stripped: str, type_word: str) -> set:
    """Names declared with a type mentioning `type_word` anywhere in the file
    (members, locals, params; good enough for rule discrimination)."""
    names = set()
    decl = re.compile(
        r"\b" + type_word + r"\s*(?:<[^;{}()]*>)?[^;{}()=]*?[&*\]\s>]\s*(\w+)\s*[;={(\[,)]")
    for m in decl.finditer(stripped):
        name = m.group(1)
        if name not in CXX_KEYWORDS:
            names.add(name)
    simple = re.compile(r"\b" + type_word + r"\b[^;{}()]*?\s(\w+)\s*[;={(\[,)]")
    for m in simple.finditer(stripped):
        name = m.group(1)
        if name not in CXX_KEYWORDS:
            names.add(name)
    return names


def _receiver_base(toks, dot_idx) -> str:
    """Nearest identifier of the receiver chain ending at toks[dot_idx]
    (the '.' or '->'): `r.counter_.load()` -> 'counter_',
    `states_[id].load()` -> 'states_', `(*cell).store()` -> 'cell'."""
    j = dot_idx - 1
    while j >= 0:
        t = toks[j][0]
        if t in (")", "]"):
            open_t = "(" if t == ")" else "["
            depth = 0
            while j >= 0:
                tt = toks[j][0]
                if tt == t:
                    depth += 1
                elif tt == open_t:
                    depth -= 1
                    if depth == 0:
                        break
                j -= 1
            j -= 1
            continue
        if re.match(r"[A-Za-z_]\w*$", t):
            return t
        if t in ("*", "&", ".", "->", "::"):
            j -= 1
            continue
        break
    return ""


def _first_arg_chain(toks, open_paren: int) -> str:
    """Text of the first argument inside the parens opening at open_paren."""
    close = _match_forward(toks, open_paren, "(", ")")
    if close < 0:
        return ""
    parts = []
    depth = 0
    for j in range(open_paren + 1, close):
        t = toks[j][0]
        if t in "([{":
            depth += 1
        elif t in ")]}":
            depth -= 1
        elif t == "," and depth == 0:
            break
        parts.append(t)
    return "".join(parts)


def _args_in(toks, open_paren: int):
    """(arg_count, contains_memory_order) for the parens at open_paren."""
    close = _match_forward(toks, open_paren, "(", ")")
    if close < 0:
        return 0, False
    count = 0
    has_order = False
    depth = 0
    any_tok = False
    for j in range(open_paren + 1, close):
        t = toks[j][0]
        any_tok = True
        if t in "([{":
            depth += 1
        elif t in ")]}":
            depth -= 1
        elif t == "," and depth == 0:
            count += 1
        if t.startswith("memory_order"):
            has_order = True
    return (count + 1 if any_tok else 0), has_order


class InternalParser:
    """Single-purpose C++ surface parser: extracts function definitions, call
    sites and rule-relevant operations from one file. Not a compiler — it
    understands exactly the project's idiom (see docs/ANALYSIS.md for the
    contract and its limits)."""

    def __init__(self, rel_path: str, raw_text: str, header_text: str = ""):
        self.rel_path = rel_path
        self.stripped = strip_comments(raw_text)
        self.toks = tokenize(self.stripped)
        # Declarations are collected from this file plus its sibling header
        # (foo.cpp + foo.hpp): members like `names_` live in the header but
        # are used in the .cpp, and the rules need to know their types.
        decl_src = self.stripped
        if header_text:
            decl_src = decl_src + "\n" + strip_comments(header_text)
        self.atomic_names = _collect_decl_names(decl_src, "atomic")
        self.mutex_names = (_collect_decl_names(decl_src, "mutex")
                            | _collect_decl_names(decl_src, "shared_mutex"))
        self.unordered_names = (_collect_decl_names(decl_src, "unordered_map")
                                | _collect_decl_names(decl_src, "unordered_set"))
        self.container_aliases = set()
        for m in re.finditer(r"\busing\s+(\w+)\s*=\s*(?:std::)?(\w+)", decl_src):
            if m.group(2) in CONTAINER_TYPES:
                self.container_aliases.add(m.group(1))
        # Variables of std container/string type: member calls on them are
        # std calls, never project call-graph edges (a `.size()` on a map must
        # not link to a project function that happens to be named `size`).
        self.container_var_names = set()
        for tw in ("vector", "string", "deque", "map", "set", "unordered_map",
                   "unordered_set", "array", "list", "queue", "priority_queue",
                   "Path", *sorted(self.container_aliases)):
            self.container_var_names |= _collect_decl_names(decl_src, tw)
        self.functions: list[FunctionDef] = []

    # -- function extraction ------------------------------------------------

    def parse(self) -> list:
        toks = self.toks
        scope: list[str] = []       # namespace / class names
        scope_kind: list[str] = []  # 'ns' | 'class' | 'block'
        i = 0
        n = len(toks)
        while i < n:
            t, line = toks[i]
            if t == "namespace":
                j = i + 1
                parts = []
                while j < n and (re.match(r"[A-Za-z_]\w*$", toks[j][0])
                                 or toks[j][0] == "::"):
                    if toks[j][0] != "::":
                        parts.append(toks[j][0])
                    j += 1
                if j < n and toks[j][0] == "{":
                    scope.extend(parts if parts else ["(anon)"])
                    scope_kind.extend(["ns"] * (len(parts) if parts else 1))
                    i = j + 1
                    continue
                i = j + 1
                continue
            if t in ("class", "struct") and (i == 0 or toks[i - 1][0] != "enum"):
                j = i + 1
                name = "(anon)"
                if j < n and re.match(r"[A-Za-z_]\w*$", toks[j][0]):
                    name = toks[j][0]
                    j += 1
                # Skip to '{' (definition) or ';' (forward decl), tolerating
                # base clauses; 'final' etc.
                while j < n and toks[j][0] not in ("{", ";"):
                    if toks[j][0] == "<":
                        j = _match_forward(toks, j, "<", ">")
                        if j < 0:
                            return self.functions
                    j += 1
                if j < n and toks[j][0] == "{":
                    scope.append(name)
                    scope_kind.append("class")
                    i = j + 1
                    continue
                i = j + 1
                continue
            if t == "{":
                scope.append("")
                scope_kind.append("block")
                i += 1
                continue
            if t == "}":
                if scope_kind:
                    scope.pop()
                    scope_kind.pop()
                i += 1
                continue
            if t == "(" and i > 0:
                got = self._try_function(i, scope, scope_kind)
                if got is not None:
                    i = got
                    continue
            i += 1
        return self.functions

    def _try_function(self, open_paren: int, scope, scope_kind) -> int | None:
        """toks[open_paren] == '('. If this is a function definition header at
        namespace/class scope, records it and returns the index just past its
        body; else None."""
        toks = self.toks
        if any(k == "block" for k in scope_kind):
            return None  # inside a function body already
        # Name chain walking back: id (:: id)* , possibly operator forms.
        j = open_paren - 1
        chain = []
        if j >= 0 and toks[j][0] == "operator":
            return None
        while j >= 0:
            t = toks[j][0]
            if re.match(r"[A-Za-z_]\w*$", t) and t not in CXX_KEYWORDS:
                chain.insert(0, t)
                if j - 1 >= 0 and toks[j - 1][0] == "::":
                    j -= 2
                    # allow Class<...>::name — skip template args
                    if j >= 0 and toks[j][0] == ">":
                        depth = 0
                        while j >= 0:
                            if toks[j][0] == ">":
                                depth += 1
                            elif toks[j][0] == "<":
                                depth -= 1
                                if depth == 0:
                                    j -= 1
                                    break
                            j -= 1
                else:
                    j -= 1
                    break
            elif t == "~":
                j -= 1
                break
            else:
                break
        if not chain:
            return None
        close = _match_forward(toks, open_paren, "(", ")")
        if close < 0:
            return None
        # A definition follows with an optional trail then '{'. Anything that
        # hits ';' or '=' first is a declaration / default / delete.
        k = close + 1
        depth_guard = 0
        while k < len(toks):
            t = toks[k][0]
            if t in ("const", "noexcept", "override", "final", "mutable",
                     "&", "&&", "try"):
                k += 1
                continue
            if t == "->":  # trailing return type: skip to '{' or ';'
                k += 1
                while k < len(toks) and toks[k][0] not in ("{", ";"):
                    if toks[k][0] == "<":
                        k = _match_forward(toks, k, "<", ">")
                        if k < 0:
                            return None
                    k += 1
                continue
            if t == "(":  # noexcept(...)
                k = _match_forward(toks, k, "(", ")")
                if k < 0:
                    return None
                k += 1
                continue
            if t == ":":  # ctor init list: skip initializers up to body '{'
                k += 1
                while k < len(toks):
                    t2 = toks[k][0]
                    if t2 == "(":
                        k = _match_forward(toks, k, "(", ")")
                        if k < 0:
                            return None
                        k += 1
                    elif t2 == "{":
                        prev = toks[k - 1][0]
                        if re.match(r"[A-Za-z_]\w*$", prev) or prev == ">":
                            k = _match_forward(toks, k, "{", "}")
                            if k < 0:
                                return None
                            k += 1
                        else:
                            break  # the body
                    elif t2 == "<":
                        k = _match_forward(toks, k, "<", ">")
                        if k < 0:
                            return None
                        k += 1
                    elif t2 == ";":
                        return None
                    else:
                        k += 1
                continue
            break
        if k >= len(toks) or toks[k][0] != "{":
            return None
        body_end = _match_forward(toks, k, "{", "}")
        if body_end < 0:
            return None
        # Reject control-flow headers that slipped through ("if (x) {").
        if chain[-1] in CXX_KEYWORDS:
            return None
        enclosing = [s for s, kind in zip(scope, scope_kind) if kind in ("ns", "class")]
        qname = "::".join(enclosing + chain)
        fn = FunctionDef(qname=qname, file=self.rel_path, line=toks[open_paren][1])
        fn.min_args, fn.max_args = self._param_counts(open_paren, close)
        self._scan_body(fn, k, body_end)
        self.functions.append(fn)
        return body_end + 1

    def _param_counts(self, open_paren: int, close: int):
        toks = self.toks
        depth = 0
        commas = 0
        defaults = 0
        any_tok = False
        variadic = False
        for j in range(open_paren + 1, close):
            t = toks[j][0]
            any_tok = True
            if t in "([{<":
                depth += 1
            elif t in ")]}>":
                depth -= 1
            elif depth == 0 and t == ",":
                commas += 1
            elif depth == 0 and t == "=":
                defaults += 1
            elif t == "...":
                variadic = True
        if not any_tok:
            return 0, 0
        total = commas + 1
        if self.toks[open_paren + 1][0] == "void" and total == 1:
            return 0, 0
        max_args = (1 << 30) if variadic else total
        return max(0, total - defaults), max_args

    # -- body scanning ------------------------------------------------------

    def _scan_body(self, fn: FunctionDef, body_open: int, body_end: int) -> None:
        toks = self.toks
        open_locks: list[tuple[LockSite, int]] = []  # (site, scope_end_tok)

        def note_call(site: CallSite):
            fn.calls.append(site)
            for lock, scope_end in open_locks:
                if scope_end < 0 or True:
                    lock.calls_under.append(site)

        i = body_open + 1
        while i < body_end:
            t, line = toks[i]
            # Retire locks whose scope ended.
            open_locks = [(l, e) for (l, e) in open_locks if e > i]

            if t == "throw":
                fn.ops.append(Op("throw", line, "throw statement"))
                i += 1
                continue
            if t == "new":
                fn.ops.append(Op("alloc", line, "operator new"))
                i += 1
                continue
            if t in RAND_TOKENS:
                fn.ops.append(Op("rand", line, t))
                i += 1
                continue
            if t in CLOCK_TOKENS:
                fn.ops.append(Op("clock", line, t))
                i += 1
                continue
            if t == "hash" and i + 1 < body_end and toks[i + 1][0] == "<":
                close = _match_forward(toks, i + 1, "<", ">")
                if 0 < close <= body_end and any(
                        toks[j][0] == "*" for j in range(i + 2, close)):
                    fn.ops.append(Op("ptr-hash", line, "std::hash over a raw pointer"))
            if t == "for" and i + 1 < body_end and toks[i + 1][0] == "(":
                close = _match_forward(toks, i + 1, "(", ")")
                if close > 0:
                    inner = [toks[j][0] for j in range(i + 2, close)]
                    if ":" in inner:
                        tail = inner[inner.index(":") + 1:]
                        base = next((x for x in tail
                                     if re.match(r"[A-Za-z_]\w*$", x)), "")
                        if base in self.unordered_names:
                            fn.ops.append(Op(
                                "unordered-iter", line,
                                f"range-for over unordered container '{base}'"))

            if re.match(r"[A-Za-z_]\w*$", t) and i + 1 <= body_end and \
                    toks[i + 1][0] == "(" and t not in CXX_KEYWORDS:
                self._handle_call(fn, i, body_end, note_call, open_locks)
            i += 1

        # lock scopes: attach calls-under via a second pass below (handled in
        # _handle_call through open_locks), nothing further here.

    def _handle_call(self, fn: FunctionDef, i: int, body_end: int,
                     note_call, open_locks) -> None:
        toks = self.toks
        t, line = toks[i]
        open_paren = i + 1
        args, has_order = _args_in(toks, open_paren)

        # Qualified chain backwards.
        chain = [t]
        j = i - 1
        while j >= 1 and toks[j][0] == "::" and \
                re.match(r"[A-Za-z_]\w*$", toks[j - 1][0]):
            chain.insert(0, toks[j - 1][0])
            j -= 2
        prev = toks[j][0] if j >= 0 else ""
        is_member = prev in (".", "->")

        callee = "::".join(chain)
        base_name = chain[-1]

        # Declaration `Type name(args)` → constructor call of Type.
        if not is_member and len(chain) == 1 and args > 0:
            if re.match(r"[A-Za-z_]\w*$", prev) and prev not in CXX_KEYWORDS and \
                    prev not in ("return", "throw"):
                callee = prev
                base_name = prev
            elif prev == ">":
                depth = 0
                k = j
                while k >= 0:
                    if toks[k][0] == ">":
                        depth += 1
                    elif toks[k][0] == "<":
                        depth -= 1
                        if depth == 0:
                            break
                    k -= 1
                if k > 0 and re.match(r"[A-Za-z_]\w*$", toks[k - 1][0]):
                    callee = toks[k - 1][0]
                    base_name = callee

        # --- ops derived from the call ---
        if base_name in ALLOC_FUNCS:
            fn.ops.append(Op("alloc", line, f"call to {base_name}"))
        if is_member and base_name in GROW_METHODS:
            recv = _receiver_base(toks, j)
            if recv in self.atomic_names:
                pass  # atomic, handled below — not container growth
            elif recv in self.container_var_names or not recv:
                fn.ops.append(Op("growth", line,
                                 f"growing container call .{base_name}() on "
                                 f"'{recv or '<expr>'}'"))
            else:
                # Receiver of unknown type: this may be a project method that
                # merely shares a container method's name (VertexMarks::emplace
                # is stamp writes on its dense side, not growth). Record a call edge so the
                # graph traverses into the real definition, plus a conditional
                # op the rule engine fires only when nothing resolves.
                site = CallSite(callee, line, args, is_member)
                fn.ops.append(Op(
                    "maybe-growth", line,
                    f"growing-container-style call .{base_name}() on '{recv}' "
                    "(receiver type unknown, no project method matches)",
                    site))
                note_call(site)
        if (base_name in CONTAINER_TYPES or base_name in self.container_aliases) \
                and not is_member and args > 0 and callee == base_name:
            fn.ops.append(Op("container-ctor", line,
                             f"sized construction of {base_name}"))
        if base_name in RAND_FUNCS and not is_member:
            fn.ops.append(Op("rand", line, f"call to {base_name}()"))
        if base_name == "time" and not is_member and args == 1:
            fn.ops.append(Op("clock", line, "call to time()"))
        if is_member and base_name in ATOMIC_ORDERED_METHODS:
            recv = _receiver_base(toks, j)
            if recv in self.atomic_names:
                # compare_exchange_* without any order spells TWO defaults.
                if not has_order:
                    fn.ops.append(Op(
                        "atomic-implicit", line,
                        f"atomic .{base_name}() on '{recv}' without an explicit "
                        "std::memory_order argument (implicit seq_cst)"))
        if is_member and base_name in ("begin", "cbegin"):
            recv = _receiver_base(toks, j)
            if recv in self.unordered_names:
                fn.ops.append(Op("unordered-iter", line,
                                 f"iteration over unordered container '{recv}'"))

        # --- lock acquisitions ---
        if base_name in LOCK_GUARD_TYPES and not is_member:
            arg = _first_arg_chain(toks, open_paren)
            if arg:
                site = LockSite(self._lock_id(fn, arg), line,
                                shared=base_name == "shared_lock")
                fn.locks.append(site)
                scope_end = self._enclosing_scope_end(i, body_end)
                open_locks.append((site, scope_end))
        elif base_name in LOCK_GUARD_TYPES and is_member:
            pass
        elif base_name == "lock" and is_member and args == 0:
            recv = _receiver_base(toks, j)
            if recv in self.mutex_names or "mutex" in recv:
                site = LockSite(self._lock_id(fn, recv), line, shared=False)
                fn.locks.append(site)
                open_locks.append((site, self._enclosing_scope_end(i, body_end)))
        elif base_name == "lock_shared" and is_member:
            recv = _receiver_base(toks, j)
            if recv in self.mutex_names or "mutex" in recv:
                site = LockSite(self._lock_id(fn, recv), line, shared=True)
                fn.locks.append(site)
                open_locks.append((site, self._enclosing_scope_end(i, body_end)))

        # --- the call edge itself ---
        if base_name in CXX_KEYWORDS or base_name in GROW_METHODS or \
                base_name in ATOMIC_METHODS or base_name in LOCK_GUARD_TYPES:
            return
        if is_member:
            recv = _receiver_base(toks, j)
            if recv in self.container_var_names or recv in self.atomic_names:
                return  # std container/atomic method, never a project edge
        note_call(CallSite(callee, line, args, is_member))

    def _lock_id(self, fn: FunctionDef, expr: str) -> str:
        """Normalizes a mutex expression to an identity string. Bare member /
        local names get qualified by the acquiring function's enclosing scope
        so `DistanceOracle::mutex_` and `CounterRegistry::mutex_` stay
        distinct; object-qualified expressions (`shard.mutex`, `r.mutex_`)
        keep their receiver chain, which is shared across functions that
        name the object the same way."""
        expr = expr.replace("this->", "").replace("&", "").replace("->", ".")
        if "." in expr or "::" in expr:
            return expr
        prefix = fn.qname.rsplit("::", 1)[0] if "::" in fn.qname else ""
        return f"{prefix}::{expr}" if prefix else expr

    def _enclosing_scope_end(self, i: int, body_end: int) -> int:
        """Token index where the innermost block containing toks[i] closes."""
        depth = 0
        j = i
        while j <= body_end:
            t = self.toks[j][0]
            if t == "{":
                depth += 1
            elif t == "}":
                if depth == 0:
                    return j
                depth -= 1
            j += 1
        return body_end


def parse_file_internal(args):
    rel_path, text, header_text = args
    try:
        parser = InternalParser(rel_path, text, header_text)
        return parser.parse()
    except RecursionError:
        return []


# ---------------------------------------------------------- libclang frontend

def load_libclang():
    """Returns the clang.cindex module with a resolvable libclang, or None."""
    try:
        from clang import cindex  # noqa: PLC0415
    except ImportError:
        return None
    try:
        cindex.Index.create()
        return cindex
    except Exception:  # library file not found / version mismatch
        for pattern in ("/usr/lib/llvm-*/lib/libclang.so*",
                        "/usr/lib/x86_64-linux-gnu/libclang-*.so*"):
            import glob  # noqa: PLC0415
            for cand in sorted(glob.glob(pattern), reverse=True):
                try:
                    cindex.Config.loaded = False
                    cindex.Config.set_library_file(cand)
                    cindex.Index.create()
                    return cindex
                except Exception:
                    continue
        return None


def _clang_args(command: str):
    """Compile-db command line reduced to what parsing needs."""
    args = []
    toks = command.split()
    skip_next = False
    for tok in toks[1:]:
        if skip_next:
            skip_next = False
            continue
        if tok in ("-o", "-c"):
            skip_next = tok == "-o"
            continue
        if tok.startswith(("-I", "-D", "-std", "-isystem", "-W", "-f")):
            args.append(tok)
    return args


def parse_tu_libclang(cindex, root: Path, entry: dict) -> list:
    """Parses one TU and lowers every project-file function definition to IR."""
    src = Path(entry["file"])
    if not src.is_absolute():
        src = Path(entry.get("directory", ".")) / src
    index = cindex.Index.create()
    tu = index.parse(str(src), args=_clang_args(entry.get("command", "")),
                     options=cindex.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD)
    out = []
    CursorKind = cindex.CursorKind

    def in_project(cursor) -> bool:
        loc = cursor.location
        if loc.file is None:
            return False
        try:
            rel = Path(loc.file.name).resolve().relative_to(root)
        except ValueError:
            return False
        return rel.parts[0] in ANALYZED_DIRS

    def qname(cursor) -> str:
        parts = []
        c = cursor
        while c is not None and c.kind != CursorKind.TRANSLATION_UNIT:
            if c.spelling:
                parts.insert(0, c.spelling)
            elif c.kind == CursorKind.NAMESPACE:
                parts.insert(0, "(anon)")
            c = c.semantic_parent
        return "::".join(parts)

    fn_kinds = {CursorKind.FUNCTION_DECL, CursorKind.CXX_METHOD,
                CursorKind.CONSTRUCTOR, CursorKind.DESTRUCTOR,
                CursorKind.FUNCTION_TEMPLATE}

    def lower_function(cursor):
        rel = str(Path(cursor.location.file.name).resolve().relative_to(root))
        fn = FunctionDef(qname=qname(cursor), file=rel, line=cursor.location.line)
        params = [c for c in cursor.get_children()
                  if c.kind == CursorKind.PARM_DECL]
        fn.min_args = sum(1 for p in params
                          if not any(True for _ in p.get_children()))
        fn.max_args = len(params)
        if cursor.type.is_function_variadic() if hasattr(cursor.type, "is_function_variadic") else False:
            fn.max_args = 1 << 30
        lock_stack = []

        def lock_ident(expr: str) -> str:
            expr = expr.replace("this->", "").replace("&", "").replace("->", ".")
            if "." in expr or "::" in expr:
                return expr
            prefix = fn.qname.rsplit("::", 1)[0] if "::" in fn.qname else ""
            return f"{prefix}::{expr}" if prefix else expr

        def walk(c):
            kind = c.kind
            line = c.location.line if c.location else 0
            if kind == CursorKind.CXX_NEW_EXPR:
                fn.ops.append(Op("alloc", line, "operator new"))
            elif kind == CursorKind.CXX_THROW_EXPR:
                fn.ops.append(Op("throw", line, "throw statement"))
            elif kind == CursorKind.CXX_FOR_RANGE_STMT:
                kids = list(c.get_children())
                if len(kids) >= 2 and "unordered_" in kids[-2].type.spelling:
                    fn.ops.append(Op("unordered-iter", line,
                                     "range-for over unordered container"))
            elif kind == CursorKind.VAR_DECL:
                ts = c.type.spelling
                if any(g in ts for g in
                       ("lock_guard", "unique_lock", "shared_lock", "scoped_lock")):
                    arg = ""
                    for k in c.get_children():
                        toks = [t.spelling for t in k.get_tokens()]
                        if toks:
                            arg = "".join(x for x in toks if x not in ("(", ")"))
                            break
                    if arg:
                        site = LockSite(lock_ident(arg), line,
                                        shared="shared_lock" in ts)
                        fn.locks.append(site)
                        lock_stack.append(site)
                if re.search(r"\b(?:vector|string|deque|map|set|list)\b", ts) and \
                        any(True for _ in c.get_children()):
                    init = [k for k in c.get_children()
                            if k.kind not in (CursorKind.TYPE_REF,
                                              CursorKind.NAMESPACE_REF,
                                              CursorKind.TEMPLATE_REF)]
                    if init:
                        toks = [t.spelling for t in init[0].get_tokens()]
                        if toks and toks[0] != "{":  # sized ctor, not = default
                            fn.ops.append(Op("container-ctor", line,
                                             f"sized construction of {ts}"))
            elif kind == CursorKind.CALL_EXPR:
                ref = c.referenced
                name = (ref.spelling if ref is not None else c.spelling) or ""
                args = len(list(c.get_arguments()))
                parent_type = ""
                if ref is not None and ref.semantic_parent is not None:
                    parent_type = ref.semantic_parent.spelling or ""
                is_member = ref is not None and \
                    ref.kind == CursorKind.CXX_METHOD
                base_parent = parent_type.split("<")[0].replace("std::", "")
                std_container_parent = (base_parent in CONTAINER_TYPES
                                        or base_parent == "basic_string")
                if name in ALLOC_FUNCS:
                    fn.ops.append(Op("alloc", line, f"call to {name}"))
                elif name in RAND_FUNCS:
                    fn.ops.append(Op("rand", line, f"call to {name}()"))
                elif name == "time" and args == 1:
                    fn.ops.append(Op("clock", line, "call to time()"))
                elif is_member and name in GROW_METHODS and std_container_parent:
                    fn.ops.append(Op("growth", line,
                                     f"growing container call .{name}()"))
                elif is_member and name in ATOMIC_ORDERED_METHODS and \
                        "atomic" in parent_type:
                    has_order = any("memory_order" in a.type.spelling
                                    for a in c.get_arguments())
                    if not has_order:
                        fn.ops.append(Op(
                            "atomic-implicit", line,
                            f"atomic .{name}() without an explicit "
                            "std::memory_order argument (implicit seq_cst)"))
                elif name == "lock" and is_member and "mutex" in parent_type:
                    site = LockSite(lock_ident(c.spelling or "mutex"), line,
                                    shared=False)
                    fn.locks.append(site)
                qualified = name
                if ref is not None:
                    qualified = qname(ref) or name
                    qualified = qualified.replace("faultroute::", "")
                std_method = std_container_parent or "atomic" in parent_type
                if name and name not in LOCK_GUARD_TYPES and not (
                        std_method and (name in GROW_METHODS
                                        or name in ATOMIC_METHODS)):
                    site = CallSite(qualified, line, args, is_member)
                    fn.calls.append(site)
                    for lk in lock_stack:
                        lk.calls_under.append(site)
            elif kind == CursorKind.DECL_REF_EXPR or kind == CursorKind.TYPE_REF:
                sp = c.spelling or ""
                base = sp.split("::")[-1].split("<")[0].strip()
                if base in RAND_TOKENS:
                    fn.ops.append(Op("rand", line, base))
                elif base in CLOCK_TOKENS:
                    fn.ops.append(Op("clock", line, base))
                if "hash<" in sp and "*" in sp:
                    fn.ops.append(Op("ptr-hash", line,
                                     "std::hash over a raw pointer"))
            for kid in c.get_children():
                walk(kid)

        for child in cursor.get_children():
            walk(child)
        return fn

    def visit(cursor):
        for c in cursor.get_children():
            if c.kind in fn_kinds and c.is_definition() and in_project(c):
                out.append(lower_function(c))
            elif c.kind in (CursorKind.NAMESPACE, CursorKind.CLASS_DECL,
                            CursorKind.STRUCT_DECL, CursorKind.CLASS_TEMPLATE,
                            CursorKind.UNEXPOSED_DECL,
                            CursorKind.LINKAGE_SPEC):
                visit(c)

    visit(tu.cursor)
    return out


# ------------------------------------------------------------------- program


class Program:
    """The linked cross-TU view: functions, annotations, name index."""

    def __init__(self, root: Path, functions: list, annotations: dict):
        self.root = root
        self.annotations = annotations  # rel_path -> Annotations
        # Dedupe (header parsed into several TUs / standalone).
        seen = {}
        for fn in functions:
            seen.setdefault((fn.file, fn.line, fn.qname), fn)
        self.functions = list(seen.values())
        self.by_suffix: dict[str, list] = {}
        for fn in self.functions:
            self.by_suffix.setdefault(fn.name, []).append(fn)

    def ann(self, rel_path: str) -> Annotations:
        return self.annotations.get(rel_path, Annotations())

    def resolve(self, call: CallSite) -> list:
        """Definitions a call site may reach (conservative name linking with
        an argument-count filter to tame accidental short-name matches)."""
        last = call.name.rsplit("::", 1)[-1]
        cands = self.by_suffix.get(last, [])
        if "::" in call.name:
            # A qualified call A::f can only reach definitions whose qualified
            # name ends in ::A::f — std::min must never link to a project min.
            want = call.name
            cands = [f for f in cands
                     if f.qname == want or f.qname.endswith("::" + want)]
        return [f for f in cands if f.min_args <= call.args <= f.max_args]

    def roots(self, tag: str) -> list:
        out = []
        for fn in self.functions:
            if tag_at(self.ann(fn.file), fn.line, tag) is not None:
                out.append(fn)
        return out

    def reachable(self, roots: list, honor_cold: bool = False):
        """BFS over the call graph. Returns {id(fn): (fn, chain)} where chain
        is a sample path of qualified names from a root."""
        seen = {}
        work = []
        for r in roots:
            if id(r) not in seen:
                seen[id(r)] = (r, [r.name])
                work.append(r)
        while work:
            fn = work.pop()
            _, chain = seen[id(fn)]
            ann = self.ann(fn.file)
            for call in fn.calls:
                if honor_cold and tag_at(ann, call.line, "cold") is not None:
                    continue
                for target in self.resolve(call):
                    if id(target) not in seen:
                        seen[id(target)] = (target, chain + [target.name])
                        work.append(target)
        return seen


# --------------------------------------------------------------- rule engines


class Analysis:
    def __init__(self, program: Program, require_roots: bool = True):
        self.program = program
        self.require_roots = require_roots
        self.findings: list[Finding] = []
        self.suppressed: list[dict] = []

    # -- shared helpers -----------------------------------------------------

    def _suppress_reason(self, rule: str, fn: FunctionDef, line: int):
        ann = self.program.ann(fn.file)
        if rule in ann.file_allows:
            return ann.file_allows[rule]
        payload = tag_at(ann, line, f"allow-{rule}")
        if payload is not None:
            return payload
        return tag_at(ann, fn.line, f"allow-{rule}")  # function-level tag

    def _emit(self, rule: str, fn: FunctionDef, line: int, message: str):
        reason = self._suppress_reason(rule, fn, line)
        if reason is not None:
            self.suppressed.append({
                "rule": rule, "file": fn.file, "line": line,
                "function": fn.qname, "reason": reason})
            return
        self.findings.append(Finding(rule, fn.file, line, fn.qname, message))

    # -- meta: annotations --------------------------------------------------

    def check_annotations(self):
        for rel, ann in sorted(self.program.annotations.items()):
            for line, message in ann.malformed:
                self.findings.append(Finding(META_RULE, rel, line, "", message))
        if not self.require_roots:
            return
        hot = {fn.qname for fn in self.program.roots("hot-root")}
        det = {fn.qname for fn in self.program.roots("det-root")}
        for want in REQUIRED_HOT_ROOTS:
            if not any(q == want or q.endswith("::" + want) for q in hot):
                self.findings.append(Finding(
                    META_RULE, "<tree>", 0, "",
                    f"required hot root '{want}' has no analyze:hot-root "
                    "annotation (was it deleted?)"))
        for want in REQUIRED_DET_ROOTS:
            if not any(q == want or q.endswith("::" + want) for q in det):
                self.findings.append(Finding(
                    META_RULE, "<tree>", 0, "",
                    f"required determinism root '{want}' has no "
                    "analyze:det-root annotation (was it deleted?)"))

    # -- rule 1: hot-alloc --------------------------------------------------

    def check_hot_alloc(self):
        roots = self.program.roots("hot-root")
        reach = self.program.reachable(roots, honor_cold=True)
        for fn, chain in reach.values():
            via = " -> ".join(chain)
            for op in fn.ops:
                if op.kind in ("alloc", "growth", "container-ctor"):
                    self._emit("hot-alloc", fn, op.line,
                               f"{op.detail} on a hot path (reachable via {via})")
                elif op.kind == "maybe-growth" and \
                        not self.program.resolve(op.call):
                    self._emit("hot-alloc", fn, op.line,
                               f"{op.detail} on a hot path (reachable via {via})")

    # -- rule 2: determinism ------------------------------------------------

    def check_determinism(self):
        roots = self.program.roots("det-root")
        reach = self.program.reachable(roots)
        for fn, chain in reach.values():
            via = " -> ".join(chain)
            for op in fn.ops:
                if op.kind == "rand" and not fn.file.startswith(RAND_EXEMPT_DIR):
                    self._emit("determinism", fn, op.line,
                               f"{op.detail}: nondeterministic randomness feeds "
                               f"a result producer (reachable via {via})")
                elif op.kind == "clock" and not fn.file.startswith(CLOCK_EXEMPT_DIR):
                    self._emit("determinism", fn, op.line,
                               f"{op.detail}: clock read feeds a result producer "
                               f"(reachable via {via})")
                elif op.kind == "ptr-hash":
                    self._emit("determinism", fn, op.line,
                               f"{op.detail}: pointer values vary per run "
                               f"(reachable via {via})")
                elif op.kind == "unordered-iter":
                    self._emit("determinism", fn, op.line,
                               f"{op.detail}: unordered iteration order would "
                               f"leak into ordered output (reachable via {via})")

    # -- rule 3: lock-discipline --------------------------------------------

    def check_lock_discipline(self):
        # (a) implicit seq_cst atomics anywhere under src/.
        for fn in self.program.functions:
            if not fn.file.startswith("src/"):
                continue
            for op in fn.ops:
                if op.kind == "atomic-implicit":
                    self._emit("lock-discipline", fn, op.line, op.detail)

        # (b) + (c): lock graph. held_pairs: lock -> {(other, where)}.
        order_pairs: dict[str, dict] = {}
        for fn in self.program.functions:
            for site in fn.locks:
                # BFS from the calls made under this lock.
                seen: dict[int, tuple] = {}
                work = []
                for call in site.calls_under:
                    for target in self.program.resolve(call):
                        if id(target) not in seen:
                            seen[id(target)] = (target, [fn.name, target.name])
                            work.append(target)
                while work:
                    cur = work.pop()
                    _, chain = seen[id(cur)]
                    for call in cur.calls:
                        for target in self.program.resolve(call):
                            if id(target) not in seen:
                                seen[id(target)] = (target, chain + [target.name])
                                work.append(target)
                for cur, chain in seen.values():
                    for inner in cur.locks:
                        via = " -> ".join(chain)
                        if inner.lock_id == site.lock_id:
                            self._emit(
                                "lock-discipline", fn, site.line,
                                f"lock '{site.lock_id}' acquired here can be "
                                f"re-acquired via {via} at {cur.file}:{inner.line} "
                                "(re-entrant deadlock)")
                        else:
                            order_pairs.setdefault(site.lock_id, {}).setdefault(
                                inner.lock_id,
                                (fn, site.line, via, cur.file, inner.line))
        reported = set()
        for a, inners in order_pairs.items():
            for b, (fn, line, via, ifile, iline) in inners.items():
                if a == b or (b, a) in reported or (a, b) in reported:
                    continue
                if b in order_pairs and a in order_pairs[b]:
                    reported.add((a, b))
                    other = order_pairs[b][a]
                    self._emit(
                        "lock-discipline", fn, line,
                        f"lock-order inversion: '{a}' -> '{b}' here (via {via}, "
                        f"inner at {ifile}:{iline}) but '{b}' -> '{a}' at "
                        f"{other[0].file}:{other[1]}")

    # -- rule 4: throw-safety -----------------------------------------------

    def check_throw_safety(self):
        roots = [fn for fn in self.program.functions
                 if any(c.name.rsplit("::", 1)[-1] == "parallel_index_loop"
                        for c in fn.calls)]
        reach = self.program.reachable(roots)
        for fn, chain in reach.values():
            via = " -> ".join(chain)
            for op in fn.ops:
                if op.kind == "throw":
                    self._emit(
                        "throw-safety", fn, op.line,
                        f"throw inside code reachable from a parallel_index_loop "
                        f"body (via {via}); justify with "
                        "analyze:allow-throw-safety(<reason>) if intentional")

    # -- driver -------------------------------------------------------------

    def run(self, rules=None):
        rules = set(rules or RULES)
        self.check_annotations()
        if "hot-alloc" in rules:
            self.check_hot_alloc()
        if "determinism" in rules:
            self.check_determinism()
        if "lock-discipline" in rules:
            self.check_lock_discipline()
        if "throw-safety" in rules:
            self.check_throw_safety()
        # Deterministic order + dedupe (a line reachable from two roots is one
        # finding).
        uniq = {}
        for f in self.findings:
            uniq.setdefault((f.rule, f.file, f.line, f.message.split(" (reachable")[0]), f)
        self.findings = sorted(uniq.values(),
                               key=lambda f: (f.file, f.line, f.rule))
        return self.findings


# ----------------------------------------------------------------- assembling


def load_compile_db(build_dir: Path):
    db_path = build_dir / "compile_commands.json"
    if not db_path.is_file():
        return None
    with open(db_path, encoding="utf-8") as fh:
        return json.load(fh)


def project_files(root: Path):
    for d in ANALYZED_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                yield path


def analyze_tree(root: Path, build_dir: Path, frontend: str, jobs: int,
                 require_roots: bool = True, rules=None):
    """Returns (analysis, info_dict) or raises SetupError."""
    db = load_compile_db(build_dir)
    if db is None:
        raise SetupError(
            f"no compile database at {build_dir}/compile_commands.json — "
            "configure first: cmake -B build -S . "
            "(CMAKE_EXPORT_COMPILE_COMMANDS is ON in this project)")
    db_files = []
    for entry in db:
        f = Path(entry["file"])
        if not f.is_absolute():
            f = Path(entry.get("directory", ".")) / f
        try:
            rel = f.resolve().relative_to(root.resolve())
        except ValueError:
            continue
        if rel.parts and rel.parts[0] in ANALYZED_DIRS:
            db_files.append((entry, rel))

    annotations = {}
    texts = {}
    for path in project_files(root):
        rel = str(path.relative_to(root))
        raw = path.read_text(encoding="utf-8")
        texts[rel] = raw
        annotations[rel] = parse_annotations(raw)

    cindex = load_libclang() if frontend in ("auto", "libclang") else None
    used_frontend = "libclang" if cindex is not None else "internal"
    if frontend == "libclang" and cindex is None:
        raise SkipAnalysis(
            "libclang (python clang.cindex + libclang.so) is not available "
            "on this machine — skipping the semantic analyzer as requested "
            "via --frontend libclang. Install python3-clang / pip libclang "
            "matching the clang major, or run with --frontend internal.")
    if frontend == "internal":
        cindex = None
        used_frontend = "internal"

    functions = []
    if cindex is not None:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            futs = [pool.submit(parse_tu_libclang, cindex, root.resolve(), entry)
                    for entry, _rel in db_files]
            for fut in futs:
                functions.extend(fut.result())
        # Headers outside any TU (rare) are still annotation-scanned above.
    else:
        def sibling_header(rel: str) -> str:
            for ext in (".hpp", ".h"):
                cand = str(Path(rel).with_suffix(ext))
                if cand != rel and cand in texts:
                    return texts[cand]
            return ""

        work = [(rel, text, sibling_header(rel))
                for rel, text in sorted(texts.items())]
        if jobs > 1 and len(work) > 4:
            try:
                with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
                    for fns in pool.map(parse_file_internal, work, chunksize=8):
                        functions.extend(fns)
            except (OSError, ValueError):
                for item in work:
                    functions.extend(parse_file_internal(item))
        else:
            for item in work:
                functions.extend(parse_file_internal(item))

    program = Program(root, functions, annotations)
    analysis = Analysis(program, require_roots=require_roots)
    analysis.run(rules)
    info = {
        "frontend": used_frontend,
        "tus": len(db_files),
        "files": len(texts),
        "functions": len(program.functions),
    }
    return analysis, info


class SetupError(RuntimeError):
    pass


class SkipAnalysis(RuntimeError):
    pass


def write_json_report(path: str, analysis: Analysis, info: dict):
    rule_counts = {r: 0 for r in (*RULES, META_RULE)}
    for f in analysis.findings:
        rule_counts[f.rule] += 1
    report = {
        "schema": SCHEMA_ID,
        "schema_version": SCHEMA_VERSION,
        "frontend": info["frontend"],
        "tus": info["tus"],
        "files": info["files"],
        "functions": info["functions"],
        "rule_counts": rule_counts,
        "findings": [
            {"rule": f.rule, "file": f.file, "line": f.line,
             "function": f.function, "message": f.message}
            for f in analysis.findings
        ],
        "suppressed": sorted(
            analysis.suppressed,
            key=lambda s: (s["file"], s["line"], s["rule"])),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ------------------------------------------------------------------ self-test

def _st_write(root: Path, rel: str, content: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _st_compile_db(root: Path, files) -> None:
    db = [{"directory": str(root), "command": f"c++ -std=c++20 -c {f}",
           "file": str(root / f)} for f in files]
    (root / "build").mkdir(exist_ok=True)
    (root / "build" / "compile_commands.json").write_text(
        json.dumps(db), encoding="utf-8")


# The fixtures are self-contained (no #include): both frontends must parse
# them, and libclang sees complete (if tiny) type definitions.
FIXTURE_PRELUDE = """\
namespace std {
template <class T> struct vector {
  vector();
  vector(unsigned long n, T init);
  void push_back(T x);
  void reserve(unsigned long n);
  unsigned long size() const;
  T* begin();
  T* end();
};
template <class K, class V> struct unordered_map {
  unordered_map();
  struct entry { K first; V second; };
  entry* begin();
  entry* end();
  void insert(entry e);
};
enum memory_order { memory_order_relaxed, memory_order_seq_cst };
template <class T> struct atomic {
  T load() const;
  T load(memory_order order) const;
  void store(T v);
  void store(T v, memory_order order);
  T fetch_add(T v);
  T fetch_add(T v, memory_order order);
};
struct mutex { void lock(); void unlock(); };
template <class M> struct lock_guard { lock_guard(M& m); ~lock_guard(); };
template <class T> struct hash;
int rand();
}  // namespace std
"""


def _st_tree(root: Path, *, hot_bug=False, det_bug=False, lock_bug=False,
             throw_bug=False, bad_annotation=False, allowed=False,
             unordered_bug=False):
    """Writes a fixture tree; flags seed specific violations."""
    hot_body = (
        "  helper_scratch(out);\n" if hot_bug else "  helper_clean(out);\n")
    _st_write(root, "src/hot.cpp", FIXTURE_PRELUDE + f"""
void helper_clean(std::vector<int>& out);

void helper_scratch(std::vector<int>& out) {{
  out.push_back(1);
  int* leak = new int[8];
  (void)leak;
}}

// analyze:hot-root(fixture hot loop)
void fixture_hot_loop(std::vector<int>& out) {{
{hot_body}}}
""")
    det_line = "  seed = std::rand();\n" if det_bug else "  seed = 7;\n"
    unordered = (
        "  for (auto it = table.begin(); it != table.end(); ++it) { sum += 1; }\n"
        if unordered_bug else "")
    _st_write(root, "src/det.cpp", FIXTURE_PRELUDE + f"""
int collect_inputs() {{
  int seed = 0;
{det_line}  return seed;
}}

// analyze:det-root(fixture report emitter)
int fixture_report() {{
  std::unordered_map<int, int> table;
  int sum = collect_inputs();
{unordered}  return sum;
}}
""")
    lock_extra = """
void locked_inner(Registry& r) {
  std::lock_guard<std::mutex> lock(r.mutex_);
}

void locked_outer(Registry& r) {
  std::lock_guard<std::mutex> lock(r.mutex_);
  locked_inner(r);
}

unsigned long implicit_read(Registry& r) { return r.counter_.load(); }
""" if lock_bug else """
void locked_outer(Registry& r) {
  std::lock_guard<std::mutex> lock(r.mutex_);
}

unsigned long explicit_read(Registry& r) {
  return r.counter_.load(std::memory_order_relaxed);
}
"""
    _st_write(root, "src/lock.cpp", FIXTURE_PRELUDE + f"""
struct Registry {{
  std::mutex mutex_;
  std::mutex slab_mutex_;
  std::atomic<unsigned long> counter_;
}};
{lock_extra}
void order_ab(Registry& r);
void order_ba(Registry& r);

void take_slab(Registry& r) {{
  std::lock_guard<std::mutex> lock(r.slab_mutex_);
}}

void take_main(Registry& r) {{
  std::lock_guard<std::mutex> lock(r.mutex_);
}}

void order_ab(Registry& r) {{
  std::lock_guard<std::mutex> lock(r.mutex_);
  take_slab(r);
}}
""" + ("""
void order_ba(Registry& r) {
  std::lock_guard<std::mutex> lock(r.slab_mutex_);
  take_main(r);
}
""" if lock_bug else """
void order_ba(Registry& r) {
  take_main(r);
}
"""))
    throw_site = """
void validate_cell(int x) {
  if (x < 0) throw 42;
}

void deep_worker(int x) {
  if (x == 3) throw 7;
}
""" if throw_bug else """
void validate_cell(int x) { (void)x; }
void deep_worker(int x) { (void)x; }
"""
    _st_write(root, "src/par.cpp", FIXTURE_PRELUDE + f"""
void parallel_index_loop(unsigned long count, unsigned threads, int make_body);
{throw_site}
void run_cells(unsigned long cells) {{
  validate_cell(static_cast<int>(cells));
  deep_worker(2);
  parallel_index_loop(cells, 2, 0);
}}
""")
    if bad_annotation:
        _st_write(root, "src/annot.cpp", FIXTURE_PRELUDE + """
// analyze:allow-hot-alloc()
void tagged_without_reason() {}
""")
    if allowed:
        _st_write(root, "src/allowed.cpp", FIXTURE_PRELUDE + """
// analyze:hot-root(fixture allowed loop)
void fixture_allowed_loop(std::vector<int>& out) {
  out.reserve(64);  // analyze:allow-hot-alloc(one-time warm-up growth, measured)
}
""")
    files = ["src/hot.cpp", "src/det.cpp", "src/lock.cpp", "src/par.cpp"]
    if bad_annotation:
        files.append("src/annot.cpp")
    if allowed:
        files.append("src/allowed.cpp")
    _st_compile_db(root, files)


def self_test(jobs: int) -> int:
    failures: list[str] = []
    frontends = ["internal"]
    if load_libclang() is not None:
        frontends.append("libclang")
    print(f"faultroute_analyze self-test (frontends: {', '.join(frontends)})")

    def expect(cond: bool, label: str):
        print(f"  {'PASS' if cond else 'FAIL'}  {label}")
        if not cond:
            failures.append(label)

    def run_case(frontend: str, label: str, expect_rules: dict, **tree_flags):
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _st_tree(root, **tree_flags)
            analysis, _info = analyze_tree(root, root / "build", frontend,
                                           jobs, require_roots=False)
            got = {}
            for f in analysis.findings:
                got[f.rule] = got.get(f.rule, 0) + 1
            for rule, minimum in expect_rules.items():
                n = got.get(rule, 0)
                expect(n >= minimum,
                       f"[{frontend}] {label}: >= {minimum} {rule} finding(s), got {n}")
            unexpected = {r: n for r, n in got.items() if r not in expect_rules}
            expect(not unexpected,
                   f"[{frontend}] {label}: no unexpected findings {unexpected or ''}")
            return analysis

    for fe in frontends:
        # Clean tree: zero findings.
        run_case(fe, "clean tree", {})
        # Each rule fires with >= 2 seeded violations.
        run_case(fe, "hot-alloc seeded", {"hot-alloc": 2}, hot_bug=True)
        run_case(fe, "determinism seeded", {"determinism": 2},
                 det_bug=True, unordered_bug=True)
        run_case(fe, "lock-discipline seeded", {"lock-discipline": 2},
                 lock_bug=True)
        run_case(fe, "throw-safety seeded", {"throw-safety": 2}, throw_bug=True)
        # Annotation without a reason is itself rejected.
        run_case(fe, "annotation without reason", {META_RULE: 1},
                 bad_annotation=True)
        # A well-formed allow tag suppresses and is recorded.
        analysis = run_case(fe, "allow tag suppresses", {}, allowed=True)
        expect(any(s["rule"] == "hot-alloc" for s in analysis.suppressed),
               f"[{fe}] allow tag recorded as suppressed")
        # Missing required roots are flagged when enforcement is on.
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _st_tree(root)
            analysis, _ = analyze_tree(root, root / "build", fe, jobs,
                                       require_roots=True)
            expect(any(f.rule == META_RULE and "required hot root" in f.message
                       for f in analysis.findings),
                   f"[{fe}] missing required roots are flagged")

    if failures:
        print(f"\nself-test FAILED ({len(failures)} case(s))")
        return 1
    print("\nself-test passed")
    return 0


# ----------------------------------------------------------------------- main

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels up from this script)")
    parser.add_argument("-p", "--build-dir", default=None,
                        help="build dir holding compile_commands.json "
                             "(default: <root>/build)")
    parser.add_argument("--frontend", choices=("auto", "libclang", "internal"),
                        default="auto",
                        help="AST frontend; auto prefers libclang, falls back "
                             "to the built-in tokenizer frontend")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help=f"write a {SCHEMA_ID} findings report")
    parser.add_argument("--jobs", type=int, default=os.cpu_count() or 2,
                        help="parallel per-TU parsing (default: cpu count)")
    parser.add_argument("--rule", action="append", choices=RULES, default=None,
                        help="restrict to specific rule(s); repeatable")
    parser.add_argument("--self-test", action="store_true",
                        help="seed violations of every rule in a fixture tree "
                             "and assert each is detected")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test(args.jobs)

    root = Path(args.root) if args.root else Path(__file__).resolve().parents[2]
    if not (root / "src").is_dir():
        print(f"faultroute_analyze: no src/ under {root}", file=sys.stderr)
        return 2
    build_dir = Path(args.build_dir) if args.build_dir else root / "build"

    try:
        analysis, info = analyze_tree(root, build_dir, args.frontend, args.jobs,
                                      rules=args.rule)
    except SkipAnalysis as skip:
        print(f"faultroute_analyze: SKIPPED — {skip}")
        return 0
    except SetupError as err:
        print(f"faultroute_analyze: {err}", file=sys.stderr)
        return 2

    if info["frontend"] == "internal" and args.frontend == "auto":
        print("faultroute_analyze: note — libclang unavailable, using the "
              "built-in tokenizer frontend (same rules, same IR; see "
              "docs/ANALYSIS.md)")
    for f in analysis.findings:
        print(f)
    if args.json:
        write_json_report(args.json, analysis, info)
    summary = (f"frontend={info['frontend']} tus={info['tus']} "
               f"files={info['files']} functions={info['functions']} "
               f"findings={len(analysis.findings)} "
               f"suppressed={len(analysis.suppressed)}")
    if analysis.findings:
        print(f"faultroute_analyze: {len(analysis.findings)} finding(s) "
              f"({summary})", file=sys.stderr)
        return 1
    print(f"faultroute_analyze: clean ({summary})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
