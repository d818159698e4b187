#!/usr/bin/env python3
"""faultroute_lint — the project-idiom linter.

Enforces repo-specific invariants that no generic tool (clang-tidy, a
compiler, a grep in a reviewer's head) knows about:

  counters-manifest
      Every counter/metric dot-path string used in C++ (string literals with
      a known counter namespace prefix: traffic., graph., scenario., route.,
      components., trials.) must be documented exactly once in
      docs/COUNTERS.md, and every path documented there must still be used
      somewhere in the code. The manifest is the contract consumed by
      --metrics report readers; this rule keeps it complete and alive.

  schema-single-definition
      Every `faultroute.<...>.vN` schema identifier must be spelled as a C++
      string literal only in src/obs/schemas.hpp. Emitters and validators
      reference the named constants, so a schema bump is one edit and grep
      finds every user.

  no-hash-in-hot-paths
      `std::unordered_map` / `std::unordered_set` are banned in the hot-path
      directories (src/traffic, src/graph, src/core/routers, src/percolation):
      hot structures live in dense-id arrays, and a hash container sneaking
      back in is almost always a perf regression. A deliberate exception
      (cold path, differential baseline, fallback for huge graphs) carries a
      `// lint:allow-hash(<reason>)` tag on the same or the previous line.

  relaxed-ordering-allowlist
      `std::memory_order_relaxed` may appear only in files that have a
      written concurrency model reviewed under TSan (see the allowlist
      below, and docs/ARCHITECTURE.md "Correctness tooling"). Everywhere
      else, relaxed atomics are a red flag, not an optimisation.

  include-hygiene
      Every header under src/ starts with `#pragma once`, never uses
      parent-relative (`../`) includes, and every quoted project include
      resolves to a real file under src/ (catching stale paths before the
      compiler's error novel does).

  no-ambient-entropy
      `rand(`, `srand(`, `time(nullptr)` and `std::chrono::system_clock` are
      banned outside src/random (the one seeded-RNG home) and src/obs (the
      one wall-clock home): every result in this repo is bit-identical given
      a seed, and an ambient entropy or wall-clock read anywhere else breaks
      that silently. The semantic analyzer (tools/analyze) proves the
      call-graph version of this; the textual rule catches what never
      compiles into the call graph (macros, dead branches, new files). A
      deliberate exception carries `// lint:allow-entropy(<reason>)` on the
      same or the previous line.

  edge-id-table-borrowers
      In src/, `edge_ids_data(` and `edge_id_of(` (the channel -> edge-id
      table of graph/channel_index.hpp) may appear only in
      graph/channel_index.*, graph/flat_adjacency.* and graph/snapshot.*.
      Everything else resolves edge ids with ChannelIndex::edge_id(v, i),
      which computes the closed form for hypercube, mesh/torus and complete
      graphs, so a consumer on the implicit path cannot force the 4-byte-
      per-channel table again without saying so. A deliberate exception
      carries `// lint:allow-edge-id-table(<reason>)` on the same line.

Usage:
    tools/lint/faultroute_lint.py [--root DIR]     # lint the tree
    tools/lint/faultroute_lint.py --self-test      # prove each rule fires

Exit status: 0 clean, 1 violations found (or a self-test rule failed to
fire), 2 usage/setup error.
"""

from __future__ import annotations

import argparse
import re
import sys
import tempfile
from pathlib import Path

# --------------------------------------------------------------- configuration

CXX_DIRS = ("src", "tools", "bench", "tests")
CXX_SUFFIXES = {".cpp", ".hpp", ".h", ".cc"}

# Dot-path prefixes that denote runtime counters / report table keys. A C++
# string literal "<prefix>.<word>[.<word>...]" is treated as a counter path.
COUNTER_NAMESPACES = (
    "traffic",
    "graph",
    "scenario",
    "route",
    "components",
    "trials",
)

COUNTERS_MANIFEST = Path("docs") / "COUNTERS.md"

# The one header allowed to spell out faultroute.*.vN schema ids.
SCHEMA_HEADER = Path("src") / "obs" / "schemas.hpp"

# Directories where hash containers need a lint:allow-hash(<reason>) tag.
HOT_PATH_DIRS = (
    Path("src") / "traffic",
    Path("src") / "graph",
    Path("src") / "core" / "routers",
    Path("src") / "percolation",
)

# Files whose relaxed-atomic use has a reviewed concurrency model (TSan'd by
# tests/test_concurrency_stress.cpp; argued in docs/ARCHITECTURE.md):
#   shared_probe_cache: tri-state CAS publication of pure-function values
#   counter_registry / phase_profiler: thread-owned slots, read at joins
#   parallel: work-stealing ticket counter; RMWs on one atomic are totally
#     ordered and thread join publishes the bodies' writes
#   test_concurrency_stress: the stress suite exercising all of the above
RELAXED_ALLOWLIST = {
    Path("src") / "percolation" / "shared_probe_cache.hpp",
    Path("src") / "percolation" / "shared_probe_cache.cpp",
    Path("src") / "core" / "parallel.cpp",
    Path("src") / "obs" / "counter_registry.cpp",
    Path("src") / "obs" / "counter_registry.hpp",
    Path("src") / "obs" / "phase_profiler.cpp",
    Path("tests") / "test_concurrency_stress.cpp",
}

# Directories whose files may read entropy / the wall clock.
ENTROPY_EXEMPT_DIRS = (
    Path("src") / "random",
    Path("src") / "obs",
)

# The files of src/ that may read the channel -> edge-id table directly.
EDGE_ID_TABLE_OWNERS = {
    Path("src") / "graph" / f"{stem}.{suffix}"
    for stem in ("channel_index", "flat_adjacency", "snapshot")
    for suffix in ("hpp", "cpp")
}

COUNTER_PATH_RE = re.compile(
    r'^(?:' + "|".join(COUNTER_NAMESPACES) + r')\.[a-z0-9_]+(?:\.[a-z0-9_]+)*$'
)
SCHEMA_ID_RE = re.compile(r'faultroute\.[a-z0-9_.]+\.v[0-9]+')
ALLOW_HASH_RE = re.compile(r'lint:allow-hash\([^)]+\)')
HASH_CONTAINER_RE = re.compile(r'\bunordered_(?:map|set)\b')
ALLOW_ENTROPY_RE = re.compile(r'lint:allow-entropy\([^)]+\)')
ALLOW_EDGE_ID_TABLE_RE = re.compile(r'lint:allow-edge-id-table\([^)]+\)')
EDGE_ID_TABLE_RE = re.compile(r'\b(?:edge_ids_data|edge_id_of)\s*\(')
# Each pattern is (regex, human name). `rand(` uses a lookbehind so that
# `srand(` (matched separately) and identifiers like `hash_grand(` don't
# double-report, and `time(nullptr)` tolerates interior whitespace.
ENTROPY_PATTERNS = (
    (re.compile(r'(?<![A-Za-z0-9_])rand\s*\('), "rand()"),
    (re.compile(r'(?<![A-Za-z0-9_])srand\s*\('), "srand()"),
    (re.compile(r'(?<![A-Za-z0-9_])time\s*\(\s*nullptr\s*\)'), "time(nullptr)"),
    (re.compile(r'\bsystem_clock\b'), "std::chrono::system_clock"),
    (re.compile(r'\brandom_device\b'), "std::random_device"),
)


class Violation:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        loc = f"{self.path}:{self.line}" if self.line else str(self.path)
        return f"{loc}: [{self.rule}] {self.message}"


# ------------------------------------------------------------- C++ tokenizing

def strip_comments(text: str) -> str:
    """Blanks out // and /* */ comments, preserving string literal contents
    and line numbers (newlines inside block comments are kept)."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
            elif c == "'":
                state = "char"
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append(c)
                out.append(nxt)
                i += 2
                continue
            if c == '"' or c == "\n":  # unterminated = malformed; bail at EOL
                state = "code"
            out.append(c)
        elif state == "char":
            if c == "\\":
                out.append(c)
                out.append(nxt)
                i += 2
                continue
            if c == "'" or c == "\n":
                state = "code"
            out.append(c)
        i += 1
    return "".join(out)


STRING_LITERAL_RE = re.compile(r'"((?:[^"\\\n]|\\.)*)"')


def string_literals(stripped: str):
    """Yields (line_number, literal_body) for every string literal in
    comment-stripped C++ text."""
    for m in STRING_LITERAL_RE.finditer(stripped):
        line = stripped.count("\n", 0, m.start()) + 1
        yield line, m.group(1)


def cxx_files(root: Path):
    for d in CXX_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in CXX_SUFFIXES and path.is_file():
                yield path


# -------------------------------------------------------------------- rules

def check_counters_manifest(root: Path) -> list[Violation]:
    violations = []
    used: dict[str, tuple[Path, int]] = {}
    for path in cxx_files(root):
        stripped = strip_comments(path.read_text(encoding="utf-8"))
        for line, lit in string_literals(stripped):
            if COUNTER_PATH_RE.match(lit) and lit not in used:
                used[lit] = (path.relative_to(root), line)

    manifest = root / COUNTERS_MANIFEST
    if not manifest.is_file():
        violations.append(
            Violation("counters-manifest", COUNTERS_MANIFEST, 0,
                      "manifest missing: every counter dot-path used in C++ "
                      "must be documented here"))
        return violations

    documented: dict[str, int] = {}
    for lineno, line in enumerate(manifest.read_text(encoding="utf-8").splitlines(), 1):
        for m in re.finditer(r'`([a-z0-9_.]+)`', line):
            name = m.group(1)
            if COUNTER_PATH_RE.match(name):
                documented[name] = documented.get(name, 0) + 1
                documented.setdefault(f"__line__{name}", lineno)

    for name, (path, line) in sorted(used.items()):
        count = documented.get(name, 0)
        if count == 0:
            violations.append(
                Violation("counters-manifest", path, line,
                          f"counter path '{name}' is not documented in "
                          f"{COUNTERS_MANIFEST}"))
        elif count > 1:
            violations.append(
                Violation("counters-manifest", COUNTERS_MANIFEST,
                          documented[f"__line__{name}"],
                          f"counter path '{name}' documented {count} times "
                          "(must be exactly once)"))
    for name in sorted(documented):
        if name.startswith("__line__"):
            continue
        if name not in used:
            violations.append(
                Violation("counters-manifest", COUNTERS_MANIFEST,
                          documented[f"__line__{name}"],
                          f"counter path '{name}' is documented but no C++ "
                          "string literal uses it (stale manifest entry)"))
    return violations


def check_schema_single_definition(root: Path) -> list[Violation]:
    violations = []
    for path in cxx_files(root):
        rel = path.relative_to(root)
        if rel == SCHEMA_HEADER:
            continue
        stripped = strip_comments(path.read_text(encoding="utf-8"))
        for line, lit in string_literals(stripped):
            for m in SCHEMA_ID_RE.finditer(lit):
                violations.append(
                    Violation("schema-single-definition", rel, line,
                              f"schema id '{m.group(0)}' spelled as a literal; "
                              f"reference the constant in {SCHEMA_HEADER} instead"))
    return violations


def check_no_hash_in_hot_paths(root: Path) -> list[Violation]:
    violations = []
    for hot_dir in HOT_PATH_DIRS:
        base = root / hot_dir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CXX_SUFFIXES or not path.is_file():
                continue
            raw_lines = path.read_text(encoding="utf-8").splitlines()
            stripped_lines = strip_comments("\n".join(raw_lines)).splitlines()
            for idx, code in enumerate(stripped_lines):
                if not HASH_CONTAINER_RE.search(code):
                    continue
                if code.lstrip().startswith("#include"):
                    continue  # the use sites carry the tag, not the include
                here = raw_lines[idx] if idx < len(raw_lines) else ""
                prev = raw_lines[idx - 1] if idx > 0 else ""
                if ALLOW_HASH_RE.search(here) or ALLOW_HASH_RE.search(prev):
                    continue
                violations.append(
                    Violation("no-hash-in-hot-paths", path.relative_to(root), idx + 1,
                              "hash container in a hot-path directory without a "
                              "'// lint:allow-hash(<reason>)' tag on this or the "
                              "previous line"))
    return violations


def check_relaxed_ordering(root: Path) -> list[Violation]:
    violations = []
    for path in cxx_files(root):
        rel = path.relative_to(root)
        if rel in RELAXED_ALLOWLIST:
            continue
        stripped = strip_comments(path.read_text(encoding="utf-8"))
        for idx, code in enumerate(stripped.splitlines()):
            if "memory_order_relaxed" in code:
                violations.append(
                    Violation("relaxed-ordering-allowlist", rel, idx + 1,
                              "memory_order_relaxed outside the allowlisted "
                              "files (see RELAXED_ALLOWLIST in "
                              "tools/lint/faultroute_lint.py; add the file "
                              "only with a reviewed concurrency model)"))
    return violations


def check_include_hygiene(root: Path) -> list[Violation]:
    violations = []
    src = root / "src"
    if not src.is_dir():
        return violations
    for path in sorted(src.rglob("*.hpp")):
        rel = path.relative_to(root)
        raw = path.read_text(encoding="utf-8")
        stripped = strip_comments(raw)
        first_directive = next(
            (line.strip() for line in stripped.splitlines() if line.strip()), "")
        if first_directive != "#pragma once":
            violations.append(
                Violation("include-hygiene", rel, 1,
                          "public header must open with '#pragma once'"))
        for idx, line in enumerate(stripped.splitlines()):
            m = re.match(r'\s*#\s*include\s+"([^"]+)"', line)
            if not m:
                continue
            target = m.group(1)
            if target.startswith("../") or "/../" in target:
                violations.append(
                    Violation("include-hygiene", rel, idx + 1,
                              f"parent-relative include \"{target}\" — project "
                              "includes are rooted at src/"))
            elif not (src / target).is_file() and target != "obs/version.hpp":
                # obs/version.hpp is generated into the build tree by CMake.
                violations.append(
                    Violation("include-hygiene", rel, idx + 1,
                              f"include \"{target}\" does not resolve under src/"))
    return violations


def check_no_ambient_entropy(root: Path) -> list[Violation]:
    violations = []
    for path in cxx_files(root):
        rel = path.relative_to(root)
        if any(d in rel.parents for d in ENTROPY_EXEMPT_DIRS):
            continue
        raw_lines = path.read_text(encoding="utf-8").splitlines()
        stripped_lines = strip_comments("\n".join(raw_lines)).splitlines()
        for idx, code in enumerate(stripped_lines):
            for pattern, name in ENTROPY_PATTERNS:
                if not pattern.search(code):
                    continue
                here = raw_lines[idx] if idx < len(raw_lines) else ""
                prev = raw_lines[idx - 1] if idx > 0 else ""
                if ALLOW_ENTROPY_RE.search(here) or ALLOW_ENTROPY_RE.search(prev):
                    continue
                violations.append(
                    Violation("no-ambient-entropy", rel, idx + 1,
                              f"{name} outside src/random and src/obs breaks "
                              "seeded bit-identical results; use the seeded "
                              "Rng / obs clocks, or tag a deliberate "
                              "exception with '// lint:allow-entropy(<reason>)'"))
    return violations


def check_edge_id_table_borrowers(root: Path) -> list[Violation]:
    violations = []
    src = root / "src"
    if not src.is_dir():
        return violations
    for path in sorted(src.rglob("*")):
        if path.suffix not in CXX_SUFFIXES or not path.is_file():
            continue
        rel = path.relative_to(root)
        if rel in EDGE_ID_TABLE_OWNERS:
            continue
        raw_lines = path.read_text(encoding="utf-8").splitlines()
        stripped_lines = strip_comments("\n".join(raw_lines)).splitlines()
        for idx, code in enumerate(stripped_lines):
            m = EDGE_ID_TABLE_RE.search(code)
            if not m or ALLOW_EDGE_ID_TABLE_RE.search(raw_lines[idx]):
                continue
            violations.append(
                Violation("edge-id-table-borrowers", rel, idx + 1,
                          f"{m.group(0).rstrip('( ')}() reads the channel -> "
                          "edge-id table, which closed-form families never "
                          "need to build; use ChannelIndex::edge_id(v, i), or "
                          "tag a deliberate borrower with "
                          "'// lint:allow-edge-id-table(<reason>)'"))
    return violations


RULES = {
    "counters-manifest": check_counters_manifest,
    "schema-single-definition": check_schema_single_definition,
    "no-hash-in-hot-paths": check_no_hash_in_hot_paths,
    "relaxed-ordering-allowlist": check_relaxed_ordering,
    "include-hygiene": check_include_hygiene,
    "no-ambient-entropy": check_no_ambient_entropy,
    "edge-id-table-borrowers": check_edge_id_table_borrowers,
}


def run_lint(root: Path) -> list[Violation]:
    violations = []
    for rule in RULES.values():
        violations.extend(rule(root))
    return violations


# ---------------------------------------------------------------- self-test

def _write(root: Path, rel: str, content: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(content, encoding="utf-8")


def _clean_tree(root: Path) -> None:
    """A minimal tree that passes every rule."""
    _write(root, "src/obs/schemas.hpp",
           '#pragma once\n'
           'inline constexpr const char* kScenario = "faultroute.scenario.v3";\n')
    _write(root, "src/traffic/engine.hpp",
           '#pragma once\n'
           '#include "obs/schemas.hpp"\n'
           '// a comment mentioning traffic.cache.hits must NOT count as use\n'
           'inline const char* kHits = "traffic.cache.hits";\n')
    _write(root, "docs/COUNTERS.md",
           "# Counters\n\n| `traffic.cache.hits` | probe cache hits |\n")


def expect(condition: bool, label: str, failures: list[str]) -> None:
    print(f"  {'PASS' if condition else 'FAIL'}  {label}")
    if not condition:
        failures.append(label)


def self_test() -> int:
    failures: list[str] = []

    def fires(rule: str, mutate, label: str, expect_count: int | None = None) -> None:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            _clean_tree(root)
            mutate(root)
            found = [v for v in run_lint(root) if v.rule == rule]
            ok = bool(found) if expect_count is None else len(found) == expect_count
            expect(ok, label, failures)

    print("faultroute_lint self-test: the clean tree passes")
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _clean_tree(root)
        clean = run_lint(root)
        expect(not clean, "clean tree has no violations", failures)
        for v in clean:
            print(f"    unexpected: {v}")

    print("each rule fires on a seeded violation:")

    # counters-manifest: undocumented use
    fires("counters-manifest",
          lambda root: _write(root, "src/traffic/extra.cpp",
                              'const char* k = "traffic.routing.new_counter";\n'),
          "undocumented counter path is reported")
    # counters-manifest: stale manifest entry
    fires("counters-manifest",
          lambda root: _write(root, "docs/COUNTERS.md",
                              "| `traffic.cache.hits` | hits |\n"
                              "| `traffic.cache.gone` | removed counter |\n"),
          "stale manifest entry is reported")
    # counters-manifest: duplicate manifest entry
    fires("counters-manifest",
          lambda root: _write(root, "docs/COUNTERS.md",
                              "| `traffic.cache.hits` | hits |\n"
                              "| `traffic.cache.hits` | hits again |\n"),
          "duplicate manifest entry is reported")

    # schema-single-definition
    fires("schema-single-definition",
          lambda root: _write(root, "src/traffic/emit.cpp",
                              'const char* s = "faultroute.bench.rogue.v1";\n'),
          "schema literal outside schemas.hpp is reported")
    fires("schema-single-definition",
          lambda root: _write(root, "src/traffic/emit.cpp",
                              '// faultroute.bench.rogue.v1 in a comment is fine\n'),
          "schema id in a comment is NOT reported", expect_count=0)

    # no-hash-in-hot-paths
    fires("no-hash-in-hot-paths",
          lambda root: _write(root, "src/graph/table.hpp",
                              '#pragma once\n'
                              '#include <unordered_map>\n'
                              'std::unordered_map<int, int> m;\n'),
          "untagged hash container in a hot dir is reported")
    fires("no-hash-in-hot-paths",
          lambda root: _write(root, "src/graph/table.hpp",
                              '#pragma once\n'
                              '#include <unordered_map>\n'
                              '// lint:allow-hash(cold path, test fixture)\n'
                              'std::unordered_map<int, int> m;\n'),
          "tagged hash container is NOT reported", expect_count=0)
    fires("no-hash-in-hot-paths",
          lambda root: _write(root, "src/analysis/stats.hpp",
                              '#pragma once\n'
                              '#include <unordered_map>\n'
                              'std::unordered_map<int, int> m;\n'),
          "hash container outside hot dirs is NOT reported", expect_count=0)

    # relaxed-ordering-allowlist
    fires("relaxed-ordering-allowlist",
          lambda root: _write(root, "src/scenario/run.cpp",
                              '#include <atomic>\n'
                              'void f(std::atomic<int>& a) '
                              '{ a.load(std::memory_order_relaxed); }\n'),
          "relaxed ordering outside the allowlist is reported")
    fires("relaxed-ordering-allowlist",
          lambda root: _write(root, "src/obs/counter_registry.cpp",
                              '#include <atomic>\n'
                              'void f(std::atomic<int>& a) '
                              '{ a.load(std::memory_order_relaxed); }\n'),
          "relaxed ordering in an allowlisted file is NOT reported",
          expect_count=0)

    # no-ambient-entropy
    fires("no-ambient-entropy",
          lambda root: _write(root, "src/traffic/jitter.cpp",
                              '#include <cstdlib>\n'
                              'int f() { return std::rand() % 7; }\n'),
          "rand() outside the exempt dirs is reported")
    fires("no-ambient-entropy",
          lambda root: _write(root, "src/scenario/seed.cpp",
                              '#include <ctime>\n'
                              'long f() { srand(1); return time(nullptr); }\n'),
          "srand() and time(nullptr) are both reported", expect_count=2)
    fires("no-ambient-entropy",
          lambda root: _write(root, "src/traffic/stamp.cpp",
                              '#include <chrono>\n'
                              'auto f() { return '
                              'std::chrono::system_clock::now(); }\n'),
          "system_clock outside src/obs is reported")
    fires("no-ambient-entropy",
          lambda root: _write(root, "src/obs/wallclock.cpp",
                              '#include <chrono>\n'
                              'auto f() { return '
                              'std::chrono::system_clock::now(); }\n'),
          "system_clock inside src/obs is NOT reported", expect_count=0)
    fires("no-ambient-entropy",
          lambda root: _write(root, "src/random/device.cpp",
                              '#include <random>\n'
                              'unsigned f() { std::random_device d; return d(); }\n'),
          "random_device inside src/random is NOT reported", expect_count=0)
    fires("no-ambient-entropy",
          lambda root: _write(root, "src/traffic/tagged.cpp",
                              '#include <cstdlib>\n'
                              '// lint:allow-entropy(demo of the escape hatch)\n'
                              'int f() { return std::rand(); }\n'),
          "tagged entropy use is NOT reported", expect_count=0)
    fires("no-ambient-entropy",
          lambda root: _write(root, "src/traffic/strand.cpp",
                              'int strand(int x);\n'
                              'int f() { return strand(3); }\n'),
          "identifier merely ending in rand is NOT reported", expect_count=0)

    # edge-id-table-borrowers
    fires("edge-id-table-borrowers",
          lambda root: _write(root, "src/core/probe.cpp",
                              'unsigned f(const ChannelIndex& c, unsigned ch) '
                              '{ return c.edge_id_of(ch); }\n'
                              'const unsigned* g(const ChannelIndex& c) '
                              '{ return c.edge_ids_data(); }\n'),
          "edge_id_of() and edge_ids_data() outside graph/ are both reported",
          expect_count=2)
    fires("edge-id-table-borrowers",
          lambda root: _write(root, "src/graph/channel_index.hpp",
                              '#pragma once\n'
                              'unsigned f(unsigned ch) { return edge_ids_data()[ch]; }\n'),
          "the table's owners are NOT reported", expect_count=0)
    fires("edge-id-table-borrowers",
          lambda root: _write(root, "src/traffic/loads.cpp",
                              '// edge_id_of(channel) in a comment is fine\n'
                              'const unsigned* g(const ChannelIndex& c) { return '
                              'c.edge_ids_data(); }  '
                              '// lint:allow-edge-id-table(demo of the escape hatch)\n'),
          "a tagged borrower and a comment are NOT reported", expect_count=0)

    # include-hygiene
    fires("include-hygiene",
          lambda root: _write(root, "src/graph/loose.hpp",
                              '#include <vector>\nint x;\n'),
          "header without #pragma once is reported")
    fires("include-hygiene",
          lambda root: _write(root, "src/graph/up.hpp",
                              '#pragma once\n#include "../traffic/engine.hpp"\n'),
          "parent-relative include is reported")
    fires("include-hygiene",
          lambda root: _write(root, "src/graph/stale.hpp",
                              '#pragma once\n#include "graph/no_such_file.hpp"\n'),
          "non-resolving project include is reported")

    if failures:
        print(f"\nself-test FAILED ({len(failures)} case(s))")
        return 1
    print("\nself-test passed")
    return 0


# --------------------------------------------------------------------- main

def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels up from this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="seed violations of every rule and assert detection")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()

    root = Path(args.root) if args.root else Path(__file__).resolve().parents[2]
    if not (root / "src").is_dir():
        print(f"faultroute_lint: no src/ under {root}", file=sys.stderr)
        return 2

    violations = run_lint(root)
    for v in violations:
        print(v)
    if violations:
        print(f"faultroute_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("faultroute_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
