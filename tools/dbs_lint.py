#!/usr/bin/env python3
"""dbs_lint: repo-specific contract linter for the dbs broadcast scheduler.

Enforces project invariants that clang-tidy cannot express:

  contract-audit     Every public entry point (a function defined in a
                     src/**/*.cc whose name is declared in a header of the
                     same module) that consumes a user-supplied Database /
                     catalogue must validate its inputs with DBS_CHECK /
                     DBS_CHECK_MSG, or carry an explicit
                     `// dbs-lint: contract delegated` annotation naming the
                     callee that performs the check. This keeps the contract
                     audit grep-able: `grep -rn "dbs-lint: contract"` lists
                     every delegation.
  include-cc         No `#include` of a `.cc` file anywhere (src, tests,
                     bench, examples). Including implementation files breaks
                     the one-definition rule silently.
  check-iwyu         Any file that uses DBS_CHECK / DBS_CHECK_MSG /
                     DBS_ASSERT must itself include "common/check.h" —
                     macro availability must never ride on transitive
                     includes.
  determinism        src/ must not call std::rand / rand / srand /
                     std::random_device, read wall-clock `time(`, or read
                     the environment with `getenv(` — all randomness flows
                     through the seeded dbs::Rng layer and every setting
                     through an options struct, so every experiment replays
                     bit-for-bit whatever the caller's shell exports.
  detail-isolation   tests/ and bench/ must not name `detail::` symbols;
                     the detail namespaces are internal and not part of the
                     tested surface.
  api-docs           Every namespace-scope declaration in a src/api/,
                     src/model/ or src/core/ header must carry a `///` doc
                     comment on the line above, and function declarations
                     must additionally contain a `\\brief` tag — src/api is
                     the facade users read first, and model/core are the
                     layers docs/ARCHITECTURE.md narrates, so an
                     undocumented entry point in any of them is a defect.
  obs-metric-names   Every literal name handed to the observability layer
                     (DBS_OBS_* macros, MetricsRegistry counter/gauge/
                     histogram registration) must match the
                     snake_case.dotted.namespace contract — at least two
                     dot-separated components of [a-z][a-z0-9_]*. The
                     registry DBS_CHECKs this at runtime; the lint catches
                     it before anything runs.
  raw-sync-primitive Raw standard sync primitives (std::mutex and family,
                     std::lock_guard / std::unique_lock / std::scoped_lock,
                     std::condition_variable) are banned everywhere except
                     src/common/sync.h — all locking goes through the
                     capability-annotated dbs::Mutex / dbs::MutexLock so
                     Clang's thread-safety analysis (DBS_THREAD_SAFETY=ON)
                     sees every critical section. Growing the vocabulary
                     (shared/timed mutexes, condvars) means growing sync.h,
                     not bypassing it.
  guarded-by-audit   In any TU that includes common/sync.h, a `mutable`
                     non-atomic field must either be the Mutex itself or
                     carry a DBS_GUARDED_BY annotation — `mutable` is
                     exactly the qualifier that lets const entry points
                     mutate shared state behind the caller's back, so its
                     protection must be spelled out in the type. This keeps
                     the Python linter and the compiler analysis pointed at
                     the same contract.
  unset-option       Every field of a `struct ...Options`, `...Config` or
                     `...Request` in a src/ header must be written by some
                     file outside tests/ and tools/lint_cases/: a
                     `.field = ...` or `.field.sub = ...` assignment or
                     designated initializer in src/, bench/, examples/,
                     tools/ or e2ebench/. A setting that only tests set
                     doubles the configurations tests and benchmarks must
                     cover without changing a result any program gets; make
                     it a named constant. A field kept on purpose carries
                     `// dbs-lint: allow(unset-option) <reason>` on its line
                     or the line above; a mark without a reason does not
                     count. The selftest lints each fixture alone, so there a
                     fixture's own writes are the only ones.

Exit status: 0 when clean, 1 when any finding is reported, 2 on usage error.

Run on the repo:      tools/dbs_lint.py --root .
Machine-readable:     tools/dbs_lint.py --root . --json   (schema dbs-lint-v1)
Run the golden cases: tools/dbs_lint.py --selftest
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SRC_DIRS = ("src",)
TEST_DIRS = ("tests", "bench")
ALL_DIRS = ("src", "tests", "bench", "examples")

DELEGATION_MARK = "dbs-lint: contract delegated"
SUPPRESS_MARK = "dbs-lint: allow"  # `// dbs-lint: allow(<rule>)` on the line


class Finding:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def iter_files(root: Path, dirs, suffixes=(".h", ".cc", ".cpp")):
    for d in dirs:
        base = root / d
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in suffixes and path.is_file():
                yield path


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving offsets.

    Keeps newlines so line numbers computed against the stripped text match
    the original file.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            out.append("".join(ch if ch == "\n" else " " for ch in text[i:j]))
            i = j
        elif c == "'" and i > 0 and (text[i - 1].isdigit() or text[i - 1] == "'"):
            # C++14 digit separator (200'000), not a char literal.
            out.append(c)
            i += 1
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            out.append(quote + " " * (j - i - 2) + (quote if j - i >= 2 else ""))
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


def suppressed(lines, lineno: int, rule: str) -> bool:
    """True if the 1-based line (or the one above) carries an allow marker."""
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(lines) and SUPPRESS_MARK in lines[ln - 1]:
            allowed = lines[ln - 1].split(SUPPRESS_MARK, 1)[1]
            if rule in allowed or "(*)" in allowed:
                return True
    return False


# --------------------------------------------------------------------------
# Rule: include-cc
# --------------------------------------------------------------------------

INCLUDE_CC_RE = re.compile(r'^\s*#\s*include\s+[<"][^<">]+\.cc[">]', re.M)


def rule_include_cc(path: Path, text: str, findings):
    for m in INCLUDE_CC_RE.finditer(text):
        findings.append(
            Finding("include-cc", path, line_of(text, m.start()),
                    "#include of a .cc implementation file"))


# --------------------------------------------------------------------------
# Rule: check-iwyu
# --------------------------------------------------------------------------

CHECK_MACRO_RE = re.compile(r"\bDBS_(CHECK|CHECK_MSG|ASSERT)\s*\(")
CHECK_INCLUDE_RE = re.compile(r'#\s*include\s+"common/check\.h"')


def rule_check_iwyu(path: Path, text: str, stripped: str, findings):
    if path.name == "check.h":
        return
    m = CHECK_MACRO_RE.search(stripped)
    if m and not CHECK_INCLUDE_RE.search(text):
        findings.append(
            Finding("check-iwyu", path, line_of(stripped, m.start()),
                    'uses DBS_CHECK/DBS_ASSERT but does not itself '
                    '#include "common/check.h"'))


# --------------------------------------------------------------------------
# Rule: determinism
# --------------------------------------------------------------------------

USE_RNG = "draw from dbs::Rng (src/common/rng.h) instead"
NONDETERMINISM_RES = (
    (re.compile(r"(?<![A-Za-z0-9_:])s?rand\s*\("), "rand()/srand()", USE_RNG),
    (re.compile(r"\bstd::rand\b"), "std::rand", USE_RNG),
    (re.compile(r"\bstd::random_device\b"), "std::random_device", USE_RNG),
    (re.compile(r"(?<![A-Za-z0-9_.>])time\s*\("), "wall-clock time()", USE_RNG),
    (re.compile(r"(?<![A-Za-z0-9_])(?:secure_)?getenv\s*\("),
     "an environment read (getenv)",
     "pass the value through an options struct instead, so a seeded result "
     "cannot depend on the caller's shell"),
)


def rule_determinism(path: Path, stripped: str, lines, findings):
    for regex, what, advice in NONDETERMINISM_RES:
        for m in regex.finditer(stripped):
            ln = line_of(stripped, m.start())
            if suppressed(lines, ln, "determinism"):
                continue
            findings.append(
                Finding("determinism", path, ln,
                        f"{what} breaks replayability; {advice}"))


# --------------------------------------------------------------------------
# Rule: detail-isolation
# --------------------------------------------------------------------------

DETAIL_RE = re.compile(r"\bdetail\s*::")


def rule_detail_isolation(path: Path, stripped: str, lines, findings):
    for m in DETAIL_RE.finditer(stripped):
        ln = line_of(stripped, m.start())
        if suppressed(lines, ln, "detail-isolation"):
            continue
        findings.append(
            Finding("detail-isolation", path, ln,
                    "tests/bench must not reach into detail:: internals"))


# --------------------------------------------------------------------------
# Rule: api-docs
# --------------------------------------------------------------------------

# Header directories whose public declarations must be documented: the user
# facade plus the two layers docs/ARCHITECTURE.md walks through.
API_DOC_DIRS = (("src", "api"), ("src", "model"), ("src", "core"))

PREPROCESSOR_RE = re.compile(r"^\s*#.*$", re.M)
TYPE_DECL_RE = re.compile(r"^(?:template\s*<[^;{}]*>\s*)?(?:class|struct|enum)\b")
SKIP_DECL_RE = re.compile(r"^(?:using\b|typedef\b|extern\b|static_assert\b|friend\b)")
# A bodiless `class X;` introduces no API surface — don't demand docs on it.
FORWARD_DECL_RE = re.compile(r"^(?:class|struct|enum(?:\s+(?:class|struct))?)\s+[A-Za-z_]\w*$")
BRIEF_RE = re.compile(r"[\\@]brief\b")


def namespace_scope_declarations(stripped: str):
    """Yields (offset, declaration-text, is_function) for each declaration at
    namespace scope. Namespace braces are depth-neutral, so declarations
    inside `namespace a::b { ... }` count as namespace scope while class
    bodies and function bodies are skipped wholesale."""
    text = PREPROCESSOR_RE.sub(lambda m: " " * len(m.group(0)), stripped)
    n = len(text)
    i = 0
    while i < n:
        while i < n and text[i].isspace():
            i += 1
        if i >= n:
            return
        if text[i] in ";}":  # stray terminators (e.g. closing a namespace)
            i += 1
            continue
        # One declaration: runs to the first `;` or `{` outside parentheses.
        start = i
        parens = 0
        while i < n and not (parens == 0 and text[i] in ";{"):
            if text[i] == "(":
                parens += 1
            elif text[i] == ")":
                parens -= 1
            i += 1
        decl = " ".join(text[start:i].split())
        if i >= n:
            return
        if text[i] == "{":
            if decl.startswith("namespace") or not decl:
                i += 1  # depth-neutral: recurse into the namespace body
                continue
            body_end = find_matching_brace(text, i)
            is_type = bool(TYPE_DECL_RE.match(decl))
            if decl and not SKIP_DECL_RE.match(decl):
                yield start, decl, not is_type and "(" in decl
            i = body_end + 1
            continue
        # Terminated by `;`: plain declaration.
        if decl and not SKIP_DECL_RE.match(decl) and not FORWARD_DECL_RE.match(decl):
            is_type = bool(TYPE_DECL_RE.match(decl))
            yield start, decl, not is_type and "(" in decl
        i += 1


def doc_block_above(lines, decl_line: int):
    """Returns the contiguous `///` comment block ending directly above the
    1-based `decl_line`, or None when the preceding line is not a doc line."""
    block = []
    ln = decl_line - 1
    while ln >= 1 and lines[ln - 1].lstrip().startswith("///"):
        block.append(lines[ln - 1])
        ln -= 1
    return block or None


def rule_api_docs(path: Path, stripped: str, lines, findings):
    for offset, decl, is_function in namespace_scope_declarations(stripped):
        ln = line_of(stripped, offset)
        if suppressed(lines, ln, "api-docs"):
            continue
        label = decl if len(decl) <= 48 else decl[:45] + "..."
        block = doc_block_above(lines, ln)
        if block is None:
            findings.append(
                Finding("api-docs", path, ln,
                        f"public declaration '{label}' lacks a /// doc "
                        "comment on the line above"))
        elif is_function and not any(BRIEF_RE.search(line) for line in block):
            findings.append(
                Finding("api-docs", path, ln,
                        f"doc comment of public function '{label}' lacks a "
                        "\\brief tag"))


# --------------------------------------------------------------------------
# Rule: obs-metric-names
# --------------------------------------------------------------------------

METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+$")

# Literal-name call sites of the observability layer: the DBS_OBS_* macro
# family (src/obs/obs.h) and direct registry registration. Matched against
# the original text (the literal is blanked in the stripped copy) and then
# position-checked against the stripped text so commented-out call sites
# don't count.
OBS_CALLSITE_RE = re.compile(
    r'(?:\bDBS_OBS_(?:COUNTER_INC|COUNTER_ADD|GAUGE_SET|HISTOGRAM_OBSERVE|'
    r'SPAN)|\.\s*(?:counter|gauge|histogram))\s*\(\s*"([^"]*)"')


def rule_obs_metric_names(path: Path, text: str, stripped: str, lines,
                          findings):
    for m in OBS_CALLSITE_RE.finditer(text):
        if not OBS_CALLSITE_RE.match(stripped, m.start()):
            continue  # inside a comment or string literal
        name = m.group(1)
        if METRIC_NAME_RE.match(name):
            continue
        ln = line_of(text, m.start())
        if suppressed(lines, ln, "obs-metric-names"):
            continue
        findings.append(
            Finding("obs-metric-names", path, ln,
                    f"metric/span name '{name}' violates the "
                    "snake_case.dotted.namespace contract "
                    "(>= 2 dot-separated [a-z][a-z0-9_]* components)"))


# --------------------------------------------------------------------------
# Rule: raw-sync-primitive
# --------------------------------------------------------------------------

RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|recursive_mutex|timed_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b")


def is_sync_header(rel: Path) -> bool:
    """True for the one file allowed to touch raw primitives."""
    return rel.parts[-3:] == ("src", "common", "sync.h") or \
        rel.parts == ("common", "sync.h")


def rule_raw_sync_primitive(path: Path, rel: Path, stripped: str, lines,
                            findings):
    if is_sync_header(rel):
        return
    for m in RAW_SYNC_RE.finditer(stripped):
        ln = line_of(stripped, m.start())
        if suppressed(lines, ln, "raw-sync-primitive"):
            continue
        findings.append(
            Finding("raw-sync-primitive", path, ln,
                    f"raw std::{m.group(1)} outside src/common/sync.h; use "
                    "the capability-annotated dbs::Mutex / dbs::MutexLock "
                    "(or extend sync.h) so the thread-safety analysis sees "
                    "this critical section"))


# --------------------------------------------------------------------------
# Rule: guarded-by-audit
# --------------------------------------------------------------------------

SYNC_INCLUDE_RE = re.compile(r'#\s*include\s+"common/sync\.h"')
MUTABLE_FIELD_RE = re.compile(r"^\s*mutable\b[^;(){}]*;", re.M)
GUARDED_FIELD_OK_RE = re.compile(
    r"std::atomic\b|\bMutex\b|DBS_GUARDED_BY|DBS_PT_GUARDED_BY")


def rule_guarded_by_audit(path: Path, rel: Path, text: str, stripped: str,
                          lines, findings):
    if is_sync_header(rel):
        return
    if not SYNC_INCLUDE_RE.search(text):
        return  # TU has not opted into the annotated-sync world
    for m in MUTABLE_FIELD_RE.finditer(stripped):
        decl = m.group(0)
        if GUARDED_FIELD_OK_RE.search(decl):
            continue
        ln = line_of(stripped, m.start())
        if suppressed(lines, ln, "guarded-by-audit"):
            continue
        label = " ".join(decl.split())
        if len(label) > 48:
            label = label[:45] + "..."
        findings.append(
            Finding("guarded-by-audit", path, ln,
                    f"mutable non-atomic field '{label}' in a sync.h TU "
                    "carries no DBS_GUARDED_BY — name its lock, make it "
                    "std::atomic, or justify a suppression"))


# --------------------------------------------------------------------------
# Rule: unset-option
# --------------------------------------------------------------------------

# Directories whose files count as callers that set an option field.
OPTION_WRITER_DIRS = ("src", "bench", "examples", "tools", "e2ebench")
OPTION_STRUCT_RE = re.compile(
    r"\bstruct\s+([A-Za-z_]\w*(?:Options|Config|Request))\s*(?::[^{;]*)?\{")
# `.a.b.c = ...` writes a, b and c; `==` is a comparison, not a write.
FIELD_WRITE_RE = re.compile(r"((?:\.\s*[A-Za-z_]\w*\s*)+)=(?!=)")
FIELD_NAME_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)?$")
NOT_A_FIELD_RE = re.compile(
    r"\s*(?:static|using|friend|typedef|enum|struct|class)\b")
ALLOW_REASON_RE = re.compile(r"dbs-lint:\s*allow\(([^)]*)\)(.*)")


def written_fields(stripped: str) -> set:
    """Names of the fields `stripped` writes through `.field(.sub)* =`."""
    names = set()
    for m in FIELD_WRITE_RE.finditer(stripped):
        names.update(re.findall(r"[A-Za-z_]\w*", m.group(1)))
    return names


def option_writers(root: Path) -> set:
    """Every field name written outside tests/ and tools/lint_cases/."""
    names = set()
    cases = root / "tools" / "lint_cases"
    for path in iter_files(root, OPTION_WRITER_DIRS):
        if cases in path.parents:
            continue
        names |= written_fields(strip_comments_and_strings(
            path.read_text(encoding="utf-8", errors="replace")))
    return names


def option_fields(stripped: str):
    """Yields (offset, struct, field) for each data member of a
    `struct ...Options/Config/Request` body; member functions, static or
    using declarations and nested type bodies are skipped."""
    for m in OPTION_STRUCT_RE.finditer(stripped):
        body_end = find_matching_brace(stripped, m.end() - 1)
        start = m.end()
        depth = parens = 0
        for i in range(m.end(), body_end):
            c = stripped[i]
            if c == "(":
                parens += 1
            elif c == ")":
                parens -= 1
            elif c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0 and parens == 0:
                    start = i + 1  # end of a nested body or inline function
            elif c == ";" and depth == 0 and parens == 0:
                # The declarator ends where its initializer begins.
                head = re.split(r"[={]", stripped[start:i], maxsplit=1)[0]
                name = FIELD_NAME_RE.search(head.rstrip())
                if name and "(" not in head and not NOT_A_FIELD_RE.match(head):
                    yield start + name.start(1), m.group(1), name.group(1)
                start = i + 1


def allow_reason(lines, lineno: int, rule: str):
    """The reason given with an `allow(<rule>)` mark on the 1-based line or
    the one above: '' for a bare mark, None when there is no mark."""
    for ln in (lineno, lineno - 1):
        if 1 <= ln <= len(lines):
            m = ALLOW_REASON_RE.search(lines[ln - 1])
            if m and rule in m.group(1):
                return m.group(2).strip(" \t-:\u2014")
    return None


def rule_unset_option(path: Path, stripped: str, lines, writers: set,
                      findings):
    if path.suffix != ".h":
        return
    for offset, struct, field in option_fields(stripped):
        if field in writers:
            continue
        ln = line_of(stripped, offset)
        reason = allow_reason(lines, ln, "unset-option")
        if reason:
            continue
        hint = (" (its allow mark gives no reason)" if reason == "" else "")
        findings.append(
            Finding("unset-option", path, ln,
                    f"{struct}::{field} is set by no file outside tests/"
                    f"{hint}; make it a named constant or give a caller "
                    "a reason to set it"))


# --------------------------------------------------------------------------
# Rule: contract-audit
# --------------------------------------------------------------------------

# A function definition whose parameter list mentions a user-facing
# catalogue type. Matched on the stripped text so strings/comments cannot
# confuse the brace scanner.
ENTRY_SIG_RE = re.compile(
    r"^[A-Za-z_][\w:<>,&*\s]*?\b([A-Za-z_]\w*)\s*"  # return type + name
    r"\(([^;{}]*?\bDatabase\s*&[^;{}]*?)\)"          # params containing Database&
    r"\s*(?:const)?\s*(?::[^{;]*)?\{",               # ctor-inits, then body
    re.M | re.S)

CONTRACT_RE = re.compile(r"\bDBS_CHECK(_MSG)?\s*\(")


def find_matching_brace(text: str, open_idx: int) -> int:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def public_names_for(path: Path) -> set:
    """Identifiers declared in headers of the same module directory."""
    names = set()
    for header in path.parent.glob("*.h"):
        text = strip_comments_and_strings(
            header.read_text(encoding="utf-8", errors="replace"))
        names.update(re.findall(r"\b([A-Za-z_]\w*)\s*\(", text))
        names.update(re.findall(r"\b(?:class|struct)\s+([A-Za-z_]\w*)", text))
    return names


def rule_contract_audit(path: Path, text: str, stripped: str, lines, findings):
    if path.suffix not in (".cc", ".cpp"):
        return
    public = public_names_for(path)
    for m in ENTRY_SIG_RE.finditer(stripped):
        name = m.group(1).split("::")[-1]
        if name not in public:
            continue  # file-local helper, not a public entry point
        open_idx = m.end() - 1
        close_idx = find_matching_brace(stripped, open_idx)
        # The checked region covers the ctor-init list too: delegating
        # constructors and members constructed from the Database count when
        # the callee performs the DBS_CHECK and the delegation is annotated.
        region = stripped[m.start():close_idx]
        region_src = text[m.start():close_idx]
        ln = line_of(stripped, m.start())
        if suppressed(lines, ln, "contract-audit"):
            continue
        if CONTRACT_RE.search(region):
            continue
        if DELEGATION_MARK in region_src:
            continue
        findings.append(
            Finding("contract-audit", path, ln,
                    f"public entry point '{name}' consumes a Database but "
                    "neither DBS_CHECKs its inputs nor carries a "
                    f"'// {DELEGATION_MARK} to <callee>' annotation"))


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

def lint_file(path: Path, rel: Path, findings, writers=None):
    """Lints one file. `writers` names the option fields some caller sets
    (option_writers); None, as in the selftest, counts the file's own."""
    text = path.read_text(encoding="utf-8", errors="replace")
    stripped = strip_comments_and_strings(text)
    lines = text.splitlines()
    top = rel.parts[0] if rel.parts else ""

    rule_include_cc(path, text, findings)
    rule_check_iwyu(path, text, stripped, findings)
    rule_obs_metric_names(path, text, stripped, lines, findings)
    rule_raw_sync_primitive(path, rel, stripped, lines, findings)
    rule_guarded_by_audit(path, rel, text, stripped, lines, findings)
    if top in SRC_DIRS:
        rule_determinism(path, stripped, lines, findings)
        rule_contract_audit(path, text, stripped, lines, findings)
        rule_unset_option(path, stripped, lines,
                          written_fields(stripped) if writers is None
                          else writers, findings)
        if rel.parts[:2] in API_DOC_DIRS and path.suffix == ".h":
            rule_api_docs(path, stripped, lines, findings)
    if top in TEST_DIRS:
        rule_detail_isolation(path, stripped, lines, findings)


def run(root: Path) -> list:
    findings = []
    writers = option_writers(root)
    for path in iter_files(root, ALL_DIRS):
        lint_file(path, path.relative_to(root), findings, writers)
    return findings


# --------------------------------------------------------------------------
# Golden-case selftest
# --------------------------------------------------------------------------

def selftest() -> int:
    """Runs the linter over tools/lint_cases/ and checks each fixture file
    produces exactly the rule hits named in its `// expect: rule[,rule]` first
    line (or none for `// expect: clean`)."""
    cases_dir = Path(__file__).resolve().parent / "lint_cases"
    if not cases_dir.is_dir():
        print(f"selftest: missing {cases_dir}", file=sys.stderr)
        return 2
    failures = 0
    for case in sorted(cases_dir.rglob("*")):
        if case.suffix not in (".h", ".cc", ".cpp") or not case.is_file():
            continue
        first = case.read_text(encoding="utf-8").splitlines()[0]
        m = re.match(r"//\s*expect:\s*(.*)", first)
        if not m:
            print(f"selftest: {case} lacks a '// expect:' header")
            failures += 1
            continue
        expected = set()
        if m.group(1).strip() != "clean":
            expected = {r.strip() for r in m.group(1).split(",")}
        findings = []
        rel = case.relative_to(cases_dir)
        lint_file(case, rel, findings)
        got = {f.rule for f in findings}
        if got != expected:
            print(f"selftest FAIL {rel}: expected {sorted(expected)}, "
                  f"got {sorted(got)}")
            for f in findings:
                print(f"    {f}")
            failures += 1
        else:
            print(f"selftest ok   {rel}: {sorted(got) or ['clean']}")
    if failures:
        print(f"selftest: {failures} case(s) failed", file=sys.stderr)
        return 1
    print("selftest: all golden cases behave")
    return 0


def findings_to_json(findings, root: Path) -> str:
    """Renders findings as the stable dbs-lint-v1 document: one object per
    finding with repo-relative `path`, 1-based `line`, `rule` and `message` —
    the shape the CI annotation step and any other tooling consumes."""
    objects = []
    for f in findings:
        try:
            rel = f.path.resolve().relative_to(root.resolve())
        except ValueError:
            rel = f.path
        objects.append({
            "rule": f.rule,
            "path": rel.as_posix(),
            "line": f.line,
            "message": f.message,
        })
    return json.dumps({"schema": "dbs-lint-v1", "findings": objects}, indent=2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, default=None,
                        help="repository root (default: parent of tools/)")
    parser.add_argument("--selftest", action="store_true",
                        help="run the golden lint cases instead of the repo")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as dbs-lint-v1 JSON on stdout "
                             "(exit status unchanged: 1 iff any finding)")
    args = parser.parse_args(argv)

    if args.selftest:
        return selftest()

    root = args.root or Path(__file__).resolve().parent.parent
    if not (root / "src").is_dir():
        print(f"dbs_lint: {root} does not look like the repo root",
              file=sys.stderr)
        return 2
    findings = run(root)
    if args.json:
        print(findings_to_json(findings, root))
        return 1 if findings else 0
    for f in findings:
        print(f)
    if findings:
        print(f"dbs_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("dbs_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
