#!/usr/bin/env python3
"""otged_lint — stdlib-only repo-invariant linter for the otged tree.

Rules (names are what `allow(...)` suppressions reference):

  atomic-order    every std::atomic load/store/RMW call names an explicit
                  std::memory_order; a defaulted (seq_cst) order on a hot
                  path is both a perf bug and an intent bug.
  hot-path        functions marked `// otged-lint: hot-path` may not
                  contain naked `new`, `std::rand`, or blocking locks
                  (MutexLock / lock_guard / unique_lock / scoped_lock /
                  .Lock()).
  metric-name     every telemetry metric name is registered under exactly
                  one kind (counter/gauge/histogram), appears in the
                  README metric catalog, and every cataloged name is used
                  somewhere in src/.
  include-guard   headers use the single repo guard style
                  `OTGED_<PATH>_HPP_` (repo-relative path, `src/`
                  dropped, uppercased) — `#ifndef` immediately followed
                  by a matching `#define`, and no `#pragma once`.

Suppressing one finding requires a reason:

    foo.bar();  // otged-lint: allow(atomic-order) -- frobnicates safely

The comment may sit on the offending line or the line directly above it.
An `allow` without a `-- reason` is itself a finding.

Exit status: 0 when the tree (or self-test) is clean, 1 otherwise.
"""

import argparse
import os
import re
import sys

RULES = ("atomic-order", "hot-path", "metric-name", "include-guard")

SCAN_DIRS = ("src", "tests", "examples", "bench")
FIXTURE_DIR = os.path.join("tests", "lint_fixtures")
CXX_EXT = (".hpp", ".cpp")

ALLOW_RE = re.compile(
    r"//\s*otged-lint:\s*allow\(([a-z-]+)\)(?:\s*--\s*(\S.*))?")
HOT_PATH_MARK_RE = re.compile(r"//\s*otged-lint:\s*hot-path\s*$")

ATOMIC_CALL_RE = re.compile(
    r"\.\s*(load|store|exchange|fetch_add|fetch_sub|fetch_and|fetch_or|"
    r"fetch_xor|compare_exchange_weak|compare_exchange_strong)\s*\(")

HOT_PATH_BANNED = (
    (re.compile(r"\bnew\b"), "naked `new` (allocation)"),
    (re.compile(r"\b(?:std::)?rand\s*\("), "`std::rand` (global-state PRNG)"),
    (re.compile(r"\b(?:MutexLock|lock_guard|unique_lock|scoped_lock)\b"),
     "blocking lock guard"),
    (re.compile(r"(?:\.|->)\s*[Ll]ock\s*\("), "blocking lock call"),
)

METRIC_MACROS = {
    "OTGED_COUNT": "counter",
    "OTGED_COUNT_N": "counter",
    "OTGED_GAUGE_SET": "gauge",
    "OTGED_HIST_RECORD": "histogram",
    "GetCounter": "counter",
    "GetGauge": "gauge",
    "GetHistogram": "histogram",
}
METRIC_SITE_RE = re.compile(
    r"\b(" + "|".join(METRIC_MACROS) + r")\s*\(")
CHAR_CONST_RE = re.compile(
    r'constexpr\s+const\s+char\s*\*\s*(\w+)\s*=\s*"([^"]*)"')


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks comment/string interiors (layout preserved) so structural
    scans (brace matching, banned tokens) cannot match inside them."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            seg = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            out.append(quote + " " * (j - i - 1) + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def balanced_span(text, open_pos, open_ch="(", close_ch=")"):
    """Returns the offset one past the matching close for the opener at
    open_pos, or len(text) when unbalanced."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


# ---------------------------------------------------------------- rules


def check_atomic_order(path, text, stripped):
    findings = []
    for m in ATOMIC_CALL_RE.finditer(stripped):
        open_paren = stripped.index("(", m.end() - 1)
        end = balanced_span(stripped, open_paren)
        args = text[open_paren + 1:end - 1]
        if "memory_order" not in args:
            findings.append(Finding(
                path, line_of(text, m.start()), "atomic-order",
                f"atomic `{m.group(1)}` without an explicit "
                "std::memory_order (defaulted seq_cst hides intent and "
                "costs fences on hot paths)"))
    return findings


def check_hot_path(path, text, stripped):
    findings = []
    lines = text.split("\n")
    for idx, line in enumerate(lines):
        if not HOT_PATH_MARK_RE.search(line):
            continue
        # Body = first '{' after the marker line to its matching '}'.
        offset = sum(len(l) + 1 for l in lines[:idx + 1])
        brace = stripped.find("{", offset)
        if brace < 0:
            findings.append(Finding(
                path, idx + 1, "hot-path",
                "hot-path marker with no function body after it"))
            continue
        end = balanced_span(stripped, brace, "{", "}")
        body = stripped[brace:end]
        for pattern, what in HOT_PATH_BANNED:
            bm = pattern.search(body)
            if bm:
                findings.append(Finding(
                    path, line_of(text, brace + bm.start()), "hot-path",
                    f"{what} inside a telemetry hot-path function"))
    return findings


def base_metric_name(name):
    return name.split("{", 1)[0]


def metric_sites(path, text, stripped):
    """Yields (line, base_name, kind) for every metric registration or
    update site whose name argument is statically resolvable."""
    consts = {m.group(1): m.group(2) for m in CHAR_CONST_RE.finditer(text)}
    for m in METRIC_SITE_RE.finditer(stripped):
        kind = METRIC_MACROS[m.group(1)]
        open_paren = stripped.index("(", m.end() - 1)
        end = balanced_span(stripped, open_paren)
        # Argument text from the original source (strings intact).
        args = text[open_paren + 1:end - 1].lstrip()
        name = None
        lit = re.match(r'(?:std::string\s*\(\s*)?"((?:[^"\\]|\\.)*)"', args)
        if lit:
            name = lit.group(1).replace('\\"', '"')
        else:
            ident = re.match(r"(\w+)\s*[,)]", args)
            if ident and ident.group(1) in consts:
                name = consts[ident.group(1)]
        if name is None or not name.startswith("otged_"):
            continue  # forwarding macro definition or non-metric call
        yield line_of(text, m.start()), base_metric_name(name), kind


CATALOG_NAME_RE = re.compile(r"`([^`]*otged_[^`]*)`")
BRACE_LIST_RE = re.compile(r"\{([a-z0-9_]+(?:,[a-z0-9_]+)+)\}")


def readme_catalog(root):
    """Base metric names from the README '### Metric catalog' table.
    Expands `otged_foo_{a,b}_total` shorthand; label selectors
    (`{tier=...}`) are stripped to the base name."""
    path = os.path.join(root, "README.md")
    names = set()
    try:
        text = open(path, encoding="utf-8").read()
    except OSError:
        return names
    section = re.search(r"### Metric catalog\n(.*?)(\n#|$)", text, re.S)
    if not section:
        return names
    for row in section.group(1).split("\n"):
        if not row.startswith("|"):
            continue
        for span in CATALOG_NAME_RE.findall(row):
            for token in re.split(r"`,\s*`|,\s+", span):
                token = base_metric_name(token.strip("` "))
                if not token.startswith("otged_"):
                    continue
                lists = BRACE_LIST_RE.search(token)
                if lists:
                    for part in lists.group(1).split(","):
                        names.add(token[:lists.start()] + part +
                                  token[lists.end():])
                else:
                    names.add(token)
    return names


def check_metric_names(root, files, catalog, tree_wide):
    findings = []
    kinds = {}   # base name -> (kind, path, line)
    used = set()
    for path in files:
        text = open(path, encoding="utf-8").read()
        stripped = strip_comments_and_strings(text)
        for line, name, kind in metric_sites(path, text, stripped):
            used.add(name)
            prev = kinds.get(name)
            if prev is None:
                kinds[name] = (kind, path, line)
            elif prev[0] != kind:
                findings.append(Finding(
                    path, line, "metric-name",
                    f"metric `{name}` registered as {kind} here but as "
                    f"{prev[0]} at {prev[1]}:{prev[2]}"))
            if name not in catalog:
                findings.append(Finding(
                    path, line, "metric-name",
                    f"metric `{name}` is missing from the README metric "
                    "catalog"))
    if tree_wide:
        for name in sorted(catalog - used):
            findings.append(Finding(
                os.path.join(root, "README.md"), 1, "metric-name",
                f"cataloged metric `{name}` is not registered anywhere "
                "in the tree"))
    return findings


def expected_guard(rel_path):
    rel = rel_path.replace(os.sep, "/")
    if rel.startswith("src/"):
        rel = rel[len("src/"):]
    return "OTGED_" + re.sub(r"[^A-Za-z0-9]", "_", rel).upper() + "_"


def check_include_guard(root, path, text):
    rel = os.path.relpath(path, root)
    guard = expected_guard(rel)
    findings = []
    if re.search(r"^\s*#\s*pragma\s+once", text, re.M):
        line = line_of(text, re.search(r"^\s*#\s*pragma\s+once", text,
                                       re.M).start())
        findings.append(Finding(
            path, line, "include-guard",
            "#pragma once — this repo uses #ifndef guards "
            f"(expected {guard})"))
        return findings
    m = re.search(r"^#ifndef\s+(\S+)\s*\n#define\s+(\S+)", text, re.M)
    if not m:
        findings.append(Finding(
            path, 1, "include-guard",
            f"missing include guard (expected #ifndef {guard} directly "
            "followed by its #define)"))
        return findings
    if m.group(1) != guard or m.group(2) != guard:
        findings.append(Finding(
            path, line_of(text, m.start()), "include-guard",
            f"guard `{m.group(1)}`/`{m.group(2)}` does not match the "
            f"repo style `{guard}`"))
    return findings


# --------------------------------------------------------- driver logic


def apply_suppressions(findings, file_lines_cache):
    kept = []
    for f in findings:
        lines = file_lines_cache.setdefault(
            f.path, open(f.path, encoding="utf-8").read().split("\n"))
        suppressed = False
        for lineno in (f.line, f.line - 1):
            if not 1 <= lineno <= len(lines):
                continue
            m = ALLOW_RE.search(lines[lineno - 1])
            if not m:
                continue
            if m.group(1) != f.rule:
                continue
            if not m.group(2):
                kept.append(Finding(
                    f.path, lineno, f.rule,
                    f"allow({f.rule}) suppression without a `-- reason`"))
            suppressed = True
            break
        if not suppressed:
            kept.append(f)
    return kept


def lint_file(root, path):
    text = open(path, encoding="utf-8").read()
    stripped = strip_comments_and_strings(text)
    findings = []
    findings += check_atomic_order(path, text, stripped)
    findings += check_hot_path(path, text, stripped)
    if path.endswith(".hpp"):
        findings += check_include_guard(root, path, text)
    return findings, text, stripped


def collect_files(root):
    files = []
    fixture_root = os.path.join(root, FIXTURE_DIR)
    for sub in SCAN_DIRS:
        base = os.path.join(root, sub)
        for dirpath, dirnames, filenames in os.walk(base):
            if os.path.commonpath([dirpath, fixture_root]) == fixture_root:
                continue
            for name in sorted(filenames):
                if name.endswith(CXX_EXT):
                    files.append(os.path.join(dirpath, name))
    return sorted(files)


def lint_tree(root):
    files = collect_files(root)
    findings = []
    for path in files:
        file_findings, _, _ = lint_file(root, path)
        findings += file_findings
    src_files = [p for p in files
                 if os.path.commonpath(
                     [p, os.path.join(root, "src")]) == os.path.join(
                         root, "src")]
    findings += check_metric_names(root, src_files, readme_catalog(root),
                                   tree_wide=True)
    return apply_suppressions(findings, {})


# ------------------------------------------------------------ self-test


def self_test(root):
    """Fixture contract: tests/lint_fixtures/pass/* must produce zero
    findings; tests/lint_fixtures/fail/<rule-with-underscores>_*.{hpp,cpp}
    must each produce at least one finding of exactly that rule."""
    fixture_root = os.path.join(root, FIXTURE_DIR)
    catalog = readme_catalog(root)
    failures = []

    def fixture_findings(path):
        findings, text, stripped = lint_file(root, path)
        findings += check_metric_names(root, [path], catalog,
                                       tree_wide=False)
        return apply_suppressions(findings, {})

    pass_dir = os.path.join(fixture_root, "pass")
    fail_dir = os.path.join(fixture_root, "fail")
    pass_files = sorted(os.listdir(pass_dir)) if os.path.isdir(pass_dir) \
        else []
    fail_files = sorted(os.listdir(fail_dir)) if os.path.isdir(fail_dir) \
        else []
    if not pass_files or not fail_files:
        print("self-test: missing fixtures under " + fixture_root)
        return 1

    for name in pass_files:
        path = os.path.join(pass_dir, name)
        got = fixture_findings(path)
        if got:
            failures.append(f"pass fixture {name} produced findings:")
            failures += [f"  {f}" for f in got]

    seen_rules = set()
    for name in fail_files:
        path = os.path.join(fail_dir, name)
        rule = next((r for r in RULES
                     if name.startswith(r.replace("-", "_"))), None)
        if rule is None:
            failures.append(f"fail fixture {name} names no known rule")
            continue
        got = fixture_findings(path)
        if not any(f.rule == rule for f in got):
            failures.append(
                f"fail fixture {name} expected a {rule} finding, got: "
                + (", ".join(f.rule for f in got) or "none"))
        else:
            seen_rules.add(rule)

    for rule in RULES:
        if rule not in seen_rules:
            failures.append(f"no failing fixture exercises rule {rule}")

    if failures:
        print("\n".join(failures))
        print(f"self-test: FAIL ({len(failures)} problems)")
        return 1
    print(f"self-test: OK ({len(pass_files)} pass + {len(fail_files)} "
          "fail fixtures, all four rules exercised)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".",
                        help="repository root (default: cwd)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter against its own fixtures")
    args = parser.parse_args()
    root = os.path.abspath(args.root)

    if args.self_test:
        return self_test(root)

    findings = lint_tree(root)
    for f in findings:
        print(f)
    if findings:
        print(f"otged-lint: {len(findings)} finding(s)")
        return 1
    print("otged-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
