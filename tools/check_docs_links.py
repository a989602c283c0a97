#!/usr/bin/env python3
"""Cross-reference checker for the repo's documentation set.

Usage:
    python3 tools/check_docs_links.py [DOC.md ...]

With no arguments, checks the curated doc set (README.md, DESIGN.md,
EXPERIMENTS.md, OPERATIONS.md, ROADMAP.md). Four kinds of reference
must resolve, or the checker exits 1 listing every failure:

  1. Relative markdown links `[text](target)`: the target file must
     exist (anchors and external http(s)/mailto links are skipped).
  2. Design-section pointers `§N` (any file): DESIGN.md must contain a
     `## N.` heading.
  3. Experiment pointers `EN` (e.g. E19, E22): EXPERIMENTS.md must
     contain a `## EN —` heading. Hex literals (0xE1) are excluded.
  4. Backticked names following repo naming conventions must resolve
     to files:
       - `bench_*`            -> bench/<name>.cpp
       - `*_test`             -> tests/<name>.cpp
       - `shlcpd`, `shlcp_*`  -> examples/<name>.cpp or src/...
       - `*.py`               -> tools/<name>
       - path-like tokens containing '/' -> the file itself (also
         tried under src/, with any ':member' suffix stripped, and
         with '.cpp' appended for extensionless example names).
     Tokens with glob/placeholder characters (* ? < > { } spaces),
     absolute paths, and generated artifacts (build/..., BENCH_*.json)
     are skipped.

Fenced code blocks are ignored for name checks (quickstarts reference
built binaries) but still scanned for §N / EN pointers.

The `docs_links` ctest runs this with every test run (and so in every
CI leg), so a doc rename or a tool/bench/example rename cannot silently
strand its references.
"""

import os
import re
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_DOCS = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "OPERATIONS.md",
    "ROADMAP.md",
]

SKIP_CHARS = re.compile(r"[*?<>{}\s\\]")
SECTION_REF = re.compile(r"§\s*(\d+)")
EXPERIMENT_REF = re.compile(r"(?<![A-Za-z0-9_.])E(\d{1,2})(?![0-9])")
HEX_BEFORE = re.compile(r"0x[0-9A-Fa-f]*$")
MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
BACKTICK = re.compile(r"`([^`\n]+)`")
FENCE = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)

NAME_BENCH = re.compile(r"^bench_[a-z0-9_]+$")
NAME_TEST = re.compile(r"^[a-z0-9_]+_test$")
NAME_SHLCP = re.compile(r"^(shlcpd|shlcp_[a-z0-9_]+)$")
NAME_PY = re.compile(r"^[A-Za-z0-9_]+\.py$")


def design_sections(repo):
    path = os.path.join(repo, "DESIGN.md")
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as f:
        return {
            int(m.group(1))
            for m in re.finditer(r"^## (\d+)\.", f.read(), re.MULTILINE)
        }


def experiment_headings(repo):
    path = os.path.join(repo, "EXPERIMENTS.md")
    if not os.path.exists(path):
        return set()
    with open(path, encoding="utf-8") as f:
        return {
            int(m.group(1))
            for m in re.finditer(r"^## E(\d+)\b", f.read(), re.MULTILINE)
        }


def exists(repo, rel):
    return os.path.exists(os.path.join(repo, rel))


_CMAKE_TARGETS = None


def cmake_target(repo, name):
    """True when `name` is declared as a target in any CMakeLists.txt
    (covers library targets like shlcp_benchreport that have no
    single-source binary)."""
    global _CMAKE_TARGETS
    if _CMAKE_TARGETS is None:
        _CMAKE_TARGETS = set()
        for sub in ["", "src", "bench", "tests", "examples", "tools"]:
            path = os.path.join(repo, sub, "CMakeLists.txt")
            if not os.path.exists(path):
                continue
            with open(path, encoding="utf-8") as f:
                _CMAKE_TARGETS.update(
                    re.findall(
                        r"add_(?:library|executable)\s*\(\s*([A-Za-z0-9_]+)",
                        f.read(),
                    )
                )
    return name in _CMAKE_TARGETS


def check_name(repo, token):
    """Returns an error string for a convention-named token that does
    not resolve, or None when it resolves or is out of scope."""
    if SKIP_CHARS.search(token) or token.startswith(("/", "-", "build/")):
        return None
    if token.startswith("BENCH_"):
        return None  # generated bench artifact
    if "/" in token:
        if not re.fullmatch(r"[A-Za-z0-9_./:-]+", token):
            return None
        base = token.split(":", 1)[0]
        # Only path-like if the leading segment is a real directory
        # (possibly under src/) -- bench case labels ("cold/total",
        # "certificate_curve/kN") also contain slashes.
        head = base.split("/", 1)[0]
        if not (
            os.path.isdir(os.path.join(repo, head))
            or os.path.isdir(os.path.join(repo, "src", head))
        ):
            return None
        candidates = [base, "src/" + base]
        if "." not in os.path.basename(base):
            candidates += [base + ".cpp", "src/" + base + ".cpp"]
        if any(exists(repo, c) for c in candidates):
            return None
        return f"path `{token}` not found (tried {', '.join(candidates)})"
    if NAME_BENCH.fullmatch(token):
        if exists(repo, f"bench/{token}.cpp"):
            return None
        return f"bench `{token}` has no bench/{token}.cpp"
    if NAME_TEST.fullmatch(token):
        if exists(repo, f"tests/{token}.cpp"):
            return None
        return f"test `{token}` has no tests/{token}.cpp"
    if NAME_SHLCP.fullmatch(token):
        if exists(repo, f"examples/{token}.cpp"):
            return None
        if cmake_target(repo, token):
            return None  # library/harness target, not an example binary
        return f"tool `{token}` has no examples/{token}.cpp"
    if NAME_PY.fullmatch(token):
        if exists(repo, f"tools/{token}"):
            return None
        return f"script `{token}` not found in tools/"
    return None


def check_doc(repo, doc, sections, experiments):
    errors = []
    path = os.path.join(repo, doc)
    with open(path, encoding="utf-8") as f:
        text = f.read()

    for m in SECTION_REF.finditer(text):
        n = int(m.group(1))
        if n not in sections:
            errors.append(f"{doc}: §{n} has no '## {n}.' heading in DESIGN.md")
    for m in EXPERIMENT_REF.finditer(text):
        if HEX_BEFORE.search(text[: m.start()]):
            continue
        n = int(m.group(1))
        if n not in experiments:
            errors.append(
                f"{doc}: E{n} has no '## E{n}' heading in EXPERIMENTS.md"
            )

    for m in MD_LINK.finditer(text):
        target = m.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        rel = target.split("#", 1)[0]
        if rel and not SKIP_CHARS.search(rel) and not exists(repo, rel):
            errors.append(f"{doc}: link target '{target}' does not exist")

    prose = FENCE.sub("", text)
    seen = set()
    for m in BACKTICK.finditer(prose):
        token = m.group(1).strip()
        if token in seen:
            continue
        seen.add(token)
        err = check_name(repo, token)
        if err:
            errors.append(f"{doc}: {err}")
    return errors


def main(argv):
    docs = argv[1:] if len(argv) > 1 else DEFAULT_DOCS
    sections = design_sections(REPO)
    experiments = experiment_headings(REPO)
    all_errors = []
    for doc in docs:
        if not exists(REPO, doc):
            all_errors.append(f"{doc}: file not found")
            continue
        all_errors.extend(check_doc(REPO, doc, sections, experiments))
    if all_errors:
        for err in all_errors:
            print(f"FAIL {err}")
        print(f"{len(all_errors)} broken reference(s)")
        return 1
    print(f"{len(docs)} doc(s): all cross-references resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
