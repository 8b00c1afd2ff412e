"""Docs link checker: every relative markdown link must resolve.

Scans README.md and docs/*.md for inline markdown links and images
(``[text](target)`` / ``![alt](target)``) and fails if a relative
target does not exist on disk, relative to the file containing the
link.  External links (http/https/mailto) and pure in-page anchors
(``#section``) are skipped — CI should not depend on the network or on
heading slugs.  Targets with a fragment (``file.md#section``) are
checked for the file part only.  Targets that escape the repo root
(GitHub's ``../../actions/...`` badge convention) are out of scope.

Cited test IDs (``tests/test_x.py::TestClass::test_name``, the form the
docs use to back a "bitwise" claim) must resolve too: the file must
exist, and each ``::`` name must be a class or function defined at that
level of the file (read with ``ast``, so nothing is imported or run).
A parametrize suffix (``test_name[case]``) is checked for the name only.

Run from the repo root (the CI ``docs-check`` job does):

    python tools/check_docs_links.py
"""

import ast
import re
import sys
from pathlib import Path

LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
TEST_ID = re.compile(r"tests/[\w/]+\.py(?:::\w+(?:\[[^\]\s`]*\])?)+")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
DEFINITIONS = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def resolve_test_id(test_id: str, root: Path) -> str:
    """Why ``test_id`` names nothing in the repo ('' when it resolves)."""
    file_part, *names = test_id.split("::")
    path = root / file_part
    if not path.is_file():
        return f"no file {file_part}"
    scope = ast.parse(path.read_text(), filename=str(path)).body
    for name in names:
        name = name.split("[", 1)[0]
        found = [n for n in scope if isinstance(n, DEFINITIONS) and n.name == name]
        if not found:
            return f"no {name} in {file_part}"
        scope = found[0].body
    return ""


def check_file(path: Path, root: Path) -> list:
    """Return ``(lineno, message)`` for every broken link or test ID."""
    broken = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        for test_id in TEST_ID.findall(line):
            reason = resolve_test_id(test_id, root)
            if reason:
                broken.append((lineno, f"stale test ID {test_id} ({reason})"))
        for target in LINK.findall(line):
            if target.startswith(SKIP_PREFIXES):
                continue
            file_part = target.split("#", 1)[0]
            if not file_part:
                continue
            resolved = (path.parent / file_part).resolve()
            if not resolved.is_relative_to(root):
                continue  # escapes the repo (GitHub badge convention)
            if not resolved.exists():
                broken.append((lineno, f"broken link -> {target}"))
    return broken


def main() -> int:
    """Check README.md + docs/*.md; print failures, return exit code."""
    root = Path(__file__).resolve().parent.parent
    files = [root / "README.md", *sorted((root / "docs").glob("*.md"))]
    failures = 0
    for path in files:
        for lineno, message in check_file(path, root):
            rel = path.relative_to(root)
            print(f"{rel}:{lineno}: {message}")
            failures += 1
    if failures:
        print(f"{failures} broken link(s) or test ID(s)")
        return 1
    print(f"OK: all relative links and test IDs in {len(files)} file(s) resolve")
    return 0


if __name__ == "__main__":
    sys.exit(main())
