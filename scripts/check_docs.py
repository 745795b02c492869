#!/usr/bin/env python
"""Docs freshness and link checker (CI: the ``docs`` job).

Three enforcement passes, exit 1 on any finding:

1. **API coverage** — every public module directly under ``src/repro/``
   (subpackage or top-level ``.py``, underscore-prefixed names excluded)
   plus every depth-2 subpackage (``repro.<pkg>.<subpkg>``) must be
   mentioned as ``repro.<dotted name>`` in the *prose* of
   ``docs/api.md``: fenced code blocks are stripped before matching and
   the mention must sit on a word boundary, so an import inside an
   example snippet or a superstring like ``repro.coremost`` does not
   count as documentation.  Adding a subpackage without documenting it
   fails CI.
2. **Markdown links** — every relative link/image target in the repo's
   markdown files must exist on disk (anchors are stripped; external
   ``http(s)``/``mailto`` targets are skipped).
3. **Named files** — every repo-relative ``*.py``/``*.json`` path named
   in the CI workflows, the verify skill, ``README.md``, ``DESIGN.md``
   and ``docs/*.md`` must exist on disk, so deleting a script cannot
   leave a CI step or a how-to pointing at it.  A path is repo-relative
   when it starts with a directory at the repo root; ``/tmp/...``,
   globs and ``benchmarks/e2e/`` (owned by the benchmark) are skipped.

Run locally:  python scripts/check_docs.py
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"
API_DOC = REPO / "docs" / "api.md"

# Markdown files that carry user-facing links worth checking.
MARKDOWN_GLOBS = ["*.md", "docs/*.md"]

_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

# Files whose prose and commands name repo files that must exist.
NAMED_FILE_GLOBS = [".github/workflows/*.yml", ".claude/skills/verify/SKILL.md",
                    "README.md", "DESIGN.md", "docs/*.md"]

# dir/.../name.py|json, not preceded by a character that would make it
# the tail of an absolute, home-relative, parent-relative or glob path.
_NAMED_FILE_RE = re.compile(
    r"(?<![\w/.~$*{}-])((?:[\w.-]+/)+[\w.-]+\.(?:py|json))\b")


def public_modules() -> list[str]:
    """Public modules under src/repro: top level plus depth-2 subpackages."""
    names = []
    for entry in sorted(SRC.iterdir()):
        if entry.name.startswith("_"):
            continue
        if entry.is_dir() and (entry / "__init__.py").exists():
            names.append(entry.name)
            for sub in sorted(entry.iterdir()):
                if (not sub.name.startswith("_") and sub.is_dir()
                        and (sub / "__init__.py").exists()):
                    names.append(f"{entry.name}.{sub.name}")
        elif entry.suffix == ".py":
            names.append(entry.stem)
    return names


def _strip_fences(text: str) -> str:
    """Remove fenced code blocks: imports in examples aren't docs."""
    return re.sub(r"```.*?```", "", text, flags=re.DOTALL)


def check_api_coverage() -> list[str]:
    text = _strip_fences(API_DOC.read_text(encoding="utf-8"))
    problems = []
    for name in public_modules():
        if not re.search(rf"\brepro\.{re.escape(name)}\b", text):
            problems.append(
                f"docs/api.md: public module 'repro.{name}' is undocumented "
                f"(add a prose section or mention before merging; fenced "
                f"code blocks don't count)"
            )
    return problems


def iter_markdown() -> list[Path]:
    files: set[Path] = set()
    for pattern in MARKDOWN_GLOBS:
        files.update(REPO.glob(pattern))
    return sorted(files)


def check_links() -> list[str]:
    problems = []
    for md in iter_markdown():
        text = md.read_text(encoding="utf-8")
        # Drop fenced code blocks: shell/python snippets aren't links.
        text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path_part = target.split("#", 1)[0]
            if not path_part:
                continue
            resolved = (md.parent / path_part).resolve()
            if not resolved.exists():
                rel = md.relative_to(REPO)
                problems.append(f"{rel}: broken relative link '{target}'")
    return problems


def check_named_files(repo: Path = REPO) -> list[str]:
    problems = []
    root_dirs = {entry.name for entry in repo.iterdir() if entry.is_dir()}
    for pattern in NAMED_FILE_GLOBS:
        for doc in sorted(repo.glob(pattern)):
            text = doc.read_text(encoding="utf-8")
            for name in sorted(set(_NAMED_FILE_RE.findall(text))):
                if (name.startswith("benchmarks/e2e/")
                        or name.split("/", 1)[0] not in root_dirs
                        or (repo / name).exists()):
                    continue
                problems.append(
                    f"{doc.relative_to(repo)}: names '{name}', which does "
                    f"not exist")
    return problems


def main() -> int:
    problems = check_api_coverage() + check_links() + check_named_files()
    for p in problems:
        print(f"DOCS: {p}")
    if problems:
        print(f"\n{len(problems)} documentation finding(s).")
        return 1
    mods = public_modules()
    print(f"docs OK: {len(mods)} public modules covered in docs/api.md, "
          f"{len(iter_markdown())} markdown files link-checked.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
