"""Every doc section the program cites by name exists.

Code and printed output point readers at a section of a reference doc by
its quoted title, as in ``docs/performance.md``, "The training step".
Nothing else checks that the section is still there when a doc is edited,
so this guard scans ``src/``, ``examples/`` and ``tests/golden/`` for such
citations and requires each quoted title to start a heading of the cited
file, or to be the bold lead-in of one of its paragraphs
(``**Title.** ...``).  A title may wrap across lines, and in Python source
its quotes may be escaped.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: ``docs/<file>.md`` (bare, in backticks or in a string), a comma, then the
#: quoted title, possibly wrapped and with escaped quotes.
_CITATION = re.compile(r'(docs/[\w-]+\.md)`*,\s*\\?"([^"\\]+)\\?"')

#: Where the program's citations live: (directory, file glob).
SCANNED = (("src", "*.py"), ("examples", "*.py"), ("tests/golden", "*.txt"))


def citations(text: str) -> list[tuple[str, str]]:
    """``(doc path, title)`` for every section citation in ``text``."""
    return [
        (doc, " ".join(title.split())) for doc, title in _CITATION.findall(text)
    ]


def section_exists(doc_text: str, title: str) -> bool:
    """Whether ``title`` starts a heading, or is a paragraph's bold lead-in."""
    for line in doc_text.splitlines():
        heading = re.match(r"#+\s+(.*)", line)
        if heading and heading.group(1).startswith(title):
            return True
        if line.startswith("**" + title):
            return True
    return False


def broken_citations(root: Path) -> tuple[list[str], list[tuple[str, str]]]:
    """Citations under ``root`` naming no section, and every citation found."""
    found, broken = [], []
    for directory, pattern in SCANNED:
        for path in sorted((root / directory).rglob(pattern)):
            for doc, title in citations(path.read_text(encoding="utf-8")):
                found.append((doc, title))
                doc_path = root / doc
                if not (
                    doc_path.is_file()
                    and section_exists(doc_path.read_text(encoding="utf-8"), title)
                ):
                    broken.append(f"{path.relative_to(root)}: {doc}, \"{title}\"")
    return broken, found


def test_every_cited_section_exists():
    broken, found = broken_citations(REPO)
    assert not broken, "cited doc sections that do not exist: " + "; ".join(broken)
    # The guard sees the citations it was written for, wrapped ones included.
    assert {
        ("docs/performance.md", "LAORAM bin kernel"),
        ("docs/performance.md", "One write-back or two"),
        ("docs/performance.md", "The training step"),
    } <= set(found)
    assert len(found) >= 4


def test_a_citation_of_a_missing_section_is_rejected(tmp_path):
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "guide.md").write_text(
        "# Guide\n\n## How a trace runs\n\n**Lead-in.**  Body.\n", encoding="utf-8"
    )
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "module.py").write_text(
        '"""See ``docs/guide.md``, "How a\n    trace runs", and\n'
        '``docs/guide.md``, "Lead-in".\n\n'
        'Also ``docs/guide.md``, "How a trace walks", and\n'
        '(docs/missing.md, "Guide")."""\n',
        encoding="utf-8",
    )
    (tmp_path / "examples").mkdir()
    (tmp_path / "examples" / "demo.py").write_text(
        'print("(docs/guide.md, \\"Body\\").")\n', encoding="utf-8"
    )
    broken, found = broken_citations(tmp_path)
    assert len(found) == 5
    assert broken == [
        'src/module.py: docs/guide.md, "How a trace walks"',
        'src/module.py: docs/missing.md, "Guide"',
        'examples/demo.py: docs/guide.md, "Body"',
    ]
