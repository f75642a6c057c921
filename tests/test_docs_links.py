"""Every document the docs and the source point at exists.

A deleted or renamed ``docs/*.md`` must take its references with it: a
relative ``](x.md)`` link between documents and a document path named in
double backquotes in a ``src/`` docstring both have to resolve.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs"

_DOC_LINK = re.compile(r"\]\(([^)#:\s]+\.md)(?:#[^)]*)?\)")
_SOURCE_DOC = re.compile(r"``(docs/[\w./-]+\.md)``")


def test_relative_doc_links_resolve():
    links = [
        (doc.name, target)
        for doc in sorted(DOCS.glob("*.md"))
        for target in _DOC_LINK.findall(doc.read_text())
    ]
    assert links  # the pattern must match the docs' link style
    missing = [(doc, target) for doc, target in links if not (DOCS / target).is_file()]
    assert missing == []


def test_docs_named_in_source_exist():
    named = [
        (str(path.relative_to(ROOT)), target)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for target in _SOURCE_DOC.findall(path.read_text())
    ]
    assert named  # the pattern must match the docstrings' reference style
    missing = [(path, target) for path, target in named if not (ROOT / target).is_file()]
    assert missing == []
