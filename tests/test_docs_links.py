"""Every document the docs and the source point at exists, and the
observability tables match the code.

A deleted or renamed ``docs/*.md`` must take its references with it: a
relative ``](x.md)`` link between documents and a document path named in
double backquotes in a ``src/`` docstring both have to resolve.  The
``as_dict()`` key tables and the event schema in ``docs/observability.md``
list exactly the keys the stats report and the kinds the source logs.
"""

import re
from pathlib import Path

from repro.chaos import FAULT_KINDS
from repro.cluster import ClusterStats, WorkerStats

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs"

_DOC_LINK = re.compile(r"\]\(([^)#:\s]+\.md)(?:#[^)]*)?\)")
_SOURCE_DOC = re.compile(r"``(docs/[\w./-]+\.md)``")
_JOURNAL_KIND = re.compile(r"journal\.log\(\s*\"(\w+)\"")


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


def _first_column_names(heading):
    """Backquoted names in the first column of the table under ``heading``
    in ``docs/observability.md``."""
    text = (DOCS / "observability.md").read_text()
    assert heading in text
    names = set()
    in_table = False
    for line in text.split(heading, 1)[1].splitlines():
        if line.startswith("|"):
            in_table = True
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
        elif in_table:
            break
    return names


def test_stats_key_tables_match_as_dict():
    stats = ClusterStats()
    stats._add_worker()
    assert _first_column_names("### `ClusterStats.as_dict()`") == set(stats.as_dict())
    assert _first_column_names("### `WorkerStats.as_dict()`") == set(
        WorkerStats(0).as_dict()
    )


def test_event_schema_matches_logged_kinds():
    logged = {
        kind
        for path in sorted((ROOT / "src").rglob("*.py"))
        for kind in _JOURNAL_KIND.findall(path.read_text())
    }
    assert logged  # the pattern must match the source's logging style
    logged |= {f"chaos_{kind}" for kind in FAULT_KINDS}  # FaultPlan's rows
    assert _first_column_names("### Event schema") == logged
