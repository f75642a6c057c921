"""Every document and code path the docs and the source point at exists,
and the observability tables match the code.

A deleted or renamed ``docs/*.md`` must take its references with it: a
relative ``](x.md)`` link between documents and a document path named in
double backquotes in a ``src/`` docstring both have to resolve.  So must a
deleted or renamed function, class or module: every backquoted dotted
``repro.…`` path in ``docs/*.md`` and in ``src/`` docstrings imports.  The
``as_dict()`` key tables and the event schema in ``docs/observability.md``
list exactly the keys the stats report and the kinds the source logs.
"""

import ast
import importlib
import re
from pathlib import Path

from repro.chaos import FAULT_KINDS
from repro.cluster import ClusterStats, WorkerStats

ROOT = Path(__file__).resolve().parents[1]
DOCS = ROOT / "docs"

_DOC_LINK = re.compile(r"\]\(([^)#:\s]+\.md)(?:#[^)]*)?\)")
_SOURCE_DOC = re.compile(r"``(docs/[\w./-]+\.md)``")
_JOURNAL_KIND = re.compile(r"journal\.log\(\s*\"(\w+)\"")
_CODE_PATH = re.compile(r"`~?(repro(?:\.\w+)+)(?:\(\))?`")
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


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


def _docstrings(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, _DOCUMENTED):
            docstring = ast.get_docstring(node, clean=False)
            if docstring:
                yield docstring


def _resolves(dotted):
    """Whether ``dotted`` imports: its longest importable module prefix,
    then ``getattr`` for the rest."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for name in parts[split:]:
                target = getattr(target, name)
        except AttributeError:
            return False
        return True
    return False


def test_dotted_code_paths_resolve():
    in_docs = [
        (doc.name, target)
        for doc in sorted(DOCS.glob("*.md"))
        for target in _CODE_PATH.findall(doc.read_text())
    ]
    in_source = [
        (str(path.relative_to(ROOT)), target)
        for path in sorted((ROOT / "src").rglob("*.py"))
        for docstring in _docstrings(path)
        for target in _CODE_PATH.findall(docstring)
    ]
    assert in_docs and in_source  # the pattern must match both reference styles
    named = in_docs + in_source
    missing = [(where, target) for where, target in named if not _resolves(target)]
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
