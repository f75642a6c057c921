"""Every public top-level function and class in ``src/repro``, and every
public method and property of its classes, has a caller outside the tests,
or a stated reason to exist without one.

A name only the tests reach is code the program does not run: it is
deleted with its tests, or, where tests use it as an oracle, moved next to
them.  The scan is by name.  A public ``def`` or ``class`` counts as reached
when its name appears as a name, an attribute or an import anywhere in
``src/``, ``benchmarks/``, ``perfbench/`` or ``examples/``, outside its own
definition and the package ``__init__`` re-exports.  A method or property
of a top-level class is read through an attribute, or by its name in a
string (``getattr``, perfbench's ``LayerClock.wrap``), so it counts as
reached when its name appears as an attribute or as an identifier-like
string constant there, outside its own body.  A name that shares its
spelling with another identifier can therefore look reached when it is
not; the scan never reports a reached name as unreached.

:data:`UNREACHED` lists the names kept without such a caller, each with its
reason.  It may neither name a definition that is gone nor one that has
gained a caller, so it cannot go stale.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "benchmarks", "perfbench", "examples")

_ROBUSTNESS_INPUT = (
    "input of the tracking-robustness gate planned in ROADMAP.md item 2 "
    "(perturbed synthetic sequences)"
)

UNREACHED = {
    "repro.image.synthetic.add_gaussian_noise": _ROBUSTNESS_INPUT,
    "repro.image.synthetic.rotate_image": _ROBUSTNESS_INPUT,
    "repro.image.synthetic.shift_image": _ROBUSTNESS_INPUT,
    "repro.image.synthetic.checkerboard": _ROBUSTNESS_INPUT,
    "repro.image.synthetic.isolated_corner": _ROBUSTNESS_INPUT,
    "repro.image.synthetic.textured_noise": _ROBUSTNESS_INPUT,
    "repro.slam.evaluation.relative_pose_error": (
        "the drift metric the robustness gate of ROADMAP.md item 2 reports"
    ),
    "repro.geometry.se3.se3_log": (
        "the inverse the round-trip tests of se3_exp compare against"
    ),
    "repro.dataset.tum.parse_trajectory": (
        "the inverse the round-trip tests of format_trajectory compare against"
    ),
    "repro.dataset.tum.TrajectoryEntry.to_world_to_camera": (
        "the inverse the round-trip tests of TrajectoryEntry.from_world_to_camera "
        "compare against"
    ),
    "repro.slam.frame.Frame.feature_depth": (
        "the scalar reference the vectorised feature_depths is checked against"
    ),
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _walk(nodes, skip=None):
    """Every node under ``nodes``, leaving out the subtree of ``skip``."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _identifiers(nodes):
    """Every name, attribute and imported name used in ``nodes``."""
    found = set()
    for node in _walk(nodes):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name.rsplit(".", 1)[-1])
    return found


def _member_reads(nodes, skip=None):
    """Every attribute and identifier-like string read in ``nodes``, outside ``skip``."""
    found = set()
    for node in _walk(nodes, skip):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                found.add(node.value)
    return found


def _module_name(path):
    return ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)


def _members(tree):
    """``(class, method)`` for every public method and property of a top-level class."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, _FUNCTIONS) and not node.name.startswith("_"):
                    yield cls, node


def _unreached_public_names():
    trees = {
        path: ast.parse(path.read_text())
        for directory in CALLER_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
        if path.name != "__init__.py"
    }
    used = {path: _identifiers(tree.body) for path, tree in trees.items()}
    read = {path: _member_reads(tree.body) for path, tree in trees.items()}
    unreached = set()
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE):
            continue
        module = _module_name(path)
        for node in tree.body:
            if not isinstance(node, _DEFINITIONS) or node.name.startswith("_"):
                continue
            rest_of_module = [other for other in tree.body if other is not node]
            reached = node.name in _identifiers(rest_of_module) or any(
                node.name in names for other, names in used.items() if other != path
            )
            if not reached:
                unreached.add(f"{module}.{node.name}")
        for cls, method in _members(tree):
            reached = any(
                method.name in names for other, names in read.items() if other != path
            ) or method.name in _member_reads(tree.body, skip=method)
            if not reached:
                unreached.add(f"{module}.{cls.name}.{method.name}")
    return unreached


def _public_definitions():
    found = set()
    for path in PACKAGE.rglob("*.py"):
        tree = ast.parse(path.read_text())
        module = _module_name(path)
        found.update(
            f"{module}.{node.name}" for node in tree.body if isinstance(node, _DEFINITIONS)
        )
        found.update(f"{module}.{cls.name}.{method.name}" for cls, method in _members(tree))
    return found


def test_every_public_name_has_a_caller_or_a_reason():
    assert sorted(_unreached_public_names() - set(UNREACHED)) == []


def test_allowlisted_names_are_still_defined():
    assert sorted(set(UNREACHED) - _public_definitions()) == []


def test_allowlisted_names_still_have_no_caller():
    defined = set(UNREACHED) & _public_definitions()
    assert sorted(defined - _unreached_public_names()) == []
