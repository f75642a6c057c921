"""Every public top-level function and class in ``src/repro`` has a caller
outside the tests, or a stated reason to exist without one.

A name only the tests reach is code the program does not run: it is
deleted with its tests, or, where tests use it as an oracle, moved next to
them.  The scan is by name.  A public ``def`` or ``class`` counts as reached
when its name appears as a name, an attribute or an import anywhere in
``src/``, ``benchmarks/``, ``perfbench/`` or ``examples/``, outside its own
definition and the package ``__init__`` re-exports.  A name that shares its
spelling with another identifier can therefore look reached when it is not;
the scan never reports a reached name as unreached.

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
    "repro.platforms.heterogeneous.HeterogeneousSlamSystem": (
        "paper Tables 2-3 (per-platform runtime and energy) over workloads "
        "measured from a real SLAM run"
    ),
    "repro.geometry.se3.se3_log": (
        "the inverse the round-trip tests of se3_exp compare against"
    ),
    "repro.dataset.tum.parse_trajectory": (
        "the inverse the round-trip tests of format_trajectory compare against"
    ),
}

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _identifiers(nodes):
    """Every name, attribute and imported name used in ``nodes``."""
    found = set()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.rsplit(".", 1)[-1])
    return found


def _unreached_public_names():
    trees = {
        path: ast.parse(path.read_text())
        for directory in CALLER_DIRS
        for path in sorted((ROOT / directory).rglob("*.py"))
        if path.name != "__init__.py"
    }
    used = {path: _identifiers(tree.body) for path, tree in trees.items()}
    unreached = set()
    for path, tree in trees.items():
        if not path.is_relative_to(PACKAGE):
            continue
        module = ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts)
        for node in tree.body:
            if not isinstance(node, _DEFINITIONS) or node.name.startswith("_"):
                continue
            rest_of_module = [other for other in tree.body if other is not node]
            reached = node.name in _identifiers(rest_of_module) or any(
                node.name in names for other, names in used.items() if other != path
            )
            if not reached:
                unreached.add(f"{module}.{node.name}")
    return unreached


def _public_definitions():
    return {
        ".".join(path.relative_to(PACKAGE.parent).with_suffix("").parts) + "." + node.name
        for path in PACKAGE.rglob("*.py")
        for node in ast.parse(path.read_text()).body
        if isinstance(node, _DEFINITIONS)
    }


def test_every_public_name_has_a_caller_or_a_reason():
    assert sorted(_unreached_public_names() - set(UNREACHED)) == []


def test_allowlisted_names_are_still_defined():
    assert sorted(set(UNREACHED) - _public_definitions()) == []


def test_allowlisted_names_still_have_no_caller():
    defined = set(UNREACHED) & _public_definitions()
    assert sorted(defined - _unreached_public_names()) == []
