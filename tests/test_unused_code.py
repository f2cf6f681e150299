"""Every definition in ``src/stochorder`` has a caller in the package.

The scan parses each module with ``ast``.  A top-level function or class is
used when some module reads its name, reads it as an attribute, or imports
it (``__init__`` excepted: a re-export calls nothing).  A method is used when
some module reads an attribute of its name, or its own class body names it.
A definition that is not used fails, unless ``ALLOWED`` names it with its
reason.  Magic methods are exempt.  Methods are matched by name alone, so a
method counts as called when any attribute of that name is read.
"""

import ast
from pathlib import Path

import stochorder

PACKAGE = Path(stochorder.__file__).parent

#: definitions kept without a caller in the package, each with its reason
ALLOWED = {
    "distributions.BivariateDist.marginal_x": "called by acceptance criterion 06",
    "distributions.Interval.contains": "called by acceptance criterion 11",
    "distributions.Interval.open_closed": "called by acceptance criterion 11",
    "distributions.UnivariateDist.interval_mass": "called by acceptance criterion 11",
    "distributions.UnivariateDist.cdf": "public API the README documents",
    "distributions.UnivariateDist.survival": "public API the README documents",
    "distributions.UnivariateDist.quantile": "public API the README documents",
    "estimation.empirical": "public API the README documents",
    "fixtures.banded_tp2": "called by acceptance criteria 09 and 10",
    "fixtures.random_tp2": "called by acceptance criteria 07 and 09",
    "isotonic.minimal_isotonic_density": "called by acceptance criterion 11",
    "isotonic.maximal_isotonic_density": "public API the README documents",
    "tp2.conditional_density": "public API the README documents",
}


def _names(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}


def _unused() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.glob("*.py"))}
    names, attributes = set(), set()
    for stem, tree in trees.items():
        names |= _names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and stem != "__init__":
                names.update(alias.name for alias in node.names)
    unused = []
    used = names | attributes
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in used:
                unused.append(f"{stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                called = attributes | _names(node)
                unused += [f"{stem}.{node.name}.{sub.name}" for sub in node.body
                           if isinstance(sub, ast.FunctionDef) and sub.name not in called
                           and not (sub.name.startswith("__") and sub.name.endswith("__"))]
    return unused


def test_every_definition_has_a_caller_or_a_reason():
    assert sorted(set(_unused()) - set(ALLOWED)) == []


def test_every_allowed_definition_still_needs_its_entry():
    assert sorted(set(ALLOWED) - set(_unused())) == []
