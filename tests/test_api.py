"""The package's public surface: every name that ``approx_sense`` exports has
a caller inside the package, or a test that says why it exists."""

from __future__ import annotations

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "approx_sense"

# Public without a caller in the package; each named test's docstring says why.
UNCALLED = {
    "operator_norm_lower_estimate",  # test_radgeom: test_certified_dominates_numeric_operator_norm
    "variance_condition_check",  # test_sensitivity: test_variance_condition_two_outcome
    "true_sensitivity_mc",  # test_validation: test_uniform_box_abs_mean_matches_true_sensitivity_mc
    "true_error_mc",  # test_validation: test_gaussian_clipped_error_matches_true_error_mc
}


def _export_table() -> dict[str, tuple[str, ...]]:
    """The package's export table, module -> names, read from its source."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    (node,) = [node for node in tree.body if isinstance(node, ast.Assign)
               and [getattr(t, "id", None) for t in node.targets] == ["_EXPORTS"]]
    return ast.literal_eval(node.value)


def _exported() -> set[str]:
    return {name for names in _export_table().values() for name in names}


def _mentions(path: Path) -> str:
    """The module's names and string literals, without its comments and
    without the names that its def, class and top-level assignments bind.
    Strings stay: the CLI looks some calculators up by name."""
    tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
    kept = []
    for prev, tok, nxt in zip([None, *tokens], tokens, tokens[1:]):
        if tok.type == tokenize.STRING:
            kept.append(tok.string)
        elif tok.type == tokenize.NAME:
            defines = prev is not None and prev.string in ("def", "class")
            assigns = tok.start[1] == 0 and nxt.string in ("=", ":")
            if not (defines or assigns):
                kept.append(tok.string)
    return " ".join(kept)


def test_every_export_without_a_caller_is_listed():
    texts = [_mentions(path) for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    uncalled = {
        name
        for name in _exported()
        if not any(re.search(rf"\b{re.escape(name)}\b", text) for text in texts)
    }
    assert uncalled == UNCALLED


def test_every_export_is_its_defining_modules_attribute():
    """Each name resolves, on first access, to the attribute of the module
    that the table names; __all__ and dir() list exactly the table."""
    import approx_sense

    table = _export_table()
    assert approx_sense.__all__ == [name for names in table.values() for name in names]
    for module, names in table.items():
        defining = importlib.import_module(f"approx_sense.{module}")
        for name in names:
            assert getattr(approx_sense, name) is getattr(defining, name), name
    assert set(approx_sense.__all__) <= set(dir(approx_sense))
    with pytest.raises(AttributeError):
        approx_sense.not_an_export  # noqa: B018


def _code(path: Path) -> str:
    """The module's code tokens joined without spaces: no comments, no strings."""
    skip = (tokenize.COMMENT, tokenize.STRING, tokenize.NL, tokenize.NEWLINE,
            tokenize.INDENT, tokenize.DEDENT)
    tokens = tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
    return "".join(tok.string for tok in tokens if tok.type not in skip)


def test_each_shared_rule_has_one_home():
    """Seeded streams (core.derived_rng), Monte Carlo standard errors
    (core._mc_mean_se) and failed allocations (core._allocating) are stated
    in core only, so a change to one of them is made in one place."""
    for path in PACKAGE.glob("*.py"):
        if path.name != "core.py":
            code = _code(path)
            for rule in ("SeedSequence", "std(ddof=1)", "MemoryError"):
                assert rule not in code, f"{path.name} states {rule}"


def test_the_cli_binds_the_package_export_table():
    """The CLI keeps no module -> names table of its own: a dict from module
    names to tuples of names would repeat the package's _EXPORTS."""
    modules = {path.stem for path in PACKAGE.glob("*.py")}

    def names(node) -> bool:
        return isinstance(node, (ast.Tuple, ast.List)) and all(
            isinstance(item, ast.Constant) and isinstance(item.value, str) for item in node.elts)

    for node in ast.walk(ast.parse((PACKAGE / "cli.py").read_text())):
        if isinstance(node, ast.Dict) and node.keys:
            keys = {getattr(key, "value", None) for key in node.keys}
            table = keys <= modules and all(map(names, node.values))
            assert not table, f"cli.py line {node.lineno} maps modules to names"


def test_geometry_components_are_checked_in_one_place():
    """A semi-axis vector and a rotation are checked where an Ellipse is
    made, and nowhere else: the closed forms take checked values, so a bound
    call never checks a component again."""
    callers = {}

    def visit(node, module: str, scope: tuple):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = (*scope, child.name)
            if isinstance(child, ast.Call) and getattr(child.func, "id", None) in (
                    "_check_mu", "_check_rotation"):
                callers.setdefault(child.func.id, set()).add(f"{module}:{'.'.join(scope)}")
            visit(child, module, inner)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, ())
    assert callers == dict.fromkeys(("_check_mu", "_check_rotation"),
                                    {"radgeom:Ellipse.__post_init__"})


def test_a_geometry_file_has_one_home():
    """The geometry variants are named in cli.py only, which checks a
    geometry file and makes the radgeom values it describes: no other module
    dispatches on a variant string."""
    variants = {"pball", "axis_union", "rotated_union", "clustered"}
    holders = {path.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Constant) and node.value in variants}
    assert holders == {"cli.py"}
