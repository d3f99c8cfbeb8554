"""Every public top-level name in ``src/repro`` is reached by code that is not a test.

A public ``def`` or ``class`` at module level (no leading underscore)
is *reached* when code under ``src/repro``, ``perfbench/`` or
``examples/`` uses it somewhere other than inside its own definition.
A use is a name or attribute load that resolves, through the file's
imports and any package ``__init__`` re-exports, to that definition,
and sits in a module-level statement or in a definition that is
itself reached.  Imports alone are not uses, so a re-export in an
``__init__.py`` or an ``__all__`` entry does not keep a name alive.

The scan is sound only while nothing imports by computed name;
``test_package_imports_nothing_by_computed_name`` pins that
``src/repro`` has no ``importlib`` import or ``__import__`` call.

:data:`ALLOWLIST` holds the names that only tests reach on purpose:
independent oracles that the tests check the shipped code against.
Each reason names the test that uses it.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
USERS = (PACKAGE, ROOT / "perfbench", ROOT / "examples")

#: Qualified name (below ``repro``) -> the oracle test that uses it.
ALLOWLIST = {
    "markov.hitting_times.f_values_paper_recursion": (
        "the paper's literal f(i) recursion, the oracle for f_values in "
        "tests/test_markov_hitting_times.py"
    ),
    "markov.hitting_times.g_values_paper_recursion": (
        "the paper's literal g(i) recursion, the oracle for g_values in "
        "tests/test_markov_hitting_times.py"
    ),
    "markov.hitting_times.conditional_step_rounds": (
        "the paper's t(j, j+-1) holding times that both recursion oracles "
        "step through, checked in tests/test_markov_hitting_times.py"
    ),
    "markov.hitting_times.conditional_step_rounds_paper_printed": (
        "the equation as printed, pinned against the corrected form in "
        "tests/test_markov_hitting_times.py"
    ),
    "rng.lehmer.SchrageGenerator": (
        "Schrage's overflow-free Lehmer step, the oracle for "
        "LehmerGenerator in tests/test_rng_lehmer.py"
    ),
    "rng.lehmer.minimal_standard_check": (
        "Park and Miller's published 10,000th value, checked in "
        "tests/test_rng_lehmer.py"
    ),
    "core.sweeps.time_to_synchronize": (
        "the sequential first-passage loop, the oracle for the runner "
        "in tests/test_parallel_job.py"
    ),
    "core.sweeps.time_to_break_up": (
        "the sequential first-passage loop, the oracle for the runner "
        "in tests/test_parallel_job.py"
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def module_name(path: Path, base: Path) -> str:
    """Dotted name under a package; the bare stem for a script folder,
    whose files import each other as top-level modules."""
    anchor = base.parent if (base / "__init__.py").exists() else base
    parts = list(path.relative_to(anchor).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _bindings(nodes, module: str, is_package: bool) -> dict[str, str]:
    """Local name -> dotted target, for every import under ``nodes``."""
    package = module if is_package else module.rpartition(".")[0]
    bound: dict[str, str] = {}
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    bound[alias.asname] = alias.name
                else:
                    head = alias.name.partition(".")[0]
                    bound[head] = head
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[: len(anchor) - node.level + 1]
                source = ".".join(anchor + ([source] if source else []))
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{source}.{alias.name}"
    return bound


def _dotted(node: ast.expr) -> list[str] | None:
    """``a.b.c`` as ``["a", "b", "c"]``; None when the base is no name."""
    attrs: list[str] = []
    while isinstance(node, ast.Attribute):
        attrs.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(attrs)]


def scan(package: Path, users: tuple[Path, ...]) -> tuple[dict[str, ast.AST], set[str]]:
    """Public top-level definitions under ``package`` and the reached ones.

    Both hold names qualified by module, ``repro.core.sweeps.x``.  The
    roots are every module's top-level statements other than a
    ``def`` or ``class``; a definition's body counts once the
    definition is itself reached.
    """
    modules: dict[str, tuple[ast.Module, dict[str, str], bool]] = {}
    defined: dict[str, ast.AST] = {}
    for base in users:
        for path in sorted(base.rglob("*.py")):
            module = module_name(path, base)
            tree = ast.parse(path.read_text(), filename=str(path))
            is_package = path.stem == "__init__"
            scope = [node for node in tree.body if not isinstance(node, _DEFS)]
            modules[module] = (tree, _bindings(scope, module, is_package), is_package)
            for node in tree.body:
                if isinstance(node, _DEFS):
                    defined[f"{module}.{node.name}"] = node

    def resolve(target: str) -> str | None:
        for _ in range(16):  # re-export chains are short
            if target in defined:
                return target
            owner, _, attr = target.rpartition(".")
            bound = modules.get(owner, (None, {}))[1].get(attr)
            if bound is None:
                return None
            target = bound
        return None

    # What each top-level statement uses; None keys the module roots.
    uses: dict[str | None, set[str]] = {None: set()}
    for module, (tree, module_bound, is_package) in modules.items():
        for top in tree.body:
            own = f"{module}.{top.name}" if isinstance(top, _DEFS) else None
            # An import inside a function binds only there.
            bound = module_bound
            if own is not None:
                bound = {**bound, **_bindings([top], module, is_package)}
            hits = uses.setdefault(own, set())
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    chain = [node.id]
                elif isinstance(node, ast.Attribute):
                    chain = _dotted(node)
                else:
                    continue
                if not chain:
                    continue
                head = bound.get(chain[0], f"{module}.{chain[0]}")
                hit = resolve(".".join([head, *chain[1:]]))
                if hit is not None and hit != own:
                    hits.add(hit)

    reached: set[str] = set()
    frontier = list(uses[None])
    while frontier:
        name = frontier.pop()
        if name not in reached:
            reached.add(name)
            frontier.extend(uses.get(name, ()))

    prefix = f"{package.name}."
    public = {
        name: node
        for name, node in defined.items()
        if name.startswith(prefix) and not node.name.startswith("_")
    }
    return public, reached


def unreached(package: Path = PACKAGE, users: tuple[Path, ...] = USERS) -> list[str]:
    public, reached = scan(package, users)
    prefix = f"{package.name}."
    return sorted(name[len(prefix):] for name in public if name not in reached)


def test_every_public_name_is_reached_or_an_allowlisted_oracle():
    missing = [name for name in unreached() if name not in ALLOWLIST]
    assert missing == [], (
        "public names no entry point reaches; delete them, or add a test "
        f"oracle to ALLOWLIST with its reason: {missing}"
    )


def test_allowlist_holds_only_unreached_names():
    stale = sorted(set(ALLOWLIST) - set(unreached()))
    assert stale == [], f"allowlisted but reached or gone: {stale}"


def test_each_allowlist_entry_names_a_test_that_uses_it():
    for name, reason in ALLOWLIST.items():
        test_file = next(word for word in reason.split() if word.startswith("tests/"))
        source = (ROOT / test_file).read_text()
        assert name.rpartition(".")[2] in source, (name, test_file)


def test_package_imports_nothing_by_computed_name():
    for path in PACKAGE.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                assert node.id != "__import__", path
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    assert alias.name.partition(".")[0] != "importlib", path
            elif isinstance(node, ast.ImportFrom):
                assert (node.module or "").partition(".")[0] != "importlib", path


def _tree(tmp_path: Path, files: dict[str, str]) -> tuple[Path, Path]:
    for name, source in files.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return tmp_path / "pkg", tmp_path / "app"


class TestScanner:
    def test_reexport_and_all_are_not_uses(self, tmp_path):
        package, app = _tree(tmp_path, {
            "pkg/__init__.py": """
                from .mod import used, unused
                __all__ = ["used", "unused"]
            """,
            "pkg/mod.py": """
                def used():
                    return 1

                def unused():
                    return unused()

                def _private():
                    return 0
            """,
            "app/main.py": """
                from pkg import used
                used()
            """,
        })
        assert unreached(package, (package, app)) == ["mod.unused"]

    def test_module_attribute_and_relative_import_uses(self, tmp_path):
        package, app = _tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                class Thing:
                    pass
            """,
            "pkg/b.py": """
                from . import a

                def make():
                    return a.Thing()
            """,
            "app/main.py": """
                import pkg.b as b
                b.make()
            """,
        })
        assert unreached(package, (package, app)) == []

    def test_a_use_only_in_tests_does_not_count(self, tmp_path):
        package, app = _tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                def helper():
                    return 1
            """,
            "app/main.py": "print('no use of pkg')\n",
            "tests/test_a.py": """
                from pkg.a import helper
                helper()
            """,
        })
        assert unreached(package, (package, app)) == ["a.helper"]

    def test_script_siblings_and_transitive_reach(self, tmp_path):
        package, app = _tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """
                def through_helper():
                    return 1

                def only_from_dead_code():
                    return 2
            """,
            "app/helper.py": """
                from pkg.a import only_from_dead_code, through_helper

                def run():
                    return through_helper()

                def dead():
                    return only_from_dead_code()
            """,
            "app/main.py": """
                import helper

                if __name__ == "__main__":
                    helper.run()
            """,
        })
        assert unreached(package, (package, app)) == ["a.only_from_dead_code"]

