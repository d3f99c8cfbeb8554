"""AST lints for the repo's three code rules, in one walk per file.

Each rule is a name, an escape comment, a scope and a node check:

``excepts`` (all of ``src/repro``)
    A broad handler — bare ``except:``, ``except Exception:`` or
    ``except BaseException:`` — whose body is only ``pass``/``...``.
    Every recovery path must retry, count, warn or re-raise; a silent
    swallow turns graceful degradation into untestable dead code.
    Narrow handlers (``except OSError: pass``) stay a legitimate idiom
    for best-effort filesystem work.

``clocks`` (``src/repro`` minus :data:`WALL_CLOCK_ALLOWLIST`)
    A wall-clock read: ``time.time()`` and ``datetime.now()`` /
    ``utcnow()`` / ``date.today()`` (and their ``datetime.datetime.*``
    spellings).  Results derive from seeds and parameters, never from
    when the code ran.  Monotonic interval clocks (``time.monotonic``,
    ``time.perf_counter``) are allowed everywhere: they measure how long
    something took and cannot leak the date into a result.

``determinism`` (the ``core`` and ``topo`` packages)
    The numpy idioms that break byte-identity across engines and hosts:
    any ``np.random`` (the core draws from the paper's Lehmer generator,
    ``repro.rng.lehmer``, and the differential matrix checks consumed
    RNG positions), ``float32`` dtypes (results are float64 end to end,
    and float32 rounds differently per SIMD width), and axis-less
    ``np.sum``/``np.prod``/``np.dot``-style reductions (pairwise/SIMD
    association varies by build; reduce in an explicit order or over a
    stated axis).

A scope entry without ``/`` matches a package directory name; one with
``/`` matches a path suffix.  Inside ``src/repro`` scopes are matched
on the path below the package root; elsewhere (test fixtures) on the
whole path.

Escape hatch for a deliberate site: the rule's comment —
``# lint: allow-swallow``, ``# lint: allow-wallclock`` or ``# lint:
allow-nondeterminism`` — on the flagged line or the line above.  Every
exception stays a visible, reviewable annotation.

Usage::

    python -m repro.tools.lint            # all three rules over src/repro
    python -m repro.tools.lint PATH...    # narrow the scan to PATHs

Exit status 1 when findings exist, 0 otherwise.  The tier-1 suite
(``tests/test_tools_lint*.py``) scans the shipped package too.
"""

from __future__ import annotations

import argparse
import ast
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

__all__ = [
    "PACKAGE",
    "RULES",
    "WALL_CLOCK_ALLOWLIST",
    "Finding",
    "main",
    "scan_file",
    "scan_tree",
]

#: The shipped package (``src/repro``): the default scan target.
PACKAGE = Path(__file__).resolve().parents[1]

#: Code allowed to read the wall clock.  ``obs`` wraps the raw clocks
#: once for everyone else (``repro.obs.clock``); ``serve`` speaks HTTP,
#: where Date headers and Retry-After/drain deadlines are wall-clock
#: concepts; ``parallel/claims.py`` stamps claim-record heartbeats that
#: other processes judge for staleness.  None of these can leak time
#: into a simulation result (enforced by the obs-inert and serve
#: byte-identity suites).
WALL_CLOCK_ALLOWLIST = ("obs", "serve", "parallel/claims.py")

_BROAD_EXCEPTS = ("Exception", "BaseException")

#: ``base.attr`` call targets that read the wall clock.
_WALL_CLOCKS = {
    "time": ("time",),
    "datetime": ("now", "utcnow", "today"),
    "date": ("today",),
}

_NUMPY_ALIASES = ("np", "numpy", "_np")

#: Axis-less calls of these numpy reductions are order-unstable.
_UNSTABLE_REDUCTIONS = ("sum", "prod", "nansum", "nanprod", "dot", "einsum")

_NP_RANDOM = (
    "np.random's hidden global state breaks seed-derived byte-identity "
    "(use repro.rng.lehmer streams)"
)
_FLOAT32 = (
    "core slabs are float64 end to end; a float32 dtype rounds "
    "differently per platform"
)


class Finding(NamedTuple):
    """One flagged site: file, line, a human-readable reason, and the rule."""

    path: Path
    line: int
    reason: str
    rule: str

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.reason}"


def _dotted_name(node: ast.expr) -> str | None:
    """``a.b.c`` for an attribute chain of plain names, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def _silent_swallow(node: ast.AST) -> str | None:
    """``excepts``: a broad handler whose body does nothing."""
    if not isinstance(node, ast.ExceptHandler):
        return None
    if node.type is None:
        broad = "bare except"
    elif isinstance(node.type, ast.Name) and node.type.id in _BROAD_EXCEPTS:
        broad = f"except {node.type.id}"
    else:
        return None
    for stmt in node.body:
        if not (
            isinstance(stmt, ast.Pass)
            or isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is Ellipsis
        ):
            return None
    return (
        f"{broad} with a pass-only body swallows errors silently "
        "(count, warn, or re-raise; or annotate '# lint: allow-swallow')"
    )


def _wall_clock_read(node: ast.AST) -> str | None:
    """``clocks``: ``time.time()``-style calls, or a bare ``utcnow()``.

    A bare ``time()`` or ``now()`` is routinely a local helper, so of
    the bare names only ``utcnow`` is flagged.
    """
    if not isinstance(node, ast.Call):
        return None
    dotted = _dotted_name(node.func)
    if dotted is None:
        return None
    *base, attr = dotted.split(".")
    if attr in (_WALL_CLOCKS.get(base[-1], ()) if base else ("utcnow",)):
        return (
            f"{dotted}() reads the wall clock outside the allowlist "
            "(use repro.obs.clock.wall_time, or annotate "
            "'# lint: allow-wallclock')"
        )
    return None


def _nondeterminism(node: ast.AST) -> str | None:
    """``determinism``: np.random, float32 dtypes, unstable reductions."""
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "numpy.random" or alias.name.startswith(
                "numpy.random."
            ):
                return f"import of {alias.name!r}: {_NP_RANDOM}"
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        names = [alias.name for alias in node.names]
        if module == "numpy.random" or module.startswith("numpy.random."):
            return f"import from {module!r}: {_NP_RANDOM}"
        if module == "numpy" and "random" in names:
            return (
                "import of numpy.random: use repro.rng.lehmer streams instead"
            )
        if module == "numpy" and "float32" in names:
            return "float32 import: core slabs are float64 end to end"
    elif isinstance(node, ast.Attribute):
        parts = (_dotted_name(node) or "").split(".")
        if len(parts) >= 2 and parts[0] in _NUMPY_ALIASES:
            # Flag only the exact ``np.random`` node: longer chains like
            # ``np.random.seed`` contain it as a child.
            if parts[1:] == ["random"]:
                return f"{'.'.join(parts)}: {_NP_RANDOM}"
            if parts[-1] == "float32":
                return f"{'.'.join(parts)}: {_FLOAT32}"
    elif isinstance(node, ast.keyword):
        if (
            node.arg == "dtype"
            and isinstance(node.value, ast.Constant)
            and node.value.value == "float32"
        ):
            return f'dtype="float32": {_FLOAT32}'
    elif isinstance(node, ast.Call):
        dotted = _dotted_name(node.func) or ""
        parts = dotted.split(".")
        if (
            len(parts) == 2
            and parts[0] in _NUMPY_ALIASES
            and parts[1] in _UNSTABLE_REDUCTIONS
        ):
            has_axis = any(kw.arg == "axis" for kw in node.keywords)
            if parts[1] in ("dot", "einsum") or not has_axis:
                return (
                    f"{dotted}() is an order-unstable reduction over a "
                    "float slab (pairwise/SIMD association varies by "
                    "build); reduce in an explicit order or over a "
                    "stated axis, or annotate an integer reduction with "
                    "'# lint: allow-nondeterminism'"
                )
    return None


def _matches(path: Path, entries: Sequence[str]) -> bool:
    """True when *path* lies in a scope entry (package name or path suffix)."""
    resolved = path.resolve()
    if resolved.is_relative_to(PACKAGE):
        path = resolved.relative_to(PACKAGE)
    return any(
        path.as_posix().endswith(entry) if "/" in entry else entry in path.parts
        for entry in entries
    )


class Rule(NamedTuple):
    """One lint rule: what it flags, where, and how a site opts out."""

    name: str
    comment: str  # the escape comment, without its leading '# '
    applies: Callable[[Path], bool]  # the scope
    check: Callable[[ast.AST], str | None]  # reason for a flagged node
    found: str  # the summary noun


RULES = (
    Rule(
        "excepts",
        "lint: allow-swallow",
        lambda path: True,
        _silent_swallow,
        "silent exception swallow(s)",
    ),
    Rule(
        "clocks",
        "lint: allow-wallclock",
        lambda path: not _matches(path, WALL_CLOCK_ALLOWLIST),
        _wall_clock_read,
        "wall-clock read(s)",
    ),
    Rule(
        "determinism",
        "lint: allow-nondeterminism",
        lambda path: _matches(path, ("core", "topo")),
        _nondeterminism,
        "determinism hazard(s)",
    ),
)


def scan_file(path: Path) -> list[Finding]:
    """Every rule's findings in one file, in line order, one per site."""
    rules = [rule for rule in RULES if rule.applies(path)]
    try:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError) as error:
        return [Finding(path, 1, f"could not scan: {error}", "parse")]
    lines = source.splitlines()
    findings: dict[tuple[int, str], Finding] = {}
    for node in ast.walk(tree):
        for rule in rules:
            reason = rule.check(node)
            if reason is None:
                continue
            window = lines[max(0, node.lineno - 2) : node.lineno]
            if not any(rule.comment in line for line in window):
                finding = Finding(path, node.lineno, reason, rule.name)
                findings.setdefault((node.lineno, reason), finding)
    return sorted(findings.values(), key=lambda finding: finding.line)


def scan_tree(paths: Iterable[Path]) -> list[Finding]:
    """Recursively scan files and directories."""
    findings: list[Finding] = []
    for path in paths:
        sources = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for source in sources:
            findings.extend(scan_file(source))
    return findings


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns 1 when findings exist."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.lint",
        description="flag silent exception swallows, wall-clock reads and "
        "determinism hazards, each within its rule's scope",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=f"files or directories to scan (default {PACKAGE})",
    )
    findings = scan_tree(parser.parse_args(argv).paths or [PACKAGE])
    for finding in findings:
        print(finding)
    for rule in RULES:
        count = sum(finding.rule == rule.name for finding in findings)
        if count:
            print(f"{count} {rule.found} found")
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
