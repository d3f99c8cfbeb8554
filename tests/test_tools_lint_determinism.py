"""Tests for the ``determinism`` rule of repro.tools.lint.

The rule's scope is the ``core`` and ``topo`` packages, so fixtures
live under a ``core/`` directory.  Also the enforcement point: the last
tests scan the shipped ``repro.core`` and ``repro.topo`` packages, so a
stray ``np.random`` call, a float32 dtype, or an axis-less float
reduction inside the simulation core fails CI.
"""

import textwrap

from repro.tools.lint import PACKAGE, main, scan_file, scan_tree

ALLOW_COMMENT = "lint: allow-nondeterminism"


def write(tmp_path, name, source):
    path = tmp_path / "core" / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


class TestNpRandom:
    def test_flags_np_random_calls_and_attributes(self, tmp_path):
        path = write(
            tmp_path,
            "bad.py",
            """
            import numpy as np

            rng = np.random.default_rng(0)
            np.random.seed(1)
            x = np.random
            """,
        )
        findings = scan_file(path)
        assert [f.line for f in findings] == [4, 5, 6]
        assert "lehmer" in findings[0].reason

    def test_flags_numpy_random_imports(self, tmp_path):
        path = write(
            tmp_path,
            "imports.py",
            """
            import numpy.random
            from numpy.random import default_rng
            from numpy import random
            """,
        )
        findings = scan_file(path)
        assert [f.line for f in findings] == [2, 3, 4]

    def test_underscore_np_alias_is_covered(self, tmp_path):
        # core modules import numpy as _np; the alias must not evade.
        path = write(
            tmp_path,
            "alias.py",
            """
            import numpy as _np

            x = _np.random.standard_normal()
            """,
        )
        assert [f.line for f in scan_file(path)] == [4]


class TestFloat32:
    def test_flags_float32_dtypes(self, tmp_path):
        path = write(
            tmp_path,
            "dtypes.py",
            """
            import numpy as np

            a = np.zeros(4, dtype=np.float32)
            b = np.asarray([1.0], dtype="float32")
            c = x.astype(np.float32)
            from numpy import float32
            """,
        )
        findings = scan_file(path)
        assert [f.line for f in findings] == [4, 5, 6, 7]
        assert "float64" in findings[0].reason

    def test_float64_passes(self, tmp_path):
        path = write(
            tmp_path,
            "ok.py",
            """
            import numpy as np

            a = np.zeros(4, dtype=np.float64)
            b = np.asarray([1], dtype=np.int64)
            """,
        )
        assert scan_file(path) == []


class TestUnstableReductions:
    def test_flags_axisless_sum_and_prod(self, tmp_path):
        path = write(
            tmp_path,
            "reduce.py",
            """
            import numpy as np

            total = np.sum(slab)
            product = np.prod(slab)
            nt = np.nansum(slab)
            d = np.dot(a, b)
            """,
        )
        findings = scan_file(path)
        assert [f.line for f in findings] == [4, 5, 6, 7]
        assert "order-unstable" in findings[0].reason

    def test_axis_reductions_and_python_sum_pass(self, tmp_path):
        path = write(
            tmp_path,
            "ok.py",
            """
            import numpy as np

            rows = np.sum(slab, axis=1)
            cols = np.prod(slab, axis=0)
            exact = sum(values)        # Python's sum is left-to-right
            c = np.cumsum(slab)        # order is defined, not flagged
            """,
        )
        assert scan_file(path) == []

    def test_allow_comment_suppresses(self, tmp_path):
        path = write(
            tmp_path,
            "annotated.py",
            f"""
            import numpy as np

            count = np.sum(mask)  # {ALLOW_COMMENT}
            # {ALLOW_COMMENT}
            count2 = np.sum(mask)
            bad = np.sum(slab)
            """,
        )
        assert [f.line for f in scan_file(path)] == [7]


class TestCli:
    def test_exit_status_and_output(self, tmp_path, capsys):
        write(tmp_path, "pkg/bad.py", "import numpy as np\nx = np.sum(a)\n")
        write(tmp_path, "pkg/good.py", "value = 1\n")
        assert main([str(tmp_path / "core" / "pkg")]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2" in out
        assert "1 determinism hazard(s)" in out
        assert main([str(tmp_path / "core" / "pkg" / "good.py")]) == 0

    def test_unreadable_file_is_reported(self, tmp_path):
        path = write(tmp_path, "broken.py", "def :\n")
        findings = scan_tree([path])
        assert len(findings) == 1
        assert "could not scan" in findings[0].reason


class TestEnforcement:
    def test_shipped_core_is_clean(self):
        """The real gate: src/repro/core has no determinism hazards."""
        target = PACKAGE / "core"
        assert target.is_dir()
        assert scan_tree([target]) == []

    def test_shipped_topo_is_clean(self):
        """Graph generation must stay host-reproducible (CI scans it too)."""
        target = PACKAGE / "topo"
        assert target.is_dir()
        assert scan_tree([target]) == []


class TestScope:
    def test_rule_covers_core_and_topo_only(self, tmp_path):
        hazard = "import numpy as np\nx = np.sum(a)\n"
        for package, flagged in (("core", 1), ("topo", 1), ("analysis", 0)):
            path = tmp_path / package / "mod.py"
            path.parent.mkdir()
            path.write_text(hazard)
            assert len(scan_file(path)) == flagged, package
