"""Tests for the ``excepts`` rule of repro.tools.lint (silent swallows).

Also the enforcement point: the last test runs the linter over the
shipped package, so introducing a new ``except Exception: pass``
anywhere in ``src/repro`` fails CI.
"""

import textwrap

from repro.tools.lint import PACKAGE, main, scan_file, scan_tree

ALLOW_COMMENT = "lint: allow-swallow"


def write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return path


class TestDetection:
    def test_flags_silent_broad_handlers(self, tmp_path):
        path = write(
            tmp_path,
            "bad.py",
            """
            try:
                risky()
            except Exception:
                pass
            try:
                risky()
            except:
                ...
            try:
                risky()
            except BaseException:
                pass
            """,
        )
        findings = scan_file(path)
        assert len(findings) == 3
        assert [f.line for f in findings] == [4, 8, 12]
        assert "except Exception" in findings[0].reason
        assert "bare except" in findings[1].reason

    def test_narrow_or_noisy_handlers_pass(self, tmp_path):
        path = write(
            tmp_path,
            "good.py",
            """
            try:
                risky()
            except OSError:
                pass          # narrow: a legitimate best-effort idiom
            try:
                risky()
            except Exception as error:
                log(error)    # broad but visible
            try:
                risky()
            except Exception:
                raise         # broad but re-raises
            """,
        )
        assert scan_file(path) == []

    def test_allow_comment_suppresses(self, tmp_path):
        path = write(
            tmp_path,
            "allowed.py",
            f"""
            try:
                risky()
            except Exception:  # {ALLOW_COMMENT}
                pass
            try:
                risky()
            # {ALLOW_COMMENT}: teardown must never raise
            except Exception:
                pass
            """,
        )
        assert scan_file(path) == []

    def test_unparseable_file_is_reported_not_crashed(self, tmp_path):
        path = write(tmp_path, "broken.py", "def oops(:\n")
        (finding,) = scan_file(path)
        assert "could not scan" in finding.reason

    def test_scan_tree_recurses(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        write(tmp_path, "pkg/deep.py", "try:\n    x()\nexcept Exception:\n    pass\n")
        write(tmp_path, "clean.py", "x = 1\n")
        findings = scan_tree([tmp_path])
        assert len(findings) == 1


class TestMain:
    def test_exit_one_and_prints_on_findings(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", "try:\n    x()\nexcept Exception:\n    pass\n")
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:3" in out
        assert "1 silent exception swallow(s) found" in out

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", "x = 1\n")
        assert main([str(path)]) == 0
        assert capsys.readouterr().out == ""


class TestShippedPackageIsClean:
    def test_src_repro_has_no_silent_swallows(self):
        target = PACKAGE
        assert target.name == "repro"  # sanity: we scan the real package
        findings = scan_tree([target])
        assert findings == [], "\n".join(str(f) for f in findings)
