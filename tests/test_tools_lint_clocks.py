"""Tests for the ``clocks`` rule of repro.tools.lint (wall-clock reads).

Also the enforcement point: the last test runs the linter over the
shipped package, so a stray ``time.time()`` outside the allowlisted
packages (``repro.obs``, ``repro.serve``) anywhere in ``src/repro``
fails CI.
"""

import textwrap

from repro.tools.lint import (
    PACKAGE,
    WALL_CLOCK_ALLOWLIST,
    main,
    scan_file,
    scan_tree,
)

ALLOW_COMMENT = "lint: allow-wallclock"


def write(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


class TestDetection:
    def test_flags_wallclock_reads(self, tmp_path):
        path = write(
            tmp_path,
            "bad.py",
            """
            import time
            import datetime

            a = time.time()
            b = datetime.datetime.now()
            c = datetime.datetime.utcnow()
            d = datetime.date.today()
            """,
        )
        findings = scan_file(path)
        assert [f.line for f in findings] == [5, 6, 7, 8]
        assert "time.time()" in findings[0].reason
        assert "repro.obs" in findings[0].reason

    def test_monotonic_clocks_pass(self, tmp_path):
        path = write(
            tmp_path,
            "good.py",
            """
            import time

            t0 = time.monotonic()
            t1 = time.perf_counter()
            time.sleep(0.1)
            elapsed = time.monotonic() - t0
            """,
        )
        assert scan_file(path) == []

    def test_unrelated_names_pass(self, tmp_path):
        path = write(
            tmp_path,
            "good.py",
            """
            now = compute_now()
            t = simulation.time()
            stamp = my.clock.today
            """,
        )
        # simulation.time() matches the `time.time` shape only when the
        # base is literally `time`; attribute access without a call and
        # local helpers stay unflagged.
        findings = scan_file(path)
        assert findings == []

    def test_allow_comment_suppresses(self, tmp_path):
        path = write(
            tmp_path,
            "allowed.py",
            f"""
            import time

            stamp = time.time()  # {ALLOW_COMMENT}
            # {ALLOW_COMMENT}: operator-facing timestamp only
            other = time.time()
            """,
        )
        assert scan_file(path) == []

    def test_obs_package_is_exempt(self, tmp_path):
        path = write(
            tmp_path,
            "obs/clock.py",
            """
            import time

            def wall_time():
                return time.time()
            """,
        )
        assert scan_file(path) == []

    def test_unparseable_file_is_reported_not_crashed(self, tmp_path):
        path = write(tmp_path, "broken.py", "def oops(:\n")
        (finding,) = scan_file(path)
        assert "could not scan" in finding.reason

    def test_scan_tree_recurses_and_skips_obs(self, tmp_path):
        write(tmp_path, "pkg/deep.py", "import time\nx = time.time()\n")
        write(tmp_path, "obs/clock.py", "import time\nx = time.time()\n")
        findings = scan_tree([tmp_path])
        assert len(findings) == 1
        assert "deep.py" in str(findings[0])


class TestAllowlist:
    WALLCLOCK = "import time\nx = time.time()\n"

    def test_default_allowlist_names_obs_serve_and_claims(self):
        assert WALL_CLOCK_ALLOWLIST == ("obs", "serve", "parallel/claims.py")

    def test_serve_package_is_allowlisted_by_default(self, tmp_path):
        path = write(tmp_path, "serve/http.py", self.WALLCLOCK)
        assert scan_file(path) == []

    def test_file_suffix_entry_exempts_one_module_only(self, tmp_path):
        claims = write(tmp_path, "parallel/claims.py", self.WALLCLOCK)
        sibling = write(tmp_path, "parallel/runner.py", self.WALLCLOCK)
        assert scan_file(claims) == []
        assert scan_file(sibling) != []


class TestMain:
    def test_exit_one_and_prints_on_findings(self, tmp_path, capsys):
        path = write(tmp_path, "bad.py", "import time\nx = time.time()\n")
        assert main([str(path)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:2" in out
        assert "wall-clock read(s)" in out

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        path = write(tmp_path, "clean.py", "x = 1\n")
        assert main([str(path)]) == 0
        assert capsys.readouterr().out == ""


class TestShippedPackageIsClean:
    def test_src_repro_reads_no_wall_clocks(self):
        target = PACKAGE
        assert target.name == "repro"  # sanity: we scan the real package
        findings = scan_tree([target])
        assert findings == [], "\n".join(str(f) for f in findings)
