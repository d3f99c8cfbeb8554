"""Shared benchmark helpers.

Every benchmark runs its figure reproduction exactly once (the
simulations are deterministic and some take seconds), records the
wall time via pytest-benchmark's pedantic mode, prints the same
rows/series the paper reports, and asserts the figure's qualitative
shape.
"""

from __future__ import annotations

import pytest

from repro.experiments import run_figure


@pytest.fixture
def run_fig(benchmark, capsys):
    """Run a figure reproduction under the benchmark clock, once."""

    def runner(figure_id: str, **overrides):
        result = benchmark.pedantic(
            lambda: run_figure(figure_id, fast=True, **overrides),
            iterations=1,
            rounds=1,
        )
        with capsys.disabled():
            print()
            print(result.format_text())
        return result

    return runner
