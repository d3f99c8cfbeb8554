"""Developer tooling that ships with the repo (not used at runtime).

``python -m repro.tools.lint`` — one AST walk per file over three
rules: ``excepts`` (silent ``except Exception: pass`` swallows),
``clocks`` (wall-clock reads outside ``repro.obs`` and the other
allowlisted code) and ``determinism`` (``np.random``, float32 dtypes
and order-unstable reductions in ``core`` and ``topo``).
"""
