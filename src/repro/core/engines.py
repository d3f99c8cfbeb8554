"""The single registry of simulation engines.

Every layer that lets a caller choose an engine — ensembles, sweeps,
the CLI, the serve layer, :class:`~repro.parallel.job.SimulationJob` —
validates the name here, so an unknown engine raises the *same*
``ValueError`` everywhere instead of each call site growing its own
check.

Engines
-------
``des``
    The discrete-event implementation
    (:class:`~repro.core.model.PeriodicMessagesModel`): every timer
    expiry, message arrival, and busy-period end is an event.  The
    slowest engine and the semantic reference.
``cascade``
    :class:`~repro.core.fastsim.CascadeModel`: one heap of pending
    expiries, the cascade rule applied directly.  Bit-identical to
    the DES, one model per seed.  It is a one-member ``batch`` on the
    ``python`` backend, so it never runs the C kernel and stays the
    oracle the C kernel is checked against.
``batch``
    :class:`~repro.core.batch.BatchCascade`: the cascade rule over a
    whole ensemble — many seeds advanced by one kernel, bit-identical
    to ``cascade`` member by member.  Two backends (see
    :data:`repro.core.batch.BACKENDS`): ``compiled`` (the cascade
    kernel as a C module built with the system compiler, the default
    wherever it builds) and ``python``
    (:func:`repro.topo.advance_coupled` per member, the
    zero-dependency fallback where it does not).  Both are enforced
    byte-identical by ``tests/test_engine_differential.py``.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["ENGINES", "check_engine_topology", "resolve_engine"]

#: Known engine names, in reference-to-fastest order.
ENGINES = ("des", "cascade", "batch")


def resolve_engine(engine: str) -> str:
    """Return ``engine`` unchanged if known, else raise ``ValueError``.

    This is the one place the error message is worded; every call site
    (ensemble, sweeps, CLI, serve, job specs) funnels through it so the
    failure mode is identical no matter where a bad name enters.
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; known engines: {', '.join(ENGINES)}"
        )
    return engine


def check_engine_topology(engine: str, topology, n_nodes: Iterable[int]) -> None:
    """Raise ``ValueError`` when ``engine`` cannot model ``topology``.

    Only ``des`` is restricted: it models the fully-coupled case, so a
    topology passes only where its coupling is complete at every N in
    ``n_nodes`` (``"clique"`` always, a 3-ring, ...).  Like
    :func:`resolve_engine`, the one place the error is worded.
    """
    if engine != "des" or topology == "clique":
        return
    from ..topo import Coupling, ensure_spec

    spec = ensure_spec(topology)
    for n in n_nodes:
        if not Coupling(spec, n).is_complete:
            raise ValueError(
                "engine 'des' only models the fully-coupled (clique) case; "
                f"topology {spec.canonical()!r} is not complete at n={n} "
                "(use 'cascade' or 'batch')"
            )
