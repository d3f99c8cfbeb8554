"""repro — a reproduction of Floyd & Jacobson, "The Synchronization of
Periodic Routing Messages" (SIGCOMM 1993).

Subpackages:

* :mod:`repro.core` — the Periodic Messages model (the paper's primary
  contribution) with cluster tracking, timer policies, and the cascade
  and batch engines.
* :mod:`repro.markov` — the Section 5 birth--death chain analysis.
* :mod:`repro.des`, :mod:`repro.rng` — the event loop and the
  minimal-standard random streams.
* :mod:`repro.net`, :mod:`repro.protocols`, :mod:`repro.traffic` — the
  packet-level network and distance-vector routing behind Figures 1-3
  and 18, and the ping, audio and video traffic sources.
* :mod:`repro.topo` — sparse coupling topologies (Figures 16-17).
* :mod:`repro.analysis` — autocorrelation, outage, coherence and
  ASCII-plot tools.
* :mod:`repro.models` — the other synchronization phenomena of
  Section 1 (TCP windows, external clocks, client-server recovery),
  run by ``examples/``.
* :mod:`repro.parallel`, :mod:`repro.campaign`, :mod:`repro.serve`,
  :mod:`repro.predict`, :mod:`repro.obs` — the runner and result
  cache, sharded studies, the HTTP fleet, the calibrated prediction
  tier, and observability.
* :mod:`repro.experiments` — one driver per figure plus the CLI.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
