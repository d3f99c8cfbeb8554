"""Campaign orchestration: a parameter study as one first-class artifact.

The paper's central results (Figures 7-15) are parameter studies —
grids over (N, Tp, Tc, Tr) x seeds.  This package turns "a sweep on
one host" into "a study across a fleet":

* :class:`CampaignSpec` (:mod:`~repro.campaign.spec`) — the study as
  one declarative, serializable value, expanded lazily into
  content-addressed :class:`~repro.parallel.SimulationJob` specs;
* :mod:`~repro.campaign.shard` — ``shard k of M`` as a pure function
  of the job hash, so any host claims any shard with no coordinator;
* :class:`Dispatcher` (:mod:`~repro.campaign.dispatch`) — pluggable
  execution: :class:`LocalDispatcher` (the process pool) or
  :class:`ServeDispatcher` (a PR-7 serve fleet over HTTP);
* :func:`run_campaign` (:mod:`~repro.campaign.run`) — the
  orchestrator: chunked lazy iteration, one durable cache commit per
  chunk, SIGKILL-safe resume that re-executes only missing hashes;
* :class:`CampaignProgress` (:mod:`~repro.campaign.progress`) —
  done/total, decaying rate, monotonic-clock ETA through ``repro.obs``;
* :func:`build_report` (:mod:`~repro.campaign.report`) — the finished
  grid as summary tables and figure-ready arrays, straight from the
  cache, byte-identical regardless of which dispatcher filled it.

CLI: ``python -m repro campaign run|status|report|shard``.
"""

from .dispatch import (
    Dispatcher,
    DispatchError,
    LocalDispatcher,
    ServeDispatcher,
    parse_endpoints,
)
from .progress import CampaignProgress, format_eta
from .report import (
    build_report,
    format_report,
    plot_report,
    report_json,
    write_report,
)
from .run import (
    DEFAULT_CHUNK_SIZE,
    ShardRun,
    campaign_status,
    format_status,
    run_campaign,
    shard_marker,
)
from .shard import iter_shard, parse_shard, shard_index, shard_manifest
from .spec import CampaignSpec, load_spec

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "CampaignProgress",
    "CampaignSpec",
    "DispatchError",
    "Dispatcher",
    "LocalDispatcher",
    "ServeDispatcher",
    "ShardRun",
    "build_report",
    "campaign_status",
    "format_eta",
    "format_report",
    "format_status",
    "iter_shard",
    "load_spec",
    "parse_endpoints",
    "parse_shard",
    "plot_report",
    "report_json",
    "run_campaign",
    "shard_index",
    "shard_marker",
    "shard_manifest",
    "write_report",
]
