"""Content-addressed prediction tables built from campaign runs.

A prediction table is the artifact the serving tier loads: one JSON
document holding, for every grid cell over ``(n, Tc/Tp, Tr/Tp)``, the
Markov chain's expected rounds, the empirical correction factor that
calibrates it against simulation, the collapsed ``pred_rounds`` the
evaluator interpolates, the held-out error bound, and the validity
verdict.  Identity follows the repository's content-addressing rule:

* the **table id** is a 16-hex digest of the canonical build inputs —
  the campaign spec dict, the holdout split, the table schema, and
  :data:`~repro.parallel.job.MODEL_VERSION` — so the same study under
  the same model names the same table on every host, and a model
  version bump makes every old table miss (the stale-surrogate
  guard ``/healthz`` surfaces);
* the **bytes** are canonical JSON (sorted keys, fixed indent), so
  two hosts that complete the same campaign write identical files.

Building reuses the PR-8 orchestration end to end: the calibration
*and* holdout simulations are ordinary campaign jobs retired through
:func:`~repro.campaign.run.run_campaign` into the PR-1
:class:`~repro.parallel.ResultCache` — sharded, resumable, and shared
with every other consumer of the cache.  The table assembly step then
reads the completed study from the cache alone, exactly like
``campaign report`` does.

Seed split: the **last** ``holdout_count`` seeds of the spec's range
(default: a quarter, at least one) are held out of calibration and
used only to measure each cell's bound; the rest fit the correction.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from statistics import fmean
from typing import Callable

from ..campaign.dispatch import Dispatcher
from ..campaign.run import run_campaign
from ..campaign.spec import CampaignSpec
from ..core.parameters import RouterTimingParameters
from ..parallel import ResultCache
from ..parallel.job import MODEL_VERSION
from .bounds import cell_bound, in_phase
from .surrogate import markov_expected_rounds

__all__ = [
    "TABLE_SCHEMA",
    "build_table",
    "content_digest",
    "default_holdout",
    "load_table",
    "resolve_table",
    "save_table",
    "spec_from_table",
    "table_id",
    "table_json",
    "table_path",
]

#: Bump when the table payload shape changes (folded into the id, so
#: old-shape files can never be loaded as new-shape tables).
TABLE_SCHEMA = 1

#: Subdirectory of the result cache root where tables are stored.
TABLE_DIR = "predict"


def default_holdout(seed_count: int) -> int:
    """The default holdout split: a quarter of the seeds, at least 1."""
    return max(1, seed_count // 4)


def table_id(spec: CampaignSpec, holdout_count: int) -> str:
    """The 16-hex content id of the table these inputs build."""
    payload = json.dumps(
        {
            "holdout_count": holdout_count,
            "model_version": MODEL_VERSION,
            "table": spec.to_dict(),
            "table_schema": TABLE_SCHEMA,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def content_digest(table: dict) -> str:
    """16-hex digest of a table's canonical bytes (id-excluded field).

    The table *id* names the build inputs; the content digest seals
    the build *outputs* — every cell, bound, and verdict — so a
    hand-edited calibration cannot serve under a legitimate id.
    """
    body = {k: v for k, v in table.items() if k != "content_digest"}
    payload = json.dumps(body, sort_keys=True)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


def spec_from_table(table: dict) -> CampaignSpec:
    """The build spec embedded in a table, as a real spec."""
    return CampaignSpec.from_dict(table["spec"])


def _cell(
    spec: CampaignSpec,
    cache: ResultCache,
    params: RouterTimingParameters,
    holdout_count: int,
) -> dict:
    """Assemble one grid cell from the completed campaign's cache."""
    jobs = spec.jobs_for_point(params)
    fit_jobs = jobs[: spec.seed_count - holdout_count]
    holdout_jobs = jobs[spec.seed_count - holdout_count :]

    def family(members):
        observed: list[float] = []
        censored = 0
        for job in members:
            result = cache.get(job)
            if result is None:
                raise ValueError(
                    f"campaign incomplete: job {job.cache_key()[:12]} "
                    f"missing from cache {cache.root}"
                )
            t = result.terminal_time(job)
            if t is None:
                censored += 1
            else:
                observed.append(t)
        return observed, censored

    fit_observed, fit_censored = family(fit_jobs)
    holdout_observed, holdout_censored = family(holdout_jobs)
    markov_rounds, fraction = markov_expected_rounds(params, spec.direction)
    dominant = in_phase(fraction, spec.direction)
    round_length = params.round_length
    fit_mean = fmean(fit_observed) if fit_observed else None
    pred_rounds = fit_mean / round_length if fit_mean is not None else None
    correction = (
        pred_rounds / markov_rounds
        if pred_rounds is not None
        and markov_rounds not in (0.0, float("inf"))
        else None
    )
    bound = (
        cell_bound(fit_mean, holdout_observed, fit_observed)
        if fit_mean is not None
        else None
    )
    valid = (
        dominant
        and fit_censored == 0
        and holdout_censored == 0
        and markov_rounds != float("inf")
        and pred_rounds is not None
        and bound is not None
    )
    return {
        "n_nodes": params.n_nodes,
        "tp": params.tp,
        "tc": params.tc,
        "tr": params.tr,
        "tc_ratio": params.tc / params.tp,
        "tr_ratio": params.tr / params.tp,
        "markov_rounds": None if markov_rounds == float("inf") else markov_rounds,
        "phase_fraction": fraction,
        "in_phase": dominant,
        "fit": {
            "seeds": len(fit_jobs),
            "observed": len(fit_observed),
            "censored": fit_censored,
            "mean_seconds": fit_mean,
        },
        "holdout": {
            "seeds": len(holdout_jobs),
            "observed": len(holdout_observed),
            "censored": holdout_censored,
            "mean_seconds": fmean(holdout_observed) if holdout_observed else None,
        },
        "pred_rounds": pred_rounds,
        "correction": correction,
        "bound_rel": bound,
        "valid": valid,
    }


def build_table(
    spec: CampaignSpec,
    cache: ResultCache | None = None,
    *,
    holdout_count: int | None = None,
    run: bool = True,
    dispatcher: Dispatcher | None = None,
    checkpoint_root: str | os.PathLike | None = None,
    console: Callable[[str], None] | None = None,
) -> dict:
    """Build (or assemble) the prediction table for one campaign spec.

    With ``run=True`` (default) the campaign is executed first through
    :func:`~repro.campaign.run.run_campaign` — idempotent, so a study
    already retired (by any mix of shards and dispatchers into the
    same cache) executes nothing.  ``run=False`` assembles from the
    cache alone and raises if any job is missing.

    The spec must hold a single ``tp`` value: the table's axes are the
    dimensionless ratios ``Tc/Tp`` and ``Tr/Tp``, which only form a
    clean grid over one base period.
    """
    if cache is None:
        cache = ResultCache()
    if len(spec.tp) != 1:
        raise ValueError(
            "prediction tables need a single-tp spec (the table axes "
            f"are Tc/Tp and Tr/Tp); got tp={list(spec.tp)}"
        )
    if holdout_count is None:
        holdout_count = default_holdout(spec.seed_count)
    if not 1 <= holdout_count < spec.seed_count:
        raise ValueError(
            f"holdout_count must be in [1, seed_count); got "
            f"{holdout_count} of {spec.seed_count} seed(s)"
        )
    if run:
        summary = run_campaign(
            spec,
            dispatcher=dispatcher,
            cache=cache,
            checkpoint_root=checkpoint_root,
            console=console,
        )
        if not summary.complete:
            raise ValueError(
                f"campaign {summary.campaign_id} did not complete; "
                "cannot calibrate a table from a partial study"
            )
    tp = spec.tp[0]
    n_axis = sorted(spec.n_nodes)
    tc_axis = sorted(spec.tc)
    tr_axis = sorted(spec.tr)
    cells = [
        _cell(spec, cache, RouterTimingParameters(n, tp, tc, tr), holdout_count)
        for n in n_axis
        for tc in tc_axis
        for tr in tr_axis
    ]
    table = {
        "table_schema": TABLE_SCHEMA,
        "table_id": table_id(spec, holdout_count),
        "model_version": MODEL_VERSION,
        "campaign_id": spec.campaign_id(),
        "spec": spec.to_dict(),
        "holdout_count": holdout_count,
        "tp": tp,
        "direction": spec.direction,
        "engine": spec.engine,
        "axes": {
            "n_nodes": n_axis,
            "tc_ratio": [tc / tp for tc in tc_axis],
            "tr_ratio": [tr / tp for tr in tr_axis],
        },
        "cells": cells,
    }
    table["content_digest"] = content_digest(table)
    return table


def table_json(table: dict) -> str:
    """The canonical serialization (the byte-identity surface)."""
    return json.dumps(table, sort_keys=True, indent=1) + "\n"


def table_path(cache_root: str | os.PathLike | None, tid: str) -> Path:
    """Where a table id lives under a cache root."""
    root = Path(cache_root) if cache_root is not None else ResultCache().root
    return root / TABLE_DIR / f"{tid}.json"


def save_table(table: dict, cache_root: str | os.PathLike | None = None) -> Path:
    """Write a table under its content address; returns the path."""
    target = table_path(cache_root, table["table_id"])
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(table_json(table))
    return target


def load_table(path: str | os.PathLike) -> dict:
    """Read and validate one table file.

    Rejects unknown schemas, tables built under a different
    :data:`~repro.parallel.job.MODEL_VERSION` (the stale-surrogate
    case: simulation semantics moved underneath the calibration), and
    files whose recomputed content id disagrees with the stored one.
    """
    source = Path(path)
    try:
        table = json.loads(source.read_text())
    except ValueError as error:
        raise ValueError(f"prediction table {source} is not valid JSON: {error}")
    if not isinstance(table, dict):
        raise ValueError(f"prediction table {source} must be a JSON object")
    if table.get("table_schema") != TABLE_SCHEMA:
        raise ValueError(
            f"prediction table {source} has schema "
            f"{table.get('table_schema')!r}; this build reads {TABLE_SCHEMA}"
        )
    if table.get("model_version") != MODEL_VERSION:
        raise ValueError(
            f"prediction table {source} was calibrated under model "
            f"version {table.get('model_version')!r}; the current model "
            f"is {MODEL_VERSION!r} — rebuild with 'predict build'"
        )
    expected = table_id(spec_from_table(table), table["holdout_count"])
    if table.get("table_id") != expected:
        raise ValueError(
            f"prediction table {source} id {table.get('table_id')!r} does "
            f"not match its build inputs (expected {expected}); refusing a "
            "tampered or hand-edited table"
        )
    digest = content_digest(table)
    if table.get("content_digest") != digest:
        raise ValueError(
            f"prediction table {source} content digest "
            f"{table.get('content_digest')!r} does not match its cells "
            f"(expected {digest}); refusing a tampered or hand-edited table"
        )
    return table


def resolve_table(
    ref: str | os.PathLike, cache_root: str | os.PathLike | None = None
) -> dict:
    """Load a table by file path or by bare 16-hex id.

    A path that exists wins; otherwise a 16-hex ``ref`` is looked up
    under ``<cache_root>/predict/``.
    """
    candidate = Path(ref)
    if candidate.is_file():
        return load_table(candidate)
    text = str(ref)
    if len(text) == 16 and all(c in "0123456789abcdef" for c in text):
        stored = table_path(cache_root, text)
        if stored.is_file():
            return load_table(stored)
        raise ValueError(
            f"no prediction table {text} under {stored.parent} "
            "(run 'predict build' first)"
        )
    raise ValueError(
        f"prediction table reference {text!r} is neither a file nor a "
        "16-hex table id"
    )
