"""The Section 5 Markov chain model and its analysis."""

from .calibration import estimate_f2_diffusion
from .chain import BirthDeathChain
from .critical import critical_tr, fraction_unsynchronized_at
from .equilibrium import (
    RandomizationRegion,
    classify_randomization,
    fraction_unsynchronized_sweep,
    fraction_unsynchronized_vs_nodes,
    transition_sharpness,
)
from .hitting_times import (
    SynchronizationTimes,
    conditional_step_rounds,
    conditional_step_rounds_paper_printed,
    f_values,
    f_values_paper_recursion,
    g_values,
    g_values_paper_recursion,
    synchronization_times,
)
from .transitions import (
    breakup_probability,
    build_chain,
    cluster_drift_per_round,
    growth_probability,
)

__all__ = [
    "estimate_f2_diffusion",
    "BirthDeathChain",
    "critical_tr",
    "fraction_unsynchronized_at",
    "RandomizationRegion",
    "classify_randomization",
    "fraction_unsynchronized_sweep",
    "fraction_unsynchronized_vs_nodes",
    "transition_sharpness",
    "SynchronizationTimes",
    "conditional_step_rounds",
    "conditional_step_rounds_paper_printed",
    "f_values",
    "f_values_paper_recursion",
    "g_values",
    "g_values_paper_recursion",
    "synchronization_times",
    "breakup_probability",
    "build_chain",
    "cluster_drift_per_round",
    "growth_probability",
]
