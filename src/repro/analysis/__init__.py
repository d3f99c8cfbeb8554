"""Measurement analysis: autocorrelation, outages, coherence, ASCII plots."""

from .asciiplot import line, log_safe, scatter
from .autocorrelation import autocorrelation, dominant_lag, fill_losses
from .coherence import offsets_to_phases, order_parameter
from .outages import Outage, extract_outages, loss_rate_in_windows, periodic_spike_lags

__all__ = [
    "line",
    "log_safe",
    "scatter",
    "autocorrelation",
    "dominant_lag",
    "fill_losses",
    "offsets_to_phases",
    "order_parameter",
    "Outage",
    "extract_outages",
    "loss_rate_in_windows",
    "periodic_spike_lags",
]
