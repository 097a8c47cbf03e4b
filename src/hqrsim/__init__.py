"""Qudit hybrid quantum repeater analysis toolkit."""

from .coherent import NEGLIGIBLE_NORM, norm_constants, ring_states
from .detection import DetectionReport, homodyne_report, usd_bound
from .logic import purify_step
from .rates import (RateResult, RepeaterConfig, effective_probability,
                    monte_carlo_waiting, predict, purification_chain, z_attempts)
from .states import ChannelParams, PhaseMixtureWeights, loss_weights, negativity_scan

__version__ = "0.1.0"


def __getattr__(name):  # PEP 562: the benchmark tables load on first use, uncached
    if name == "reproduce_table":
        from .tables import reproduce_table
        return reproduce_table
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
