"""Qudit hybrid quantum repeater analysis toolkit."""

from .coherent import NEGLIGIBLE_NORM, norm_constants, ring_states
from .detection import DetectionReport, homodyne_report, usd_bound
from .logic import purify_step
from .numerics import DensityMatrix
from .rates import (RateResult, RepeaterConfig, effective_probability,
                    monte_carlo_waiting, predict, purification_chain, z_attempts)
from .states import ChannelParams, PhaseMixtureWeights, loss_weights, negativity_scan
from .tables import reproduce_table

__version__ = "0.1.0"
