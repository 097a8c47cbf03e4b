"""Qudit hybrid quantum repeater analysis toolkit."""

from .coherent import NEGLIGIBLE_NORM, norm_constants, ring_states
from .detection import (DetectionReport, WindowSet, homodyne_report,
                        quadrature_wavefunction, usd_bound, window_geometry)
from .logic import purify_step
from .numerics import DensityMatrix
from .rates import (RateResult, RepeaterConfig, effective_probability,
                    monte_carlo_waiting, predict, purification_chain,
                    reproduce_table, z_attempts)
from .states import ChannelParams, PhaseMixtureWeights, loss_weights, negativity_scan

__version__ = "0.1.0"
