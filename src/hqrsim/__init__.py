"""Qudit hybrid quantum repeater analysis toolkit."""

from .coherent import NEGLIGIBLE_NORM, RingSpec, norm_constants, norm_constants_closed_form
from .detection import (DetectionReport, WindowSet, homodyne_report,
                        offdiag_weight, quadrature_wavefunction,
                        usd_bound, window_geometry)
from .logic import purify_step, swap_phase_mixture
from .numerics import DensityMatrix
from .rates import (RateResult, RepeaterConfig, effective_probability,
                    monte_carlo_waiting, predict, purification_chain,
                    reproduce_table, z_attempts)
from .states import (ChannelParams, MatterMatterMixture, PhaseMixtureWeights,
                     loss_weights, matter_matter_components, negativity_scan)

__version__ = "0.1.0"
