"""Qudit hybrid quantum repeater analysis toolkit."""

from .coherent import (NEGLIGIBLE_NORM, RingSpec, gram_matrix, norm_constants,
                       norm_constants_closed_form, overlap, ring_to_orthonormal)
from .detection import (DetectionReport, WindowSet, homodyne_report,
                        offdiag_weight, quadrature_pdf, quadrature_wavefunction,
                        usd_bound, window_geometry)
from .logic import (BellLabel, BellMeasurement, bell_measure, bell_state,
                    cshift_decomposition_check, cshift_matrix, gates,
                    phase_bell_state, purify_circuit_sim, purify_step,
                    swap_phase_mixture)
from .numerics import DensityMatrix, fidelity_with_pure, negativity, partial_transpose
from .rates import (RateResult, RepeaterConfig, effective_probability,
                    monte_carlo_attempts, monte_carlo_waiting, predict,
                    purification_chain, reproduce_table, z_attempts,
                    z_attempts_series)
from .states import (ChannelParams, HybridPureState,
                     MatterMatterMixture, PhaseMixtureWeights, loss_weights,
                     matter_light_mixture, matter_light_pure,
                     matter_matter_components, negativity_scan)

__version__ = "0.1.0"
