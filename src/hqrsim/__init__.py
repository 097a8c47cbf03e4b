"""Qudit hybrid quantum repeater analysis toolkit."""

from .coherent import NEGLIGIBLE_NORM, norm_constants, ring_states
from .states import ChannelParams, PhaseMixtureWeights, loss_weights, negativity_scan

__version__ = "0.1.0"

_LAZY = {**dict.fromkeys(("DetectionReport", "homodyne_report", "usd_bound"), "detection"),
         "purify_step": "logic", "reproduce_table": "tables",
         **dict.fromkeys(("RateResult", "RepeaterConfig", "effective_probability",
                          "monte_carlo_waiting", "predict", "purification_chain", "z_attempts"),
                         "rates")}


def __getattr__(name):  # PEP 562: a _LAZY name's module loads on first use; nothing is cached
    if name in _LAZY:  # __import__, unlike importlib.import_module, shows in -X importtime
        return getattr(__import__(f"{__name__}.{_LAZY[name]}", fromlist=[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
