"""Anytime-valid confidence sequences for streams with a bounded p-th moment.

Two constructions over i.i.d. (or conditionally mean-constant) data with
E|X - mu|^p <= v_p, p in (1, 2]:

* catoni_cs -- influence-function band inversion; O(log t / t^((p-1)/p))
  width with O(log(1/alpha)) confidence dependence.
* dubins_savage -- L_p Dubins-Savage maximal inequality; simpler, with
  O(alpha^(-1/p)) confidence dependence.

lower_bound holds the p = 2 iterated-logarithm width floor, harness the
Monte Carlo coverage/width experiments, cli the command-line front end.
The package root exports only the quick-start API; every other name is
imported from its module.
"""

from .catoni_cs import CatoniConfig, interval, new_state, update
from .dubins_savage import DsConfig, DsState, ds_interval, ds_update
from .schedules import power_law

__version__ = "0.1.0"

__all__ = [
    "CatoniConfig",
    "DsConfig",
    "DsState",
    "ds_interval",
    "ds_update",
    "interval",
    "new_state",
    "power_law",
    "update",
]
