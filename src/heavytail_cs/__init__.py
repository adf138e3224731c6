"""Anytime-valid confidence sequences for streams with a bounded p-th moment.

Two constructions over i.i.d. (or conditionally mean-constant) data with
E|X - mu|^p <= v_p, p in (1, 2]:

* catoni_cs -- influence-function band inversion; O(log t / t^((p-1)/p))
  width with O(log(1/alpha)) confidence dependence.
* dubins_savage -- L_p Dubins-Savage maximal inequality; simpler, with
  O(alpha^(-1/p)) confidence dependence.

lower_bound holds the p = 2 iterated-logarithm width floor, harness the
Monte Carlo coverage/width experiments, cli the command-line front end.
"""

from .catoni_cs import (
    CatoniConfig,
    CatoniState,
    epsilon_n,
    interval,
    new_state,
    psi_sum,
    supermartingale,
    update,
    width_bound,
)
from .dubins_savage import DsConfig, DsState, ds_interval, ds_tail_bound, ds_update, ds_width, m_p
from .harness import (
    CoverageReport,
    DistributionSpec,
    WidthReport,
    centered_pareto,
    gaussian,
    run_coverage,
    run_width,
    sample_stream,
    student_t,
    true_vp,
    two_point,
)
from .influence import InfluenceFunction, catoni_constant, make_influence
from .interval import ConfidenceInterval
from .lower_bound import LilConfig, lil_floor, theta_n, y_variance_check
from .schedules import LambdaSchedule, PrefixSums, custom_list, power_law

__version__ = "0.1.0"

__all__ = [
    "CatoniConfig",
    "CatoniState",
    "ConfidenceInterval",
    "CoverageReport",
    "DistributionSpec",
    "DsConfig",
    "DsState",
    "InfluenceFunction",
    "LambdaSchedule",
    "LilConfig",
    "PrefixSums",
    "WidthReport",
    "catoni_constant",
    "centered_pareto",
    "custom_list",
    "ds_interval",
    "ds_tail_bound",
    "ds_update",
    "ds_width",
    "epsilon_n",
    "gaussian",
    "interval",
    "lil_floor",
    "m_p",
    "make_influence",
    "new_state",
    "power_law",
    "psi_sum",
    "run_coverage",
    "run_width",
    "sample_stream",
    "student_t",
    "supermartingale",
    "theta_n",
    "true_vp",
    "two_point",
    "update",
    "width_bound",
    "y_variance_check",
]
