"""Conservative-dynamics convex optimization with adaptive restarts.

A massive particle released at rest in the force field of a convex objective
picks up kinetic energy exactly equal to the objective decrease; restarting
(zeroing the velocity) at well-chosen instants turns the frictionless flow
into a convergent optimization method.  This package implements the
continuous-time flow with mean-dissipation and kinetic-energy restarts, its
symplectic-Euler discretizations with four restart criteria (smooth and
l1-composite), the Nesterov/FISTA baselines used for comparison, and a
benchmark harness that reproduces the reference experiment families.
"""

from .objectives import (
    CompositeObjective,
    LogisticObjective,
    LogSumExpObjective,
    QuadraticObjective,
    SmoothObjective,
    gen_logistic_instance,
    gen_logsumexp_instance,
    gen_random_quadratic,
    l1_weight_rule,
    logistic_objective,
    logsumexp_objective,
    minimal_norm_subgradient,
    quadratic_objective,
)
from .discrete import (
    RESTART_CRITERIA,
    DivergenceError,
    Trace,
    gradient_descent_run,
    nag_c_restart_run,
    nag_c_run,
    nag_sc_run,
    rcm_run,
    should_restart,
    symplectic_euler_step,
)
from .composite import (
    fista_restart_run,
    fista_run,
    prox_l1,
    rcm_comp_run,
    sign_crossing_projection,
)
from .continuous import (
    ContinuousTrajectory,
    PiecewiseResult,
    RestartEvent,
    default_time_step,
    integrate_conservative,
    kinetic_energy_maxima,
    kinetic_max_restart_time,
    mmd_restart_time,
    quadratic_closed_form,
    quadratic_fixed_interval_decrease,
    restart_time_lower_bound,
    restart_time_upper_bound,
    run_piecewise_conservative,
    small_time_energy_check,
    visiting_time_1d,
)
from .harness import (
    ExperimentConfig,
    ResultRow,
    build_instance,
    estimate_fstar,
    read_csv,
    run_experiment,
    write_csv,
    write_report,
)

__version__ = "0.1.0"
