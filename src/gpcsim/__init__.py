"""Stochastic circuit simulation with generalized polynomial chaos.

Netlists with dist= parameter bindings compile to stochastic MNA systems;
the solvers expand every state in an orthonormal polynomial basis of the
germs and propagate the coefficients by stochastic testing (collocated
residuals at selected nodes with a decoupled Newton step), stochastic
Galerkin, tensor-grid collocation, or plain Monte Carlo.
"""

from .basis import (
    Beta,
    Gamma,
    Gaussian,
    GpcBasisSet,
    Uniform,
    build_index_set,
    moments_from_coeffs,
    num_basis,
)
from .circuit import StochasticCircuit, load_circuit
from .collocation import TestingNodeSet, select_testing_nodes
from .engine import NewtonConfig, StepControl
from .netlist import (
    AcAnalysis,
    DcAnalysis,
    DcSweepAnalysis,
    TranAnalysis,
    parse_netlist,
)
from .post import (
    PdfEstimate,
    StatSeries,
    compare_methods,
    pdf_of_expansion,
    stats_over_time,
    write_stats_csv,
)
from .quadrature import gauss_rule, tensor_grid
from .solvers import (
    GpcTrajectory,
    SampleEnsemble,
    mc_solve,
    run_analysis,
    sc_solve,
    sg_solve,
    st_solve,
)

__all__ = [
    "AcAnalysis",
    "Beta",
    "DcAnalysis",
    "DcSweepAnalysis",
    "Gamma",
    "Gaussian",
    "GpcBasisSet",
    "GpcTrajectory",
    "NewtonConfig",
    "PdfEstimate",
    "SampleEnsemble",
    "StatSeries",
    "StepControl",
    "StochasticCircuit",
    "TestingNodeSet",
    "TranAnalysis",
    "Uniform",
    "build_index_set",
    "compare_methods",
    "gauss_rule",
    "load_circuit",
    "mc_solve",
    "moments_from_coeffs",
    "num_basis",
    "parse_netlist",
    "pdf_of_expansion",
    "run_analysis",
    "sc_solve",
    "select_testing_nodes",
    "sg_solve",
    "st_solve",
    "stats_over_time",
    "tensor_grid",
    "write_stats_csv",
]
