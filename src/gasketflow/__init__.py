"""Energy forms, Robin boundary functionals and implicit gradient flows on
level-m approximations of the N-point Sierpinski gasket."""

__version__ = "0.1.0"

from .energy import (
    EnergyForm,
    batch_energy,
    energy,
    energy_profile,
    harmonic_extend,
    harmonic_function,
    inner,
    stiffness_matrix,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainMismatchError,
    GasketflowError,
    ResourceLimitError,
)
from .flow import (
    Ensemble,
    FlowConfig,
    PoissonReport,
    StepDiagnostics,
    Trajectory,
    advance,
    backward_euler_step,
    evolve,
    normal_derivative,
    poisson_solve,
)
from .gasket import (
    GasketGraph,
    VertexFunction,
    build_level,
    restrict,
    simplex_vertices,
    vertex_coordinates,
)
from .measure import MeasureWeights, VertexMeasure, l2_inner, l2_norm, mean, vertex_measure
from .robin import (
    BoundaryFunctional,
    BoxIndicator,
    DirichletIndicator,
    PiecewiseLinearQuadratic,
    Power,
    RobinSpec,
    Zero,
    batch_perturbed_energy,
    dominates_condition,
    functional_from_json,
    perturbed_energy,
    totally_dominates_condition,
)
from .verify import (
    CheckReport,
    SampleConfig,
    builtin_specs,
    check_energy_inequalities,
    check_flow_properties,
    check_locality,
    check_perturbed_criteria,
    check_scalar_inequalities,
    run_suite,
)
