"""Kuramoto dynamics and circle-valued harmonic maps on self-similar graphs.

Build gasket/ring approximating graphs, solve discrete Dirichlet
problems, compute winding numbers of phase fields, construct harmonic
maps of prescribed degree through covering-space fundamental domains, and
verify that stable Kuramoto equilibria converge to those maps.
"""

from .covering import (CoveringDomain, CutSpec, LiftField, circle_harmonic_map,
                       covering_domain, extend_lift, minimize_constrained,
                       neumann_check, project_to_circle, select_cut_vertices)
from .dirichlet import (EnergyReport, dirichlet_energy, extend_corners,
                        holder_ratio, laplacian, normal_derivative,
                        solve_dirichlet)
from .errors import (ConjugateGradientError, ConstraintViolationError,
                     DegreeClosureError, DegreeMismatchError,
                     EigensolverError, NotAnEquilibriumError,
                     UncertifiedFactorError, UnresolvedWindingError)
from .graphs import (FRACTALS, CellMap, Fractal, FractalGraph, build_graph,
                     build_ring_graph, build_sg_graph, restrict)
from .kuramoto import (EquilibriumReport, FlowConfig, circle_distance,
                       half_twisted_state, hessian_stability,
                       integrate_to_equilibrium, km_energy, km_rhs,
                       solve_equilibrium, twisted_state)
from .structures import generic_harmonic_map
from .winding import DegreeVector, degree, wrap_phases

__version__ = "0.1.0"
