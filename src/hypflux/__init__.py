"""Explicit entropy-stable finite-volume solver for systems of
conservation laws on periodic unstructured meshes, with a verification
harness for the scheme's stability functionals (weak-BV sums, discrete
entropy residuals, error-measure masses) and relative-entropy error
convergence."""

from .errors import (AdmissibilityError, ConfigError, ConstructionError,
                     HorizonError, HypfluxError, MeshError)
from .mesh import (Mesh, build_perturbed_quad_2d, build_uniform_1d,
                   build_uniform_quad_2d, regularity_constant, validate_mesh)
from .systems import (AdmissibleSet, StateField, SystemModel, compute_lf,
                      estimate_cz, make_advection, make_burgers,
                      make_friedrichs, make_shallow_water_1d,
                      relative_entropy, relative_entropy_flux, relative_z,
                      validate_system)
from .numflux import (DissipationGapCheck, FluxScheme, InterfaceFluxRecords,
                      InterfaceUpdate, dissipation_gap_check,
                      make_godunov_scalar, make_rusanov,
                      omega_stability_check, sample_wave_speed_sup, x_flux)
from .solver import (RunConfig, StepBlock, Trajectory, cell_means,
                     compute_dt, interface_flux_records, march_blocks,
                     project_initial, run, steps_per_block)
from .diagnostics import (ConvergenceRow, ConvergenceTable, DiagnosticsLedger,
                          ErrorFold, MeasureMasses, accumulate_step,
                          cone_l2_error, fit_rate, measure_masses,
                          measure_scaling_report, projection_masses,
                          reference_cell_means, relative_entropy_norm,
                          squared_l2_cell_error, wbv_scaling_report)
from .reference import (ReferenceSolution, exact_advection, exact_burgers,
                        exact_friedrichs, fine_grid_reference)

__version__ = "0.1.0"
