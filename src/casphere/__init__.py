"""Finite-temperature Casimir free energy and force for a sphere facing a
plane: exact scattering-matrix evaluation, proximity force approximation,
and closed-form low/high-temperature limits, with cross-validation between
all three."""

from .kernel import Geometry, FieldSpec
from .trlog import Truncation, MBlockMatrix
from .freeenergy import (EnergyResult, matsubara_free_energy, vacuum_energy,
                         thermal_part, force)
from .pfa import (PlatePoint, parallel_plates_free_energy, g_function,
                  h_function, pfa_free_energy, pfa_force, pfa_thermal_force,
                  pfa_regime)
from .asympt import ExpansionResult, low_t_thermal, high_t_f0

__all__ = [
    "Geometry", "FieldSpec", "Truncation", "MBlockMatrix", "EnergyResult",
    "matsubara_free_energy", "vacuum_energy", "thermal_part", "force",
    "PlatePoint", "parallel_plates_free_energy", "g_function", "h_function",
    "pfa_free_energy", "pfa_force", "pfa_thermal_force", "pfa_regime",
    "ExpansionResult", "low_t_thermal", "high_t_f0",
]

__version__ = "0.1.0"
