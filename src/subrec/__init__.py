"""Recurrence times of cylinder sets in Sturmian and substitution subshifts.

The library builds infinite words (substitution fixed points, composition
towers, Sturmian codings), measures how fast their cylinder sets recur,
and cross-validates everything against an exact model of the underlying
circle rotation.
"""

from types import ModuleType as _Module

from .contfrac import (
    CFExpansion,
    InsufficientCoefficients,
    NonPeriodic,
    parse_cf,
    quadratic_of_cf,
)
from .generators import (
    FixedPointSource,
    FixedTextSource,
    KappaSource,
    Morphism,
    NotProlongable,
    PeriodicSource,
    RotationCodingSource,
    SequenceTooShort,
    ShiftedSource,
    StandardWordSource,
    WordSource,
    as_source,
    gamma,
    kappa_image_lengths,
    kappa_images,
    kappa_prefix,
    parse_kappa,
    rho,
    thue_morse,
)
from .quadratic import ONE, ZERO, QuadraticReal
from .recurrence import (
    DEFAULT_POLICY,
    LRReport,
    RateSeries,
    ReturnTableRow,
    SubInvarianceReport,
    TauResult,
    WindowCapExceeded,
    WindowPolicy,
    lr_constant_estimate,
    power_report,
    rate_series,
    return_table,
    sub_invariance_check,
    tau_cylinder,
)
from .rotation import (
    CrossCheckReport,
    CrossCheckRow,
    IntervalAtom,
    RotationSpec,
    atom_lengths,
    atom_of,
    cross_check,
    cylinder_interval,
    cylinder_measure,
    mu_tower_values,
    partition_points,
    tau_length,
    tau_length_linear,
)
from .words import (
    EmptyPattern,
    InsufficientWindow,
    PowerWitness,
    fractional_power,
    max_power_witness,
    occurrences,
    return_words,
    word_counts,
)
from . import presets

__version__ = "0.1.0"

# the public API: every name imported above, plus the presets module
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and (name == "presets" or not isinstance(value, _Module))
)
