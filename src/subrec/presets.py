"""Named word sources used by the CLI and the test suite."""

from __future__ import annotations

from .contfrac import CFExpansion, quadratic_of_cf
from .generators import (
    FixedPointSource,
    KappaSource,
    Morphism,
    PeriodicSource,
    RotationCodingSource,
    StandardWordSource,
    WordSource,
    gamma,
    rho,
    thue_morse,
)

GOLDEN_CF = CFExpansion((), (1,))
SQRT2_CF = CFExpansion((), (2,))
# growing partial quotients a_k = k, a finite stand-in for an unbounded
# expansion (the full word is far longer than any window we scan)
UNBOUNDED_CF = CFExpansion(tuple(range(1, 31)))


def _golden_rule(i: int) -> Morphism:
    """Tower steps that generate the golden-angle language.

    First step is 0->011/1->01, all later steps 0->100/1->10; the
    factor-set tests pin this down against the rotation coding.
    """
    return rho(1) if i == 1 else gamma(1)


def _sqrt2_rule(i: int) -> Morphism:
    """Tower steps for the sqrt(2)-1 angle (checked the same way)."""
    return gamma(1) if i == 1 else rho(1)


def _first_steps(rule, n: int) -> list[Morphism]:
    if n < 1:
        raise ValueError("need n >= 1")
    return [rule(i) for i in range(1, n + 1)]


def golden_kappa_steps(n: int) -> list[Morphism]:
    """The first n steps of the golden-angle tower."""
    return _first_steps(_golden_rule, n)


def sqrt2_kappa_steps(n: int) -> list[Morphism]:
    """The first n steps of the sqrt(2)-1 tower."""
    return _first_steps(_sqrt2_rule, n)


_FACTORIES = {
    "periodic01": lambda: PeriodicSource("01"),
    "fibonacci": lambda: StandardWordSource(GOLDEN_CF, "fibonacci"),
    "sqrt2": lambda: StandardWordSource(SQRT2_CF, "sqrt2"),
    "thue-morse": lambda: FixedPointSource(thue_morse(), "0", "thue-morse"),
    "unbounded": lambda: StandardWordSource(UNBOUNDED_CF, "unbounded"),
    "golden-rotation": lambda: RotationCodingSource(
        quadratic_of_cf(GOLDEN_CF), 0, "golden-rotation"
    ),
    "sqrt2-rotation": lambda: RotationCodingSource(
        quadratic_of_cf(SQRT2_CF), 0, "sqrt2-rotation"
    ),
    "golden-kappa": lambda: KappaSource(_golden_rule, "golden-kappa"),
    "sqrt2-kappa": lambda: KappaSource(_sqrt2_rule, "sqrt2-kappa"),
}

# presets with a continued fraction attached (usable for the geometric side)
PRESET_CF = {
    "fibonacci": GOLDEN_CF,
    "sqrt2": SQRT2_CF,
    "unbounded": UNBOUNDED_CF,
    "golden-rotation": GOLDEN_CF,
    "sqrt2-rotation": SQRT2_CF,
    "golden-kappa": GOLDEN_CF,
    "sqrt2-kappa": SQRT2_CF,
}


def preset_names() -> list[str]:
    return sorted(_FACTORIES)


def get_preset(name: str) -> WordSource:
    try:
        return _FACTORIES[name]()
    except KeyError:
        raise ValueError(
            "unknown preset %r (have: %s)" % (name, ", ".join(preset_names()))
        ) from None
