"""The library names the benchmark reaches still resolve.

bench/tracer.py wraps callables by name and reports a missing one as
absent instead of failing, so a rename in src/ would quietly drop its
per-layer metrics; bench/workloads.py calls library attributes directly.
These tests only read the files under bench/: they parse them, and import
nothing from there.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"

# (module, attribute path) as bench/workloads.py spells them
WORKLOAD_NAMES = [
    ("subrec.rotation", "RotationSpec.from_cf"),
    ("subrec.rotation", "atom_lengths"),
    ("subrec.rotation", "tau_length"),
    ("subrec.rotation", "tau_length_linear"),
    ("subrec.rotation", "cylinder_measure"),
    ("subrec.rotation", "mu_tower_values"),
    ("subrec.generators", "RotationCodingSource"),
    ("subrec.presets", "PRESET_CF"),
    ("subrec.presets", "golden_kappa_steps"),
    ("subrec.presets", "sqrt2_kappa_steps"),
    ("subrec.cli", "main"),
]


def assigned(path: Path, name: str):
    """The literal value a module assigns to `name` at top level."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError("%s assigns no %s" % (path.name, name))


def resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("span", assigned(BENCH / "tracer.py", "SPANS"), ids=lambda s: s[0])
def test_tracer_span_resolves(span):
    _, _, module, attr = span
    assert callable(resolve(module, attr))


def test_a_tracer_builder_resolves():
    builders = assigned(BENCH / "tracer.py", "BUILDERS")
    generators = importlib.import_module("subrec.generators")
    assert any(callable(getattr(generators, name, None)) for name in builders)


@pytest.mark.parametrize("module, dotted", WORKLOAD_NAMES, ids=lambda x: x)
def test_workload_name_resolves(module, dotted):
    short = module.rsplit(".", 1)[1]
    assert "%s.%s" % (short, dotted) in (BENCH / "workloads.py").read_text()
    assert resolve(module, dotted) is not None
