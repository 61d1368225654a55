"""The names the benchmark in ``perfbench/`` looks up in blockmonte.

perfbench's tracer wraps each call site of ``layers._sites()`` by name, and
its oracles import a few helpers; a refactor that drops one would leave a
layer untraced or an oracle broken with no test under ``tests/`` failing.
These tests read perfbench and change nothing in it.
"""

import importlib
import math
from pathlib import Path

from blockmonte import estimators, geometry
from blockmonte.stats import CONSTANTS

# Sites whose call no longer exists in the program (ROADMAP item 1).
KNOWN_MISSING = {
    ("rng.permutation_block", "RngStream"),
    ("mechanics.dropper_permutation_block", "blockmonte.estimators"),
    ("geometry.rasterize_circle", "blockmonte.estimators"),
}


def test_every_traced_site_resolves_but_the_known_missing(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    sites = layers._sites()
    missing = {(layer, getattr(owner, "__name__", "dict"))
               for layer, owner, attribute, _ in sites
               if (owner.get(attribute) if isinstance(owner, dict)
                   else getattr(owner, attribute, None)) is None}
    assert missing <= KNOWN_MISSING


def test_the_names_perfbench_oracles_import_resolve():
    assert estimators.reference_zeta(2) == math.pi ** 2 / 6
    assert math.isclose(estimators.reference_zeta(3), CONSTANTS.zeta3, rel_tol=1e-15)
    assert len(geometry.rasterize_circle(1).inside_cells) == 5
    # column x's height is f(x + 0.5) rounded half away from zero
    curve = geometry.rasterize_curve(estimators.parse_function("x"), 0, 4)
    assert curve.signed_column_area() == 1 + 2 + 3 + 4
