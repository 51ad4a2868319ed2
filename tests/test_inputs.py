"""The one rule for scalar inputs (:mod:`helixdipoles.errors`), at every site.

A value that is not a real number, not finite or out of range raises the
package's own error type at the entry point that takes it, never a bare
``TypeError``; through :func:`helixdipoles.cli.run` it ends as exit 2 or 3
with a ``metadata.txt`` record.
"""

import dataclasses
import math
import numbers
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helixdipoles.cli import RunConfig, run
from helixdipoles.errors import (DimensionError, GeometryError, GridError, check_positive,
                                 is_integer, is_real)
from helixdipoles.linalg import Solution, SymmetricSparseOperator, lowest_eigenpairs
from helixdipoles.potential import (energy_unit_joules, find_minima, validate_coupling,
                                    validate_geometry)
from helixdipoles.threebody import WedgeGrid2D, default_box
from helixdipoles.twobody import Grid1D, assemble_hamiltonian_1d, extend_full_line

#: Not a real number, not finite, negative, or beyond the float range: refused everywhere.
BAD = ["1", None, True, 1j, math.nan, math.inf, -math.inf, -1, 10**400]


def _chain(n=8):
    """A free n-node chain: tridiagonal, so k=1 takes the banded solve."""
    index = np.pad(np.arange(n, dtype=np.int32), 1, constant_values=-1)
    return SymmetricSparseOperator.on_lattice(index, 1.0, np.zeros(n))


def _pair():
    """The two lowest two-body levels on a 49-node box."""
    grid = Grid1D(10.0, 0.2)
    return Solution(grid, lowest_eigenpairs(assemble_hamiltonian_1d(grid, 1.0, 1.0), 2))


#: site: (call with the value, error type, whether zero is accepted)
SCALARS = {
    "Grid1D-phi_max": (lambda v: Grid1D(v), GridError, False),  # the default spacing
    "from_spacing-phi_max": (lambda v: Grid1D(v, 0.1), GridError, False),  # a spacing given
    "Grid1D-spacing": (lambda v: Grid1D(10.0, v), GridError, False),
    "WedgeGrid2D-x_max": (lambda v: WedgeGrid2D(v, 16.0, 0.4), GridError, False),
    "WedgeGrid2D-y_max": (lambda v: WedgeGrid2D(12.0, v, 0.4), GridError, False),
    "WedgeGrid2D-spacing": (lambda v: WedgeGrid2D(12.0, 16.0, v), GridError, False),
    "energy_unit_joules-mass_kg": (lambda v: energy_unit_joules(v, 1e-6, 1.0), ValueError, False),
    "energy_unit_joules-radius_m": (lambda v: energy_unit_joules(2.2e-25, v, 1.0), ValueError,
                                    False),
    "energy_unit_joules-ratio": (lambda v: energy_unit_joules(2.2e-25, 1e-6, v), GeometryError,
                                 False),
    "validate_geometry-ratio": (validate_geometry, GeometryError, False),
    "find_minima-ratio": (lambda v: find_minima(v, 1), GeometryError, False),
    "validate_coupling-beta": (lambda v: validate_coupling(v, 1.0), ValueError, True),
    "default_box-beta": (default_box, ValueError, True),
}

#: count site: (call with the value, error type, whether zero is accepted)
COUNTS = {
    "find_minima-max_windings": (lambda v: find_minima(1.0, v), ValueError, False),
    "check_request-k": (lambda v: lowest_eigenpairs(_chain(), v), DimensionError, False),
    "check_request-seed": (lambda v: lowest_eigenpairs(_chain(), 1, seed=v), ValueError, True),
    "wavefunction-state": (lambda v: _pair().wavefunction(v), DimensionError, True),
}


def _cases(sites, extra):
    for site, (call, error, zero_ok) in sites.items():
        for value in BAD + extra + ([] if zero_ok else [0]):
            yield pytest.param(call, error, site.split("-", 1)[1], value, id=f"{site}-{value!r}")


@pytest.mark.parametrize("call, error, name, value",
                         [*_cases(SCALARS, [np.float64(-2.0)]), *_cases(COUNTS, [2.5])])
def test_bad_input_raises_the_package_error(call, error, name, value):
    # pytest.raises lets any other type through, a TypeError included; the
    # message names the field refused
    with pytest.raises(error, match=rf"\b{name}\b"):
        call(value)


def test_a_state_beyond_those_computed_is_a_dimension_error():
    sol = _pair()
    assert sol.wavefunction(np.int64(1)).tobytes() == sol.wavefunction(1).tobytes()
    with pytest.raises(DimensionError, match=r"^state 2 >= k=2$"):
        sol.wavefunction(2)
    with pytest.raises(DimensionError):
        extend_full_line(sol, "boson", -2)


@pytest.mark.parametrize("value", [v for v in BAD if v is not None and not is_real(v)])
def test_estimate_is_none_or_a_real_number(value):
    # NaN, +-inf and any real guess stay accepted: they fall back to the Gershgorin shift
    with pytest.raises(ValueError, match=r"^estimate must be a real number or None, got "):
        lowest_eigenpairs(_chain(), 1, estimate=value)


@pytest.mark.parametrize("value", [v for v in BAD
                                   if v is not None and not (is_real(v) and math.isfinite(v))])
def test_an_energy_to_count_below_is_a_finite_real_number(value):
    with pytest.raises(ValueError, match=r"^below must be a finite real number, got "):
        lowest_eigenpairs(_chain(), 1, below=value)


@pytest.mark.parametrize("build", [lambda: Grid1D(1e300, 1e-10),
                                   lambda: WedgeGrid2D(1e300, 16.0, 1e-10)],
                         ids=["Grid1D", "WedgeGrid2D"])
def test_a_cell_count_beyond_the_float_range_is_a_grid_error(build):
    with pytest.raises(GridError,
                       match=r"^box 1e\+300 / spacing 1e-10 overflows the cell count$"):
        build()


def test_the_rule_accepts_numpy_numbers_and_names_the_value():
    check_positive(ValueError, a=np.float32(0.5), b=3, c=np.int64(2))
    check_positive(ValueError, allow_zero=True, a=0, b=-0.0)
    with pytest.raises(GridError, match=r"^spacing must be finite and > 0, got '0.1'$"):
        check_positive(GridError, x_max=1.0, spacing="0.1")
    with pytest.raises(ValueError, match=r"^beta must be finite and >= 0, got "):
        check_positive(ValueError, allow_zero=True, beta=np.True_)
    assert is_integer(np.int64(3)) and not is_integer(True) and not is_integer(3.0)


#: RunConfig field: (settings that reach it, exit code); every value of BAD_FIELD
#: is refused before any solve
FIELDS = {
    "beta": ({}, 2),
    "beta-three-body": ({"problem": "three-body"}, 2),
    "ratio": ({}, 3),
    "ratio-joules": ({"mass_kg": 2.2e-25, "radius_m": 1e-6}, 3),
    "box_length": ({}, 2),
    "spacing_1d": ({}, 2),
    "x_max": ({"problem": "three-body"}, 2),
    "y_max": ({"problem": "three-body"}, 2),
    "spacing_2d": ({"problem": "three-body"}, 2),
    "phi_max": ({"problem": "potential"}, 2),
    "n_samples": ({"problem": "potential"}, 2),
    "mass_kg": ({"radius_m": 1e-6}, 2),
    "radius_m": ({"mass_kg": 2.2e-25}, 2),
    "sample_extent": ({"problem": "three-body", "symmetrize": True}, 2),
    "sample_spacing": ({"problem": "three-body", "symmetrize": True}, 2),
}
BAD_FIELD = ["1", None, True, math.nan, -1.0]
AUTO = ("x_max", "y_max", "spacing_2d")  # where None is "auto", a valid box


@pytest.mark.parametrize("case, value", [
    *[(case, value) for case in FIELDS for value in BAD_FIELD
      if not (value is None and case in AUTO)], ("n_samples", 2.5),
    # valid alone, but the energy unit leaves the float range
    ("mass_kg", 1e-320), ("radius_m", 1e200)])
def test_bad_run_config_is_recorded(case, value, tmp_path):
    settings, code = FIELDS[case]
    cfg = RunConfig(out_dir=str(tmp_path), **settings, **{case.split("-")[0]: value})
    assert run(cfg) == code
    meta = (tmp_path / "metadata.txt").read_text().splitlines()
    assert f"status = {'geometry_error' if code == 3 else 'config_error'}" in meta
    assert not list(tmp_path.glob("*.csv"))


#: RunConfig field: small valid values; every valid draw solves on a tiny grid
#: (the three-body box is 12 x 16 at h = 0.4, with the clearance check off)
VALID = {
    "ratio": [1.0, np.float64(0.5)], "beta": [1.0, 2],
    "box_length": [10.0, 12], "spacing_1d": [0.2, 0.1],
    "x_max": [12.0, None], "y_max": [16.0, None], "spacing_2d": [0.4],
    "k_states": [1, np.int64(2)], "seed": [0, np.int64(7)],
    "phi_max": [5.0, 20.0], "n_samples": [10, np.int64(7)],
    "sample_extent": [1.0], "sample_spacing": [0.5],
    "mass_kg": [0.0, 2.2e-25], "radius_m": [0.0, 1e-6],
}
HOSTILE = ["1", None, True, 1j, math.nan, math.inf, -math.inf, -1, 10**400,
           np.float64(-2.0), np.True_]
#: Couplings a scan solves, or records as a failed row (the last three)
COUPLINGS = [0.5, 2, np.float32(0.25), 7.5, 12.5, -1.0, math.nan, math.inf]
STATUS = {0: "ok", 2: "config_error", 3: "geometry_error", 4: "not_converged"}


@st.composite
def run_configs(draw):
    fields = {name: draw(st.sampled_from(values)) for name, values in VALID.items()}
    for name in draw(st.lists(st.sampled_from(sorted(VALID)), max_size=2, unique=True)):
        # None is a valid "auto" box, so it is not hostile there
        fields[name] = draw(st.sampled_from([v for v in HOSTILE
                                             if v is not None or name not in AUTO]))
    couplings = st.one_of(st.lists(st.sampled_from(COUPLINGS[:5]), min_size=4, max_size=5),
                          st.lists(st.sampled_from(COUPLINGS + HOSTILE), max_size=4)).map(tuple)
    return RunConfig(problem=draw(st.sampled_from(["potential", "two-body", "three-body",
                                                   "scan", "fit"])),
                     betas=draw(couplings), product_betas=draw(couplings),
                     statistics=draw(st.sampled_from(["boson", "fermion"])),
                     symmetrize=draw(st.booleans()), emit_full_line=draw(st.booleans()),
                     allow_small_box=True, **fields)


def _tiny(**settings):
    return RunConfig(**{"box_length": 10.0, "spacing_1d": 0.2, "k_states": 1, **settings})


@settings(derandomize=True, deadline=None, max_examples=80)
@given(run_configs())
@example(_tiny(box_length=10**400))
@example(_tiny(problem="scan", betas=("1", 0.5)))
@example(_tiny(problem="scan", betas=(None, 0.5)))
@example(_tiny(problem="scan", betas=(10**400, 0.5)))
@example(_tiny(box_length=1e300, spacing_1d=1e-10))
@example(RunConfig(problem="three-body", x_max=1e300, spacing_2d=1e-10, allow_small_box=True))
@example(_tiny(problem="fit", betas=(0.0, 5.0, 10.0, 15.0)))
@example(RunConfig(problem="nope"))
# energy units beyond the float range: a zero denominator, an overflowing alpha**2
@example(_tiny(mass_kg=1e-300, radius_m=1e-300))
@example(_tiny(mass_kg=2.2e-25, radius_m=1e200))
@example(_tiny(mass_kg=1e-320, radius_m=1e-6))
def test_run_never_raises_and_records_its_status(cfg):
    with tempfile.TemporaryDirectory() as out:
        cfg = dataclasses.replace(cfg, out_dir=out)
        code = run(cfg)
        assert code in STATUS
        meta = (Path(out) / "metadata.txt").read_text().splitlines()
        assert f"status = {STATUS[code]}" in meta
        if code != 0:  # a failed run writes no data file
            assert not list(Path(out).glob("*.csv"))
        if code == 0:  # the echoed settings read back as the ones given
            names = {f.name for f in dataclasses.fields(RunConfig)}
            echoed = {k: v for k, v in (line.split(" = ", 1) for line in meta) if k in names}
            parsed = RunConfig.from_items(echoed)
            for name in echoed:
                np.testing.assert_equal(getattr(parsed, name), getattr(cfg, name), err_msg=name)
        if code == 0 and cfg.problem == "scan" and cfg.betas:
            # only real couplings are solved, each written as its own float
            assert all(isinstance(b, numbers.Real) and not isinstance(b, bool)
                       for b in cfg.betas)
            lines = (Path(out) / "scan.csv").read_text().splitlines()[1:]
            assert [line.split(",")[0] for line in lines] == [
                f"{float(b):.12g}" for b in cfg.betas]
