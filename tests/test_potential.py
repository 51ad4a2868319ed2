import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.constants import epsilon_0, hbar

from helixdipoles.errors import CoincidenceError, GeometryError
from helixdipoles.potential import (
    MINIMA_SCAN_STEP,
    RATIO_MAX,
    RATIO_MIN,
    PotentialMinimum,
    energy_unit_joules,
    find_minima,
    reduced_potential,
    reduced_potential_derivative,
    validate_geometry,
)

TWO_PI = 2.0 * math.pi

# independently computed before the build (high-precision scalar arithmetic
# and a 1e-5-step scan of the potential with derivative bisection)
V_AT_PI_RATIO1 = 0.04699652249838978
PHI0_RATIO1 = 6.205131460362926
V0_RATIO1 = -1.018992733362017
PHI0_RATIO16 = 6.0884483115867685
V0_RATIO16 = -0.25602916299203765
LAST_MINIMUM_PHI_RATIO1 = 80.13584519692466
N_MINIMA_RATIO1 = 13


class TestReducedPotential:
    def test_one_winding_exact(self):
        assert reduced_potential(TWO_PI, 1.0) == -1.0
        assert reduced_potential(-TWO_PI, 1.0) == -1.0
        assert reduced_potential(TWO_PI, 1.6) == pytest.approx(-1.0 / 1.6**3, rel=1e-14)

    def test_half_winding(self):
        assert reduced_potential(math.pi, 1.0) == pytest.approx(V_AT_PI_RATIO1, rel=1e-14)

    def test_even(self):
        rng = np.random.default_rng(42)
        phi = rng.uniform(-50.0, 50.0, size=1000)
        phi = phi[np.abs(phi) > 1e-6]
        np.testing.assert_allclose(
            reduced_potential(phi, 1.3), reduced_potential(-phi, 1.3), rtol=1e-14
        )

    @given(st.floats(1e-6, 50.0), st.floats(0.1, 4.0))
    def test_even_property(self, phi, ratio):
        assert reduced_potential(phi, ratio) == pytest.approx(
            reduced_potential(-phi, ratio), rel=1e-14
        )

    def test_coincidence_guard(self):
        with pytest.raises(CoincidenceError):
            reduced_potential(0.0, 1.0)
        with pytest.raises(CoincidenceError):
            reduced_potential(5e-13, 1.0)
        with pytest.raises(CoincidenceError):
            reduced_potential(np.array([1.0, 1e-13]), 1.0)

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0, 4.0])
    def test_short_range_repulsive_below_bound(self, ratio):
        phi = np.linspace(1e-4, 0.01, 200)
        assert np.all(reduced_potential(phi, ratio) > 0.0)

    @pytest.mark.parametrize("ratio", [4.6, 5.0])
    def test_short_range_attractive_above_bound(self, ratio):
        phi = np.linspace(1e-4, 0.01, 200)
        assert np.all(reduced_potential(phi, ratio) < 0.0)

    def test_tail_in_phase(self):
        # at exact winding multiples the cosine term vanishes and the inverse
        # cube tail is already clean just past twenty windings
        for ratio in (0.5, 1.0, 2.0):
            m0 = math.ceil(21.0 / ratio)
            phi = TWO_PI * np.arange(m0, m0 + 20)
            q = ratio * phi / TWO_PI
            assert np.max(np.abs(reduced_potential(phi, ratio) * q**3 + 1.0)) < 1e-3

    def test_tail_law_uniform(self):
        # uniformly over phase the relative deviation is 6*(1-cos)/q^2, which
        # drops below 1% only once q >= 35 (at q = 20 it peaks near 3%)
        rng = np.random.default_rng(7)
        for ratio in (0.5, 1.0, 2.0, 4.0):
            q = rng.uniform(35.0, 80.0, size=2000)
            phi = q * TWO_PI / ratio
            assert np.max(np.abs(reduced_potential(phi, ratio) * q**3 + 1.0)) < 0.01

    def test_derivative_matches_central_difference(self):
        rng = np.random.default_rng(3)
        phi = rng.uniform(0.5, 40.0, size=200)
        h = 1e-6
        for ratio in (1.0, 1.6):
            fd = (reduced_potential(phi + h, ratio) - reduced_potential(phi - h, ratio)) / (2 * h)
            np.testing.assert_allclose(
                reduced_potential_derivative(phi, ratio), fd, rtol=5e-7, atol=1e-10
            )


def helix_position(phi, radius, pitch):
    """3D point (R sin phi, R cos phi, h phi/2pi) of winding angle ``phi`` (test oracle)."""
    return np.array([radius * math.sin(phi), radius * math.cos(phi), pitch * phi / TWO_PI])


def _dipole_energy_3d(pos_i, pos_j, moment):
    """Energy of two dipoles ``moment`` aligned with z, from raw 3D positions (test oracle)."""
    delta = np.asarray(pos_i) - np.asarray(pos_j)
    r = np.linalg.norm(delta)
    cos_theta = delta[2] / r
    return moment**2 / (4.0 * math.pi * epsilon_0 * r**3) * (1.0 - 3.0 * cos_theta**2)


class TestFullPotential:
    """The dimensionful pair energy d^2 / (2 pi eps0 R^3) * V(phi_i - phi_j) is
    the aligned dipole-dipole energy of two points on the helix."""

    radius, pitch = 2.0, 2.5
    ratio = pitch / radius
    moment = 2.0e-30
    # the 3D numerator carries a factor two, so the dimensionful scale is
    # d^2 / (2 pi eps0 R^3), twice the bare d^2 / (4 pi eps0 R^3)
    scale = moment**2 / (2.0 * math.pi * epsilon_0 * radius**3)

    def direct(self, phi_i, phi_j):
        return _dipole_energy_3d(helix_position(phi_i, self.radius, self.pitch),
                                 helix_position(phi_j, self.radius, self.pitch), self.moment)

    def test_matches_3d_formula(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            phi_i, phi_j = rng.uniform(-30.0, 30.0, size=2)
            if abs(phi_i - phi_j) < 1e-3:
                continue
            assert self.scale * reduced_potential(phi_i - phi_j, self.ratio) == pytest.approx(
                self.direct(phi_i, phi_j), rel=1e-12
            )

    def test_translation_and_exchange_invariance(self):
        # the helix's screw symmetry: the 3D energy depends on phi_i - phi_j only
        for shift in (0.0, 1.7, -12.3):
            assert self.direct(3.0 + shift, 1.0 + shift) == pytest.approx(
                self.direct(3.0, 1.0), rel=1e-13
            )
        assert self.direct(3.0, 1.0) == pytest.approx(self.direct(1.0, 3.0), rel=1e-13)

    def test_ratio_to_reduced(self):
        # one winding apart the dipoles sit head to tail at distance h, where the
        # 3D energy is -2 d^2 / (4 pi eps0 h^3) and V(2pi) = -(R/h)^3
        head_to_tail = -2.0 * self.moment**2 / (4.0 * math.pi * epsilon_0 * self.pitch**3)
        assert self.direct(TWO_PI, 0.0) == pytest.approx(head_to_tail, rel=1e-13)
        assert self.scale * reduced_potential(TWO_PI, self.ratio) == pytest.approx(
            head_to_tail, rel=1e-13)


def _unit_oracle(mass, radius, ratio):
    """hbar^2 / (mu alpha^2) written out, alpha from the pitch h = ratio * R;
    None where Python's float arithmetic raises (test oracle)."""
    alpha = math.hypot(radius, ratio * radius / TWO_PI)
    try:
        return hbar**2 / (mass / 2.0 * alpha**2)
    except (OverflowError, ZeroDivisionError):
        return None


class TestEnergyUnit:
    def test_pair_reduced_mass_unit(self):
        alpha_sq = 1e-12 * (1.0 + 1.0 / TWO_PI**2)
        assert energy_unit_joules(2.2e-25, 1e-6, 1.0) == pytest.approx(
            hbar**2 / (1.1e-25 * alpha_sq), rel=1e-14)

    def test_alpha_identity(self):
        # mass 2 kg is mu = 1 kg, so the unit is hbar^2 / alpha^2 with
        # alpha^2 = R^2 + (h/2pi)^2 and pitch h = ratio * R = 3
        assert energy_unit_joules(2.0, 2.0, 1.5) == pytest.approx(
            hbar**2 / (2.0**2 + (3.0 / TWO_PI) ** 2), rel=1e-14)

    @given(st.floats(0.01, 1e3), st.floats(1e-3, 4.4))
    def test_alpha_identity_random(self, radius, ratio):
        alpha_sq = radius**2 + (ratio * radius / TWO_PI) ** 2
        assert energy_unit_joules(2.0, radius, ratio) == pytest.approx(hbar**2 / alpha_sq,
                                                                       rel=1e-14)

    @settings(max_examples=500)
    @given(st.floats(5e-324, 1e308), st.floats(5e-324, 1e308), st.floats(1e-3, 4.44))
    # alpha * alpha would move this unit by one ulp
    @example(2.2e-25, 7.902352842379742e-06, 1.0)
    # a zero denominator (twice), alpha**2 beyond the float range, mu alpha^2
    # beyond it, and a unit below the smallest float
    @example(1e-300, 1e-300, 1.0)
    @example(1e-320, 1e-6, 1.0)
    @example(2.2e-25, 1e200, 1.0)
    @example(1e300, 1e10, 1.0)
    @example(1e250, 1e10, 1.0)
    # alpha at the largest finite square, and one ulp above it
    @example(1e-60, 1.3407807929942596e154, 1e-60)
    @example(1e-60, 1.3407807929942597e154, 1e-60)
    def test_same_bits_or_refused(self, mass, radius, ratio):
        # every input the written-out expression turns into a unit > 0 gets its
        # bits; the rest (a raise, or an underflow to 0) is refused as a ValueError
        expected = _unit_oracle(mass, radius, ratio)
        if expected is not None and expected > 0.0:
            assert energy_unit_joules(mass, radius, ratio).hex() == expected.hex()
        else:
            with pytest.raises(ValueError, match=r"^energy unit of mass_kg "):
                energy_unit_joules(mass, radius, ratio)

    def test_checks_mass_and_radius_before_the_ratio(self):
        with pytest.raises(ValueError, match=r"^radius_m "):
            energy_unit_joules(2.2e-25, -1.0, 9.0)
        with pytest.raises(GeometryError):
            energy_unit_joules(2.2e-25, 1e200, 9.0)  # a bad ratio before the overflow


class TestValidateGeometry:
    def test_reference_ratios(self):
        validate_geometry(1.0)
        validate_geometry(1.6)
        with pytest.raises(GeometryError):
            validate_geometry(4.5)
        with pytest.raises(GeometryError):
            validate_geometry(RATIO_MAX)
        with pytest.raises(GeometryError):
            validate_geometry(0.0)
        with pytest.raises(GeometryError):
            validate_geometry(-1.0)
        # V(2pi) = -ratio^-3 is still a float at the floor; below it the ratio is refused
        for ratio in (RATIO_MIN, 1e-60):
            validate_geometry(ratio)
            assert reduced_potential(TWO_PI, ratio) == pytest.approx(-ratio**-3, rel=1e-12)
        for ratio in (math.nextafter(RATIO_MIN, 0.0), 1e-70, 1e-163):
            with pytest.raises(GeometryError, match=r"float range$"):
                validate_geometry(ratio)


def _scan_stop(ratio):
    """phi* = max(12 pi^2 / ratio^2, 20/3), beyond which V' > 0."""
    return max(12.0 * math.pi**2 / ratio**2, 20.0 / 3.0)


def _unbounded_minima(ratio, windings, block=1 << 18):
    """Reference minima from a scan of all of (0, 2pi*windings], in blocks."""
    phi_hi = TWO_PI * windings
    grid = np.arange(MINIMA_SCAN_STEP, phi_hi + MINIMA_SCAN_STEP, MINIMA_SCAN_STEP)
    deriv = np.concatenate([reduced_potential_derivative(grid[i:i + block], ratio)
                            for i in range(0, grid.size, block)])
    minima = []
    for i in np.flatnonzero((deriv[:-1] < 0.0) & (deriv[1:] >= 0.0)):
        lo, hi = grid[i], grid[i + 1]
        flo = reduced_potential_derivative(lo, ratio)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            fmid = reduced_potential_derivative(mid, ratio)
            if flo * fmid <= 0.0:
                hi = mid
            else:
                lo, flo = mid, fmid
        phi = 0.5 * (lo + hi)
        value = reduced_potential(phi, ratio)
        if value < 0.0 and phi <= phi_hi:
            minima.append(PotentialMinimum(phi, value, math.ceil(phi / TWO_PI)))
    return minima


class TestFindMinima:
    def test_first_minimum_ratio1(self):
        minima = find_minima(1.0, 1)
        assert len(minima) == 1
        m = minima[0]
        assert m.phi_k == pytest.approx(PHI0_RATIO1, abs=1e-9)
        assert m.value == pytest.approx(V0_RATIO1, rel=1e-10)
        assert m.winding_index == 1
        assert TWO_PI - 0.5 < m.phi_k < TWO_PI  # slightly below one winding

    def test_first_minimum_ratio16(self):
        m = find_minima(1.6, 1)[0]
        assert m.phi_k == pytest.approx(PHI0_RATIO16, abs=1e-9)
        assert m.value == pytest.approx(V0_RATIO16, rel=1e-10)

    def test_refinement_tolerance(self):
        for m in find_minima(1.0, 5):
            assert abs(reduced_potential_derivative(m.phi_k, 1.0)) < 1e-10

    def test_all_minima_attractive_and_bracketed(self):
        for ratio in (1.0, 1.6):
            for m in find_minima(ratio, 8):
                assert m.value < 0.0
                assert TWO_PI * m.winding_index - math.pi < m.phi_k < TWO_PI * m.winding_index

    def test_decreasing_depth(self):
        values = [m.value for m in find_minima(1.0, 8)]
        assert all(values[i] < values[i + 1] < 0.0 for i in range(len(values) - 1))

    def test_disappearance(self):
        # oscillation minima die out well inside the winding bound
        # 1 + (2 pi)^2 / ratio; for h = R the last one sits near 12.75 windings
        minima = find_minima(1.0, 45)
        assert len(minima) == N_MINIMA_RATIO1
        assert minima[-1].phi_k == pytest.approx(LAST_MINIMUM_PHI_RATIO1, abs=1e-6)
        bound = TWO_PI * (1.0 + TWO_PI**2 / 1.0)
        assert all(m.phi_k < bound for m in minima)

    @pytest.mark.parametrize("ratio, windings", [(0.05, 3), (0.25, 170)])
    def test_small_ratio_minimum_in_every_winding(self, ratio, windings):
        # sharp wells leave |V'| up to 1e-5 at the bisected minimum, and the
        # oscillation outlasts the monotone tail to about 4pi/ratio^2 windings
        minima = find_minima(ratio, windings)
        assert [m.winding_index for m in minima] == list(range(1, windings + 1))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, RATIO_MAX, exclude_max=True))
    def test_derivative_positive_beyond_the_scan_stop(self, ratio):
        # the bound in find_minima's docstring: V' > 0 beyond phi*, so no
        # minimum lies there; samples at most 1.2 rad apart, under the 2pi period
        phi_star = _scan_stop(ratio)
        phi = np.linspace(phi_star, 6.0 * phi_star, 200_001)[1:]
        assert np.all(reduced_potential_derivative(phi, ratio) > 0.0)

    @pytest.mark.parametrize("ratio", [0.3, 0.5, 1.0, 2.0, 3.0, 4.0, 4.4])
    def test_stopped_scan_matches_unbounded_scan(self, ratio):
        for windings in sorted({1, 3, math.ceil(2.0 * _scan_stop(ratio) / TWO_PI)}):
            assert find_minima(ratio, windings) == _unbounded_minima(ratio, windings)
