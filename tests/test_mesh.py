import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from acidfront.errors import ConfigurationError, ResolutionWarning
from acidfront.mesh import (
    Constant,
    Mesh,
    PeriodicPiecewiseConstant,
    SingleJump,
    Sinusoidal,
    build_uniform_mesh,
    project_cell_averages,
)

from oracles import profile_value


class TestBuildUniformMesh:
    def test_unit_interval_reference_spacing(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        assert m.n_cells == 200
        assert np.ptp(m.widths) <= 1e-12
        assert m.centers[0] == pytest.approx(0.0025)
        assert m.centers[1] == pytest.approx(0.0075)
        assert m.widths[0] == pytest.approx(0.005)

    def test_symmetric_interval(self):
        assert build_uniform_mesh(-1.0, 1.0, 0.005).n_cells == 400

    def test_too_few_cells(self):
        with pytest.raises(ConfigurationError):
            build_uniform_mesh(0.0, 1.0, 0.5)

    def test_non_divisible_spacing(self):
        with pytest.raises(ConfigurationError):
            build_uniform_mesh(0.0, 1.0, 0.3)

    def test_empty_domain(self):
        with pytest.raises(ConfigurationError):
            build_uniform_mesh(1.0, 0.0, 0.1)

    def test_nonpositive_spacing(self):
        with pytest.raises(ConfigurationError):
            build_uniform_mesh(0.0, 1.0, -0.1)

    @pytest.mark.parametrize(
        "xmin, xmax, dx, match",
        [
            (-math.inf, 1.0, 0.1, "xmin must be finite, got -inf"),
            (0.0, math.inf, 0.1, "xmax must be finite, got inf"),
            (math.nan, 1.0, 0.1, "xmin must be finite, got nan"),
            (0.0, math.nan, 0.1, "xmax must be finite, got nan"),
            # finite bounds whose length overflows, and a count past an index
            (-1e308, 1e308, 0.1, "= inf is more than an array can index"),
            (0.0, 1.0, 1e-300, "is more than an array can index"),
            # a spacing of inf used to read as "at least 3 cells, got 0"
            (0.0, 1.0, math.inf, "cell width must be positive and finite, got inf"),
            (0.0, 1.0, math.nan, "cell width must be positive and finite, got nan"),
        ],
        ids=[
            "xmin-inf", "xmax-inf", "xmin-nan", "xmax-nan", "length-overflow", "count-overflow",
            "dx-inf", "dx-nan",
        ],
    )
    def test_non_finite_bound_or_count_rejected(self, xmin, xmax, dx, match):
        # round() of an infinite cell count used to raise OverflowError, and
        # np.linspace of a huge one ValueError
        with pytest.raises(ConfigurationError, match=match):
            build_uniform_mesh(xmin, xmax, dx)

    def test_three_cells_is_the_minimum(self):
        assert build_uniform_mesh(0.0, 1.0, 1.0 / 3.0).n_cells == 3

    def test_centers_are_midpoints(self):
        # an offset domain: the linspace widths take several values
        m = build_uniform_mesh(0.1, 0.5, 0.1)
        assert len(set(m.widths)) > 1
        assert np.allclose(m.centers, 0.5 * (m.interfaces[:-1] + m.interfaces[1:]))

    @pytest.mark.parametrize(
        "xmin, xmax, dx", [(1e15, 1e15 + 3.0, 0.2), (1e16, 1e16 + 64.0, 1.0)]
    )
    def test_below_float_resolution_rejected(self, xmin, xmax, dx):
        # the floats near 1e15 are 0.125 apart, near 1e16 2 apart: the first
        # used to give widths 0.125 and 0.25 flagged as not uniform, the
        # second a ValueError for interfaces that repeat
        with pytest.raises(ConfigurationError, match="cannot space"):
            build_uniform_mesh(xmin, xmax, dx)

    def test_mesh_rejects_unequal_widths(self):
        # built directly, a mesh must still have one width: Mesh.dx reads
        # the first
        interfaces = np.array([0.0, 0.1, 0.3, 0.6, 1.0])
        centers = 0.5 * (interfaces[:-1] + interfaces[1:])
        with pytest.raises(ConfigurationError, match="cannot space 4 cells"):
            Mesh(interfaces=interfaces, centers=centers, widths=np.diff(interfaces))

    def test_arrays_immutable(self):
        m = build_uniform_mesh(0.0, 1.0, 0.25)
        with pytest.raises(ValueError):
            m.centers[0] = 7.0


class TestProfileValidation:
    def test_constant(self):
        with pytest.raises(ValueError):
            Constant(0.0)

    def test_single_jump(self):
        with pytest.raises(ValueError):
            SingleJump(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            SingleJump(1.0, -0.1, 0.5)

    def test_periodic_piecewise(self):
        with pytest.raises(ValueError):
            PeriodicPiecewiseConstant(0.0, 1.0, 0.5, 10.0)
        with pytest.raises(ValueError):
            PeriodicPiecewiseConstant(0.1, 1.0, 1.0, 10.0)
        with pytest.raises(ValueError):
            PeriodicPiecewiseConstant(0.1, 1.0, 0.5, 0.5)

    def test_sinusoidal(self):
        with pytest.raises(ValueError):
            Sinusoidal(0.6, 0.4, 50.0)
        with pytest.raises(ValueError):
            Sinusoidal(0.0, 0.4, 50.0)
        with pytest.raises(ValueError):
            Sinusoidal(0.4, 0.6, 0.0)
        Sinusoidal(0.4, 0.4, 50.0)  # degenerate amplitude is legal

    @pytest.mark.parametrize(
        "make",
        [
            lambda inf: Constant(inf),
            lambda inf: SingleJump(inf, 1.0, 0.5),
            lambda inf: SingleJump(1.0, inf, 0.5),
            lambda inf: PeriodicPiecewiseConstant(inf, 1.0, 0.5, 10.0),
            lambda inf: PeriodicPiecewiseConstant(0.1, inf, 0.5, 10.0),
            lambda inf: PeriodicPiecewiseConstant(0.1, 1.0, 0.5, inf),
            lambda inf: Sinusoidal(0.4, inf, 50.0),
            lambda inf: Sinusoidal(0.4, 0.6, inf),
        ],
        ids=["a", "a1", "a2", "pc-alpha0", "pc-alpha1", "periods", "sin-alpha1", "omega"],
    )
    def test_infinite_parameters_rejected(self, make):
        # these used to construct and fail later, in the projection or the march
        with pytest.raises(ValueError, match="finite"):
            make(math.inf)


class TestEvaluateProfile:
    def test_constant(self):
        assert np.array_equal(profile_value(Constant(0.3), [0.0, 0.5]), [0.3, 0.3])

    def test_sinusoidal_midline(self):
        p = Sinusoidal(0.4, 0.6, 50.0)
        assert profile_value(p, 0.0) == pytest.approx(0.5)
        assert profile_value(p, 2 * math.pi / 50.0) == pytest.approx(0.5)

    def test_sinusoidal_peak(self):
        p = Sinusoidal(0.1, 1.0, 50.0)
        x_peak = (math.pi / 2.0) / 50.0
        assert profile_value(p, x_peak) == pytest.approx(1.0)

    def test_single_jump_sides(self):
        p = SingleJump(0.1, 1.0, 0.625)
        assert profile_value(p, 0.5) == pytest.approx(0.1)
        assert profile_value(p, 0.7) == pytest.approx(1.0)
        # right-closed convention at the jump itself
        assert profile_value(p, 0.625) == pytest.approx(1.0)

    def test_periodic_piecewise_pattern(self):
        p = PeriodicPiecewiseConstant(alpha0=0.01, alpha1=1.0, beta=0.5, periods=50.0)
        assert profile_value(p, 0.004) == pytest.approx(1.0)   # first half period
        assert profile_value(p, 0.015) == pytest.approx(0.01)  # second half
        assert profile_value(p, 0.024) == pytest.approx(1.0)   # next period

    def test_vectorized(self):
        p = Sinusoidal(0.4, 0.6, 50.0)
        out = profile_value(p, np.array([0.0, 0.1, 0.2]))
        assert out.shape == (3,)


class TestProjectCellAverages:
    def test_constant_exact(self):
        m = build_uniform_mesh(0.0, 1.0, 0.01)
        assert np.all(project_cell_averages(Constant(1.0), m) == 1.0)

    def test_jump_on_interface(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        a = project_cell_averages(SingleJump(0.1, 1.0, 0.625), m)
        assert np.all(a[:125] == pytest.approx(0.1))
        assert np.all(a[125:] == pytest.approx(1.0))

    def test_jump_mid_cell_averages_halves(self):
        m = build_uniform_mesh(0.0, 1.0, 0.25)
        # jump in the middle of the second cell [0.25, 0.5)
        a = project_cell_averages(SingleJump(0.5, 1.5, 0.375), m)
        assert a[1] == pytest.approx(1.0)
        assert a[0] == pytest.approx(0.5)
        assert a[2] == pytest.approx(1.5)

    def test_sinusoidal_matches_quadrature_oracle(self):
        m = build_uniform_mesh(0.0, 1.0, 0.02)
        p = Sinusoidal(0.1, 1.0, 37.0)
        a = project_cell_averages(p, m)
        for i in (0, 7, 23, 49):
            lo, hi = m.interfaces[i], m.interfaces[i + 1]
            ref, _ = scipy.integrate.quad(lambda x: float(profile_value(p, x)), lo, hi)
            assert a[i] == pytest.approx(ref / (hi - lo), rel=1e-10)

    def test_periodic_piecewise_matches_riemann_oracle(self):
        m = build_uniform_mesh(0.0, 1.0, 0.02)
        p = PeriodicPiecewiseConstant(alpha0=0.2, alpha1=1.3, beta=0.3, periods=7.0)
        a = project_cell_averages(p, m)
        n = 200_000
        for i in (0, 13, 37):
            x = np.linspace(m.interfaces[i], m.interfaces[i + 1], n, endpoint=False)
            x += 0.5 * (x[1] - x[0])
            assert a[i] == pytest.approx(float(profile_value(p, x).mean()), rel=2e-5)

    def test_full_period_cells_average_to_mean(self):
        # each cell spans exactly one period: averages hit the midline
        p = Sinusoidal(0.4, 0.6, 2.0 * math.pi * 10.0)
        m = build_uniform_mesh(0.0, 1.0, 0.1)
        with pytest.warns(ResolutionWarning):
            a = project_cell_averages(p, m)
        assert np.allclose(a, 0.5, atol=1e-12)

    def test_refinement_converges_pointwise(self):
        p = Sinusoidal(0.1, 1.0, 13.0)
        x_star = 0.3123
        errors = []
        for dx in (0.04, 0.02, 0.01, 0.005):
            m = build_uniform_mesh(0.0, 1.0, dx)
            i = int(np.searchsorted(m.interfaces, x_star) - 1)
            a = project_cell_averages(p, m)
            errors.append(abs(a[i] - float(profile_value(p, x_star))))
        assert errors[-1] < errors[0]
        assert errors[-1] < 5e-3

    @given(
        alpha0=st.floats(min_value=0.05, max_value=1.0),
        span=st.floats(min_value=0.0, max_value=1.0),
        omega=st.floats(min_value=5.0, max_value=300.0),
    )
    @settings(max_examples=50)
    def test_averages_bounded_by_range(self, alpha0, span, omega):
        p = Sinusoidal(alpha0, alpha0 + span, omega)
        m = build_uniform_mesh(0.0, 1.0, 0.01)
        a = p.cell_averages(m)
        assert np.all(a >= alpha0 - 1e-12)
        assert np.all(a <= alpha0 + span + 1e-12)

    @pytest.mark.xfail(
        strict=True,
        reason="SingleJump.cell_averages computes a1*w/w for a cell left of "
        "the jump, which can round an ulp below a1",
    )
    def test_jump_averages_bounded(self):
        # 500 cells with 11 distinct linspace widths, the jump inside a cell
        m = build_uniform_mesh(0.0, 2.5, 0.005)
        a = project_cell_averages(SingleJump(0.1, 1.0, 0.3333), m)
        assert np.all((a >= 0.1) & (a <= 1.0))


class TestAliasingWarning:
    def test_fires_when_cell_spans_period(self):
        p = PeriodicPiecewiseConstant(alpha0=0.1, alpha1=1.0, beta=0.5, periods=100.0)
        m = build_uniform_mesh(0.0, 1.0, 0.01)  # dx == period
        with pytest.warns(ResolutionWarning):
            project_cell_averages(p, m)

    def test_fires_on_multiple_of_period(self):
        p = PeriodicPiecewiseConstant(alpha0=0.1, alpha1=1.0, beta=0.5, periods=100.0)
        m = build_uniform_mesh(0.0, 1.0, 0.02)  # dx == 2 periods
        with pytest.warns(ResolutionWarning):
            project_cell_averages(p, m)

    def test_silent_when_period_resolved(self, recwarn):
        p = PeriodicPiecewiseConstant(alpha0=0.1, alpha1=1.0, beta=0.5, periods=50.0)
        m = build_uniform_mesh(0.0, 1.0, 0.005)  # 4 cells per period
        project_cell_averages(p, m)
        assert not [w for w in recwarn if issubclass(w.category, ResolutionWarning)]

    def test_silent_for_aperiodic(self, recwarn):
        m = build_uniform_mesh(0.0, 1.0, 0.25)
        project_cell_averages(SingleJump(1.0, 2.0, 0.6), m)
        assert not [w for w in recwarn if issubclass(w.category, ResolutionWarning)]
