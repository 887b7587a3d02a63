import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acidfront.core import (
    DimensionalParameters,
    ModelParameters,
    asymptotic_states,
    fkpp_minimal_speed,
    nondimensionalize,
    reaction_u,
    reaction_v,
    reaction_w,
)
from acidfront.errors import ParameterWarning

positive = st.floats(min_value=1e-3, max_value=1e3)


def dims(**overrides):
    base = dict(
        rho1=1.0, rho2=1.0, rho3=1.0, delta1=1.0, delta3=1.0,
        kappa1=1.0, kappa2=1.0, D2=1.0, D3max=1.0,
    )
    base.update(overrides)
    return DimensionalParameters(**base)


class TestNondimensionalize:
    def test_all_unit_rates(self):
        with pytest.warns(ParameterWarning):
            p = nondimensionalize(dims())
        assert (p.d, p.r, p.c, p.D) == (1.0, 1.0, 1.0, 1.0)

    def test_reference_regime(self):
        p = nondimensionalize(
            dims(rho3=70.0, delta3=70.0, kappa2=0.5, D2=4e-5, D3max=1.0)
        )
        assert p.d == pytest.approx(0.5, rel=1e-15)
        assert p.r == 1.0
        assert p.c == pytest.approx(70.0, rel=1e-15)
        assert p.D == pytest.approx(4e-5, rel=1e-15)

    def test_d_linear_in_delta1(self):
        p = nondimensionalize(
            dims(rho3=70.0, delta1=2.0, delta3=70.0, kappa2=0.5, D2=4e-5, D3max=1.0)
        )
        assert p.d == pytest.approx(1.0, rel=1e-15)
        assert (p.r, p.c, p.D) == (1.0, pytest.approx(70.0), pytest.approx(4e-5))

    def test_nonpositive_field_named_in_error(self):
        with pytest.raises(ValueError, match="delta3"):
            dims(delta3=0.0)
        with pytest.raises(ValueError, match="rho2"):
            dims(rho2=-1.0)

    @given(lam=st.floats(min_value=1e-2, max_value=1e2))
    def test_time_rescaling_invariance(self, lam):
        base = dims(rho2=2.0, rho3=70.0, delta1=0.5, delta3=35.0, kappa2=0.5, D2=4e-5)
        scaled = dims(
            rho1=lam, rho2=2.0 * lam, rho3=70.0 * lam,
            delta1=0.5 * lam, delta3=35.0 * lam, kappa2=0.5, D2=4e-5,
        )
        p, q = nondimensionalize(base), nondimensionalize(scaled)
        assert q.d == pytest.approx(p.d, rel=1e-12)
        assert q.r == pytest.approx(p.r, rel=1e-12)
        assert q.c == pytest.approx(p.c, rel=1e-12)
        assert q.D == p.D


class TestModelParameters:
    def test_rejects_nonpositive(self):
        for field in ("d", "r", "D", "c"):
            kwargs = dict(d=1.0, r=1.0, D=0.1, c=1.0)
            kwargs[field] = 0.0
            with pytest.raises(ValueError, match=field):
                ModelParameters(**kwargs)

    def test_rejects_non_finite(self):
        for field in ("d", "r", "D", "c"):
            for value in (math.inf, math.nan):
                kwargs = dict(d=1.0, r=1.0, D=0.1, c=1.0)
                kwargs[field] = value
                with pytest.raises(ValueError, match=f"{field} must be finite"):
                    ModelParameters(**kwargs)

    def test_large_diffusivity_ratio_warns(self):
        with pytest.warns(ParameterWarning):
            ModelParameters(d=1.0, r=1.0, D=1.5, c=1.0)


class TestReactions:
    def test_zero_density(self):
        assert reaction_u(0.0, 3.7, 12.5) == 0.0

    def test_logistic_equilibrium(self):
        assert reaction_u(1.0, 0.0, 2.0) == 0.0

    def test_u_direct_value(self):
        assert reaction_u(0.5, 1.0, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_v_values(self):
        assert reaction_v(0.0, 1.0) == 0.0
        assert reaction_v(1.0, 10.0) == 0.0
        assert reaction_v(0.25, 1.0) == pytest.approx(0.1875)

    def test_w_values(self):
        assert reaction_w(0.7, 0.7, 70.0) == 0.0
        assert reaction_w(1.0, 0.0, 70.0) == 70.0
        assert reaction_w(0.0, 1.0, 70.0) == -70.0

    @given(d=positive)
    def test_reactions_vanish_on_equilibria(self, d):
        states = asymptotic_states(d)
        for u, v, w in (states.left, states.right):
            assert reaction_u(u, w, d) == pytest.approx(0.0, abs=1e-12)
            assert reaction_v(v, 1.7) == pytest.approx(0.0, abs=1e-12)
            assert reaction_w(v, w, 70.0) == pytest.approx(0.0, abs=1e-12)


class TestAsymptoticStates:
    def test_strong_acidity(self):
        states = asymptotic_states(12.5)
        assert states.left == (0.0, 1.0, 1.0)
        assert states.right == (1.0, 0.0, 0.0)

    def test_weak_acidity_residual(self):
        states = asymptotic_states(0.5)
        assert states.left == (0.5, 1.0, 1.0)
        assert states.right == (1.0, 0.0, 0.0)

    def test_threshold_coincides(self):
        assert asymptotic_states(1.0).left == (0.0, 1.0, 1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            asymptotic_states(0.0)
        with pytest.raises(ValueError):
            asymptotic_states(-2.0)

    @given(d=positive)
    def test_left_state_formula(self, d):
        left = asymptotic_states(d).left
        if d >= 1.0:
            assert left == (0.0, 1.0, 1.0)
        else:
            assert left == (1.0 - d, 1.0, 1.0)

    @given(eps=st.floats(min_value=1e-12, max_value=1e-6))
    def test_continuous_at_threshold(self, eps):
        below = asymptotic_states(1.0 - eps).left[0]
        above = asymptotic_states(1.0 + eps).left[0]
        assert abs(below - above) <= 2 * eps


class TestFkppMinimalSpeed:
    def test_reference_value(self):
        assert fkpp_minimal_speed(1.0, 4e-5) == pytest.approx(0.012649110640673518)

    def test_quarter(self):
        assert fkpp_minimal_speed(1.0, 0.25) == pytest.approx(1.0)

    def test_fast_growth(self):
        assert fkpp_minimal_speed(10.0, 4e-5) == pytest.approx(0.04)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fkpp_minimal_speed(0.0, 1.0)
        with pytest.raises(ValueError):
            fkpp_minimal_speed(1.0, -1e-5)

    @given(r=positive, D=positive)
    def test_square_identity(self, r, D):
        assert fkpp_minimal_speed(r, D) ** 2 == pytest.approx(4.0 * r * D, rel=1e-14)
        assert fkpp_minimal_speed(r, D) == pytest.approx(
            2.0 * math.sqrt(r) * math.sqrt(D), rel=1e-14
        )
