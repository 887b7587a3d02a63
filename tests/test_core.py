import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from acidfront.core import (
    ModelParameters,
    fkpp_minimal_speed,
    reaction_u,
    reaction_v,
    reaction_w,
)
from acidfront.errors import ParameterWarning

positive = st.floats(min_value=1e-3, max_value=1e3)


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
        # Invaded (healthy residue max(1 - d, 0)) and intact far fields.
        for u, v, w in ((max(1.0 - d, 0.0), 1.0, 1.0), (1.0, 0.0, 0.0)):
            assert reaction_u(u, w, d) == pytest.approx(0.0, abs=1e-12)
            assert reaction_v(v, 1.7) == pytest.approx(0.0, abs=1e-12)
            assert reaction_w(v, w, 70.0) == pytest.approx(0.0, abs=1e-12)


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
