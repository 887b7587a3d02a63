import contextlib
import copy
import ctypes
import dataclasses
import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg.lapack import dgtsv as scipy_dgtsv

from acidfront.core import ModelParameters
from acidfront.analysis import PositivityRecorder, WaveSpeedRecorder
from acidfront.errors import FrontProximityWarning, InstabilityError, StabilityWarning
from acidfront.mesh import (
    Constant,
    PeriodicPiecewiseConstant,
    SingleJump,
    Sinusoidal,
    build_uniform_mesh,
    project_cell_averages,
)
from acidfront.scheme import (
    SchemeOptions,
    SimulationState,
    TridiagonalSystem,
    assemble_implicit_v,
    assemble_implicit_w,
    reaction_step_limit,
    run,
    solve_tridiagonal,
    step_imex,
)
from acidfront import scheme
from conftest import raw_params
from oracles import (
    backward_euler_bands,
    dense,
    diffusion_operator,
    end_to_end,
    imex_step,
    interface_coefficients,
    interface_diffusivity_arithmetic,
    is_diagonally_dominant,
    semidiscrete_rhs,
)


def gaussian_elimination(matrix, rhs):
    """Dense Gaussian elimination with partial pivoting; the independent
    oracle for the banded solver."""
    a = np.array(matrix, dtype=float)
    b = np.array(rhs, dtype=float)
    n = b.size
    for col in range(n):
        pivot = col + int(np.argmax(np.abs(a[col:, col])))
        if a[pivot, col] == 0.0:
            raise ZeroDivisionError("singular")
        if pivot != col:
            a[[col, pivot]] = a[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


class TestLapackBinding:
    """The three LAPACK routines come from numpy's bundled OpenBLAS where
    numpy ships one, and from scipy's Cython LAPACK where it does not."""

    @staticmethod
    def march(lapack, monkeypatch, kind="rounded"):
        """Five steps of a three-run batch and a one-off solve on the mesh
        ``kind`` of TestStepBitForBit, with the routines of ``lapack``."""
        monkeypatch.setattr(scheme, "_LAPACK", lapack)
        mesh = TestStepBitForBit.MESHES[kind]
        params = TestStepBitForBit.PARAMS
        rng = np.random.default_rng(5)
        fields = rng.uniform(0.0, 1.0, (3, 3, mesh.n_cells))
        A_cells = rng.uniform(0.01, 2.0, (3, mesh.n_cells))
        states = [SimulationState(mesh, 0.0, *fields[:, b]) for b in range(3)]
        stepper = scheme._Stepper(
            scheme._history(states, 6), mesh, [A_cells], params, SchemeOptions(dt=0.01))
        assert stepper.march(5, 0.01 * np.arange(6)) == (5, None)
        system = assemble_implicit_w(A_cells[0], fields[2, 0], SchemeOptions(dt=0.01), mesh)
        return stepper.history.tobytes() + solve_tridiagonal(system).tobytes()

    def test_capsule_fallback_marches_like_the_default(self, monkeypatch):
        # a finder that returns nothing stands for a numpy with no bundled OpenBLAS
        fallback = scheme._bind(lambda: None)
        assert fallback.index == np.int32
        default = self.march(scheme._LAPACK, monkeypatch)
        assert self.march(fallback, monkeypatch) == default

    def test_capsule_fallback_marches_like_the_default_on_a_fine_mesh(self):
        # three runs of 4 000 cells: LP64 sizes and pointers over a block
        # of 12 000 cells
        fallback = scheme._bind(lambda: None)
        with pytest.MonkeyPatch.context() as mp:
            default = self.march(scheme._LAPACK, mp, "fine rounded")
        with pytest.MonkeyPatch.context() as mp:
            assert self.march(fallback, mp, "fine rounded") == default

    def test_no_library_is_an_import_error(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "scipy.linalg.cython_lapack", None)
        with pytest.raises(ImportError) as caught:
            scheme._bind(lambda: None)
        message = str(caught.value)
        assert message.startswith("acidfront found no LAPACK: no libscipy_openblas64_* ")
        for searched in (*scheme._BUNDLE_DIRS, "scipy.linalg.cython_lapack"):
            assert str(searched) in message

    @pytest.mark.skipif(scheme._numpy_openblas() is None, reason="numpy bundles no OpenBLAS")
    def test_numpy_openblas_is_the_default(self):
        assert scheme._LAPACK.index == np.int64


class TestInterfaceAverages:
    def test_arithmetic_constant(self):
        assert interface_diffusivity_arithmetic(0.7, 0.7, 0.1, 0.3) == pytest.approx(0.7)

    def test_arithmetic_uniform(self):
        assert interface_diffusivity_arithmetic(0.1, 1.0, 0.005, 0.005) == pytest.approx(0.55)

    def test_arithmetic_width_weighted(self):
        assert interface_diffusivity_arithmetic(0.1, 1.0, 1.0, 3.0) == pytest.approx(0.775)


class TestSchemeOptions:
    @pytest.mark.parametrize("dt", [0.0, -0.01, math.nan, math.inf])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError, match="positive and finite"):
            SchemeOptions(dt=dt)

    @pytest.mark.parametrize("dt", [5e-324, 0.01, 1.7976931348623157e308])
    def test_accepts_positive_finite_dt(self, dt):
        # from the smallest subnormal to the largest float
        assert SchemeOptions(dt=dt).dt == dt

    def test_dt_is_the_only_field(self):
        assert [f.name for f in dataclasses.fields(SchemeOptions)] == ["dt"]

    def test_frozen(self):
        opts = SchemeOptions(dt=0.01)
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.dt = 0.02


class TestSimulationState:
    def test_rejects_wrong_length(self):
        m = build_uniform_mesh(0.0, 1.0, 0.25)
        with pytest.raises(ValueError):
            SimulationState(m, 0.0, np.zeros(3), np.zeros(4), np.zeros(4))

    def test_rejects_non_finite(self):
        m = build_uniform_mesh(0.0, 1.0, 0.25)
        bad = np.array([0.0, np.nan, 0.0, 0.0])
        with pytest.raises(ValueError):
            SimulationState(m, 0.0, bad, np.zeros(4), np.zeros(4))

    def test_fields_frozen(self):
        m = build_uniform_mesh(0.0, 1.0, 0.25)
        s = SimulationState(m, 0.0, np.zeros(4), np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError):
            s.u[0] = 1.0

    def test_rejects_batch_fields(self):
        # a state is one run: a batch is a sequence of states
        m = build_uniform_mesh(0.0, 1.0, 0.25)
        for shape in ((2, 4), (1, 4), (2, 2, 4)):
            with pytest.raises(ValueError, match="expected \\(4,\\)"):
                SimulationState(m, 0.0, np.zeros(shape), np.zeros(shape), np.zeros(shape))


class TestSolveTridiagonal:
    def test_identity_returns_rhs(self):
        rhs = np.array([3.0, -1.0, 2.0, 0.5])
        sys = TridiagonalSystem(np.zeros(3), np.ones(4), np.zeros(3), rhs)
        assert np.allclose(solve_tridiagonal(sys), rhs)

    def test_known_three_by_three(self):
        sys = TridiagonalSystem([-1.0, -1.0], [2.0, 2.0, 2.0], [-1.0, -1.0], [1.0, 0.0, 1.0])
        assert np.allclose(solve_tridiagonal(sys), [1.0, 1.0, 1.0], atol=1e-14)

    def test_against_dense_elimination_oracle(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = 8
            sub = rng.uniform(-1.0, 1.0, n - 1)
            sup = rng.uniform(-1.0, 1.0, n - 1)
            diag = np.abs(rng.uniform(1.0, 2.0, n))
            diag[1:] += np.abs(sub)
            diag[:-1] += np.abs(sup)
            rhs = rng.uniform(-5.0, 5.0, n)
            sys = TridiagonalSystem(sub, diag, sup, rhs)
            assert is_diagonally_dominant(sys)
            assert np.allclose(
                solve_tridiagonal(sys),
                gaussian_elimination(dense(sys), rhs),
                rtol=1e-13, atol=1e-13,
            )

    def test_residual_bound(self):
        rng = np.random.default_rng(3)
        n = 64
        sub = rng.uniform(-0.5, 0.5, n - 1)
        sup = rng.uniform(-0.5, 0.5, n - 1)
        diag = 2.0 + rng.uniform(0.0, 1.0, n)
        rhs = rng.uniform(-1.0, 1.0, n)
        sys = TridiagonalSystem(sub, diag, sup, rhs)
        x = solve_tridiagonal(sys)
        residual = dense(sys) @ x - rhs
        assert np.max(np.abs(residual)) <= 1e-12 * np.max(np.abs(rhs))

    def test_equals_scipy_gtsv_and_leaves_the_system(self):
        # the package binds LAPACK itself; scipy's build must give the same bits
        rng = np.random.default_rng(11)
        for n in (2, 3, 40, 3000):
            for scale in (1e-3, 1.0, 1e7):
                sub, sup = (rng.uniform(-scale, scale, n - 1) for _ in range(2))
                diag = 1.0 + np.abs(np.pad(sub, (1, 0))) + np.abs(np.pad(sup, (0, 1)))
                rhs = rng.uniform(-1.0, 1.0, n)
                system = TridiagonalSystem(sub, diag, sup, rhs)
                before = [a.copy() for a in (sub, diag, sup, rhs)]
                expected = scipy_dgtsv(sub, diag, sup, rhs)[3]
                assert solve_tridiagonal(system).tobytes() == expected.tobytes()
                for a, b in zip((system.sub, system.diag, system.super, system.rhs), before):
                    assert np.array_equal(a, b)

    def test_singular_system_raises(self):
        sys = TridiagonalSystem(np.zeros(2), np.zeros(3), np.zeros(2), np.ones(3))
        with pytest.raises(InstabilityError):
            solve_tridiagonal(sys)

    def test_band_length_validation(self):
        with pytest.raises(ValueError):
            TridiagonalSystem(np.zeros(3), np.ones(3), np.zeros(2), np.ones(3))


def reference_params():
    return ModelParameters(d=12.5, r=1.0, D=4e-5, c=70.0)


class TestAssembleImplicitV:
    def test_fully_degenerate_is_identity(self):
        m = build_uniform_mesh(0.0, 1.0, 0.25)
        opts = SchemeOptions(dt=0.01)
        v_expl = np.array([0.3, 0.2, 0.1, 0.4])
        sys = assemble_implicit_v(np.ones(4), v_expl, reference_params(), opts, m)
        assert np.allclose(sys.diag, 1.0)
        assert np.allclose(sys.sub, 0.0)
        assert np.allclose(sys.super, 0.0)
        assert np.allclose(solve_tridiagonal(sys), v_expl)

    def test_clear_tissue_gives_standard_laplacian(self):
        m = build_uniform_mesh(0.0, 1.0, 0.25)
        p = reference_params()
        opts = SchemeOptions(dt=0.01)
        lam = p.D * opts.dt / 0.25**2
        sys = assemble_implicit_v(np.zeros(4), np.zeros(4), p, opts, m)
        assert sys.diag[1] == pytest.approx(1.0 + 2.0 * lam)
        assert sys.sub[0] == pytest.approx(-lam)
        assert sys.super[1] == pytest.approx(-lam)
        # Neumann closure drops one neighbour at the ends
        assert sys.diag[0] == pytest.approx(1.0 + lam)
        assert sys.diag[-1] == pytest.approx(1.0 + lam)

    def test_degenerate_coefficient_averaged_arithmetically(self):
        # (1 - u) vanishes in cell 0: a harmonic mean would close the first
        # interface, the arithmetic mean leaves it half open
        m = build_uniform_mesh(0.0, 1.0, 0.25)
        p = reference_params()
        opts = SchemeOptions(dt=0.01)
        lam = p.D * opts.dt / 0.25**2
        sys = assemble_implicit_v(np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(4), p, opts, m)
        assert sys.super[0] == pytest.approx(-0.5 * lam)
        assert sys.sub[0] == pytest.approx(-0.5 * lam)
        assert sys.super[1] == pytest.approx(-lam)

    def test_overshoot_raises(self):
        m = build_uniform_mesh(0.0, 1.0, 0.25)
        u_next = np.array([1.2, 1.1, 0.5, 0.0])
        with pytest.raises(InstabilityError):
            assemble_implicit_v(u_next, np.zeros(4), reference_params(), SchemeOptions(dt=0.01), m)

    def test_dominance_for_admissible_fields(self):
        rng = np.random.default_rng(11)
        m = build_uniform_mesh(0.0, 1.0, 0.02)
        opts = SchemeOptions(dt=0.01)
        for _ in range(10):
            u = rng.uniform(0.0, 1.0, m.n_cells)
            sys = assemble_implicit_v(u, np.zeros(m.n_cells), reference_params(), opts, m)
            assert is_diagonally_dominant(sys)


class TestAssembleImplicitW:
    def test_constant_coefficient_rows(self):
        m = build_uniform_mesh(0.0, 1.0, 0.25)
        opts = SchemeOptions(dt=0.01)
        mu = opts.dt / 0.25**2
        sys = assemble_implicit_w(np.ones(4), np.zeros(4), opts, m)
        assert sys.diag[1] == pytest.approx(1.0 + 2.0 * mu)
        assert sys.sub[0] == pytest.approx(-mu)
        assert sys.diag[0] == pytest.approx(1.0 + mu)

    def test_jump_interface_coefficient_arithmetic(self):
        m = build_uniform_mesh(0.0, 1.0, 0.25)
        opts = SchemeOptions(dt=0.01)
        a = np.array([0.1, 0.1, 1.0, 1.0])
        sys = assemble_implicit_w(a, np.zeros(4), opts, m)
        mu = opts.dt / 0.25**2
        assert sys.super[1] == pytest.approx(-mu * 0.55)
        assert sys.super[0] == pytest.approx(-mu * 0.1)
        assert sys.super[2] == pytest.approx(-mu * 1.0)

    def test_dominance(self):
        rng = np.random.default_rng(5)
        m = build_uniform_mesh(0.0, 1.0, 0.02)
        opts = SchemeOptions(dt=0.01)
        a = rng.uniform(0.01, 2.0, m.n_cells)
        sys = assemble_implicit_w(a, np.zeros(m.n_cells), opts, m)
        assert is_diagonally_dominant(sys)


class TestSemidiscreteRhs:
    def test_intact_tissue_equilibrium(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        n = m.n_cells
        s = SimulationState(m, 0.0, np.ones(n), np.zeros(n), np.zeros(n))
        du, dv, dw = semidiscrete_rhs(s, np.ones(n), reference_params())
        assert np.allclose(du, 0.0, atol=1e-14)
        assert np.allclose(dv, 0.0, atol=1e-14)
        assert np.allclose(dw, 0.0, atol=1e-14)

    def test_invaded_equilibrium(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        n = m.n_cells
        s = SimulationState(m, 0.0, np.zeros(n), np.ones(n), np.ones(n))
        du, dv, dw = semidiscrete_rhs(s, np.ones(n), reference_params())
        assert np.allclose(du, 0.0, atol=1e-14)
        assert np.allclose(dv, 0.0, atol=1e-14)
        assert np.allclose(dw, 0.0, atol=1e-14)

    def test_five_cell_hand_stencil(self):
        m = build_uniform_mesh(0.0, 5.0, 1.0)
        s = SimulationState(
            m, 0.0, np.zeros(5), np.array([1.0, 1.0, 0.0, 0.0, 0.0]), np.zeros(5)
        )
        p = raw_params(d=1.0, r=0.0, D=1.0, c=0.0)
        _, dv, _ = semidiscrete_rhs(s, np.ones(5), p)
        assert np.allclose(dv, [0.0, -1.0, 1.0, 0.0, 0.0], atol=1e-14)

    def test_diffusion_conserves_totals(self):
        # flux form telescopes: with reactions off the width-weighted sums
        # of dv and dw vanish (24 cells of width 1e-6, 6 distinct linspace
        # widths)
        m = build_uniform_mesh(0.0, 2.4e-5, 1e-6)
        rng = np.random.default_rng(17)
        s = SimulationState(m, 0.0, *rng.uniform(0.0, 1.0, (3, 24)))
        p = raw_params(d=0.0, r=0.0, D=0.3, c=0.0)
        _, dv, dw = semidiscrete_rhs(s, rng.uniform(0.1, 2.0, 24), p)
        assert abs(np.sum(dv * m.widths)) <= 1e-14 * np.sum(np.abs(dv * m.widths))
        assert abs(np.sum(dw * m.widths)) <= 1e-14 * np.sum(np.abs(dw * m.widths))


class TestDiffusionOperator:
    def test_interior_row_sums_vanish(self):
        # an offset domain: the linspace widths take 3 values
        m = build_uniform_mesh(0.1, 0.5, 0.1)
        kappa = np.array([0.3, 1.0, 0.7])
        sub, diag, sup = diffusion_operator(kappa, m)
        rows = np.zeros(4)
        rows += diag
        rows[:-1] += sup
        rows[1:] += sub
        assert np.allclose(rows, 0.0, atol=1e-12)


class TestBackwardEulerBuilder:
    """Every implicit matrix comes from scheme._BackwardEuler; its bands
    equal the reference I - gamma*L(kappa) of diffusion_operator exactly."""

    MESHES = {
        # one width, a power of 2
        "uniform": build_uniform_mesh(0.0, 1.0, 1.0 / 16),
        # linspace widths that round to 11 distinct values
        "rounded": build_uniform_mesh(0.0, 2.5, 0.005),
        # widths of 1e-6, in 6 distinct values
        "micro": build_uniform_mesh(0.0, 2.4e-5, 1e-6),
    }
    # the tumour's D*dt and the acid's dt, over decades
    GAMMAS = (0.0137, 3e-9, 2.5e-6, 4e-4, 0.61, 85.0, 1.2e4)

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("kind", ["uniform", "rounded", "micro"])
    def test_bands_equal_reference(self, kind, runs):
        single = self.MESHES[kind]
        block = single.n_cells
        mesh = end_to_end(single, runs)
        widths, n = mesh.widths, mesh.n_cells
        rng = np.random.default_rng(29)
        for gamma in self.GAMMAS:
            builder = scheme._BackwardEuler(widths, block, gamma)
            # A first call fills the reused buffers, which the checked call
            # must overwrite completely.
            builder.bands(builder.kappa(rng.uniform(0.05, 2.0, n), np.empty(n - 1)))
            # coefficients over decades too, down to the tumour's smallest
            # nonzero 1 - u = 2**-53
            cells = 10.0 ** rng.uniform(np.log10(2.0**-53), 1.0, n)
            kappa = interface_coefficients(cells, mesh)
            kappa[block - 1 :: block] = 0.0
            expected = backward_euler_bands(kappa, gamma, mesh)
            got = builder.bands(builder.kappa(cells.copy(), np.empty(n - 1)))
            # bytes, so that signed zeros count
            for band, reference in zip(got, expected):
                assert band.tobytes() == reference.tobytes(), gamma
            sub, _, sup = got
            assert not sub[block - 1 :: block].any() and not sup[block - 1 :: block].any()
            assert np.all(sub[np.arange(n - 1) % block != block - 1] < 0.0)


    @pytest.mark.parametrize("kind", ["uniform", "rounded", "micro"])
    def test_degenerate_cell_keeps_its_interfaces(self, kind):
        # the tumour coefficient 1 - u is 0 in a fully invaded cell: the
        # width-weighted arithmetic average leaves a cell next to it open
        # (a harmonic mean would close it), and two such cells give 0, not 0/0
        single = self.MESHES[kind]
        block = single.n_cells
        mesh = end_to_end(single, 3)
        n = mesh.n_cells
        rng = np.random.default_rng(37)
        cells = 10.0 ** rng.uniform(np.log10(2.0**-53), 1.0, n)
        cells[rng.random(n) < 0.3] = 0.0
        left, right = cells[:-1].copy(), cells[1:].copy()
        kappa = scheme._BackwardEuler(mesh.widths, block, 0.5).kappa(cells)
        inner = np.arange(n - 1) % block != block - 1
        assert not kappa[~inner].any()
        lo, hi = np.minimum(left, right)[inner], np.maximum(left, right)[inner]
        k = kappa[inner]
        assert np.all((k > 0.0) == (hi > 0.0))
        eps = np.finfo(float).eps
        assert np.all(k >= lo * (1.0 - 4 * eps)) and np.all(k <= hi * (1.0 + 4 * eps))


class TestStepBitForBit:
    """Two steps of the stepper equal, byte for byte (signed zeros too), two
    steps of oracles.imex_step: reaction_u/v/w, diffusion_operator and LAPACK
    called one at a time."""

    PARAMS = (
        ModelParameters(d=12.5, r=1.0, D=4e-3, c=70.0),
        ModelParameters(d=0.5, r=2.0, D=4e-3, c=10.0),
        ModelParameters(d=30.0, r=0.7, D=4e-3, c=3.0),
    )
    MESHES = {
        **TestBackwardEulerBuilder.MESHES,
        # the sizes of the fine-mesh workload: 4 096 cells of one width, a
        # power of 2, and 4 000 of linspace widths
        "fine uniform": build_uniform_mesh(0.0, 1.0, 1.0 / 4096),
        "fine rounded": build_uniform_mesh(0.0, 20.0, 0.005),
    }

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("kind", ["uniform", "rounded", "fine uniform", "fine rounded"])
    def test_two_steps_equal_reference(self, kind, runs):
        mesh = self.MESHES[kind]
        n, params = mesh.n_cells, self.PARAMS[:runs]
        rng = np.random.default_rng(31)
        fields = rng.uniform(0.0, 1.0, (3, runs, n))
        # exact zeros and ones: u = 0 (a signed zero under acid), v = w = 0,
        # and u = 1 (a zero tumour coefficient)
        fields[0, :, 0] = 0.0
        fields[1:, :, 1] = 0.0
        fields[0, :, 2] = 1.0
        A_cells = rng.uniform(0.01, 2.0, (runs, n))
        opts = SchemeOptions(dt=0.01)
        states = [SimulationState(mesh, 0.0, *fields[:, b]) for b in range(runs)]
        stepper = scheme._Stepper(scheme._history(states, 3), mesh, [A_cells], params, opts)
        assert stepper.march(2, (0.0, 0.01, 0.02)) == (2, None)
        first = imex_step(fields.reshape(3, -1), A_cells, params, opts, mesh)
        second = imex_step(first, A_cells, params, opts, mesh)
        assert stepper.history[1:3].tobytes() == np.array([first, second]).tobytes()


class TestStepImex:
    def test_intact_tissue_fixed_point(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        n = m.n_cells
        s = SimulationState(m, 0.0, np.ones(n), np.zeros(n), np.zeros(n))
        a = np.ones(n)
        p = reference_params()
        opts = SchemeOptions(dt=0.01)
        for _ in range(5):
            s = step_imex(s, a, p, opts)
        assert np.all(s.u == 1.0)
        assert np.all(s.v == 0.0)
        assert np.all(s.w == 0.0)
        assert s.time == pytest.approx(0.05)

    def test_invaded_fixed_point(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        n = m.n_cells
        s = SimulationState(m, 0.0, np.zeros(n), np.ones(n), np.ones(n))
        p = reference_params()
        opts = SchemeOptions(dt=0.01)
        for _ in range(5):
            s = step_imex(s, np.ones(n), p, opts)
        assert np.max(np.abs(s.u)) == 0.0
        assert np.max(np.abs(s.v - 1.0)) < 1e-12
        assert np.max(np.abs(s.w - 1.0)) < 1e-12

    def test_mass_conservation_without_reactions(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        n = m.n_cells
        x = m.centers
        w0 = np.exp(-50.0 * (x - 0.5) ** 2)
        v0 = np.where(x < 0.3, 1.0, 0.0)
        s = SimulationState(m, 0.0, np.zeros(n), v0, w0)
        p = raw_params(d=0.0, r=0.0, D=4e-5, c=0.0)
        opts = SchemeOptions(dt=0.01)
        a = project_cell_averages(SingleJump(0.1, 1.0, 0.625), m)
        mass_v = np.sum(s.v * m.widths)
        mass_w = np.sum(s.w * m.widths)
        for _ in range(100):
            s = step_imex(s, a, p, opts)
            new_v = np.sum(s.v * m.widths)
            new_w = np.sum(s.w * m.widths)
            assert abs(new_v - mass_v) <= 1e-12 * abs(mass_v)
            assert abs(new_w - mass_w) <= 1e-12 * abs(mass_w)
            mass_v, mass_w = new_v, new_w

    def test_blowup_reports_instability(self):
        m = build_uniform_mesh(0.0, 1.0, 0.02)
        n = m.n_cells
        x = m.centers
        v0 = np.where(x < 0.25, 1.0, 0.0)
        s = SimulationState(m, 0.0, 1.0 - v0, v0, np.zeros(n))
        p = reference_params()
        opts = SchemeOptions(dt=0.05)  # far beyond the kinetics limit
        with pytest.warns(StabilityWarning):
            with pytest.raises(InstabilityError) as excinfo:
                run(s, Constant(1.0), p, opts, T=20.0)
        assert excinfo.value.step is not None
        assert excinfo.value.time is not None

    def test_breakdown_carries_the_time_of_the_stepped_state(self):
        # the healthy logistic u + dt*u*(1 - u) overshoots 1 in one step, so
        # the tumour interface coefficient 1 - u goes negative
        m = build_uniform_mesh(0.0, 1.0, 0.05)
        n = m.n_cells
        s = SimulationState(m, 0.75, np.full(n, 0.5), np.zeros(n), np.zeros(n))
        p = raw_params(d=1.0, r=1.0, D=1e-3, c=1.0)
        with pytest.raises(InstabilityError, match="negative tumour interface coefficient") as excinfo:
            step_imex(s, np.ones(n), p, SchemeOptions(dt=2.5))
        assert excinfo.value.time == s.time
        assert excinfo.value.step is None

    def test_stepped_fields_own_their_bytes(self):
        # a row view of the stepper's (2, 3, N) history would keep 6 N
        # floats alive for the 3 N of the state's fields
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        n = m.n_cells
        v0 = np.where(m.centers < 0.25, 1.0, 0.0)
        s = SimulationState(m, 0.0, 1.0 - v0, v0, np.zeros(n))
        stepped = step_imex(s, np.ones(n), reference_params(), SchemeOptions(dt=0.01))
        for name in ("u", "v", "w"):
            field = getattr(stepped, name)
            owner = field if field.base is None else field.base
            assert owner.size <= 3 * n, (name, owner.shape)
            assert not field.flags.writeable

    @pytest.mark.parametrize("dt", [0.01, 2.5], ids=["good", "breakdown"])
    def test_a_step_starts_no_thread(self, dt):
        # at dt = 2.5 the healthy logistic overshoots 1 in one step
        m = build_uniform_mesh(0.0, 1.0, 1.0 / 2000)
        n = m.n_cells
        s = SimulationState(m, 0.0, np.full(n, 0.5), np.zeros(n), np.zeros(n))
        p = raw_params(d=1.0, r=1.0, D=1e-3, c=1.0)
        before = threading.active_count()
        with pytest.raises(InstabilityError) if dt == 2.5 else contextlib.nullcontext():
            step_imex(s, np.ones(n), p, SchemeOptions(dt=dt))
        assert threading.active_count() == before


class TestRun:
    def test_zero_steps_at_final_time(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        n = m.n_cells
        s = SimulationState(m, 2.0, np.ones(n), np.zeros(n), np.zeros(n))
        opts = SchemeOptions(dt=0.01)
        out = run(s, Constant(1.0), reference_params(), opts, T=2.0)
        assert out is s
        out = run([s], [Constant(1.0)], [reference_params()], opts, T=2.0)
        assert isinstance(out, tuple) and len(out) == 1 and out[0] is s
        # no step is taken, but the arguments are checked as for a run that
        # marches
        batch = [s, s]
        p = reference_params()
        other_D = ModelParameters(d=p.d, r=p.r, D=2.0 * p.D, c=p.c)
        profile = Constant(1.0)
        for A, params in [
            ([profile] * 2, [p, other_D]),  # the runs of a batch share D
            ([profile] * 3, [p, p]),  # one diffusivity row per run
            ([profile], [p, p]),
            ([profile] * 2, [p]),  # one parameter set per run
            ([profile] * 2, [p, p, p]),
        ]:
            with pytest.raises(ValueError):
                run(batch, A, params, opts, T=2.0)
        out = run(batch, [profile] * 2, [p, p], opts, T=2.0)
        assert isinstance(out, tuple) and len(out) == 2 and out[0] is s and out[1] is s

    def test_rejects_past_final_time(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        n = m.n_cells
        s = SimulationState(m, 2.0, np.ones(n), np.zeros(n), np.zeros(n))
        with pytest.raises(ValueError):
            run(s, Constant(1.0), reference_params(), SchemeOptions(dt=0.01), T=1.0)

    def test_observer_called_every_step(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        n = m.n_cells
        s = SimulationState(m, 0.0, np.ones(n), np.zeros(n), np.zeros(n))
        calls = []
        run(
            s, Constant(1.0), reference_params(), SchemeOptions(dt=0.01), T=0.1,
            observers=[lambda first, times, fields: calls.append((first, times.copy(), fields.shape))],
        )
        # every step is seen once: each block starts at the row the last one ended at
        assert calls[0][0] == 0
        assert calls[0][1][0] == 0.0
        for (first, times, shape), (next_first, next_times, _) in zip(calls, calls[1:]):
            assert next_first == first + len(times) - 1
            assert next_times[0] == times[-1]
        assert sum(len(times) - 1 for _, times, _ in calls) == 10
        assert calls[-1][1][-1] == pytest.approx(0.1)
        assert all(shape[1:] == (3, n) for _, _, shape in calls)

    def test_step_count_rounding(self):
        m = build_uniform_mesh(0.0, 1.0, 0.005)
        n = m.n_cells
        s = SimulationState(m, 0.0, np.ones(n), np.zeros(n), np.zeros(n))
        steps = []
        run(
            s, Constant(1.0), reference_params(), SchemeOptions(dt=0.01), T=0.055,
            observers=[lambda first, times, fields: steps.extend(range(first, first + len(times) - 1))],
        )
        assert steps == list(range(6))  # ceil(0.055 / 0.01)

    def test_reaction_limit_reference_value(self):
        assert reaction_step_limit(reference_params()) == pytest.approx(1.0 / 70.0)

    def test_reaction_limit_counts_acid_destructiveness(self):
        # u + dt*u*(1 - u - d*w) stays nonnegative under saturated acid only
        # for dt <= 1/d
        assert reaction_step_limit(ModelParameters(d=200.0, r=1.0, D=4e-5, c=70.0)) == 1.0 / 200.0
        assert reaction_step_limit(raw_params(d=0.0, r=0.0, D=4e-5, c=0.0)) == 1.0

    def test_batch_warns_for_each_run_over_the_limit(self):
        m = build_uniform_mesh(0.0, 1.0, 0.05)
        s = SimulationState(m, 0.0, np.ones(20), np.zeros(20), np.zeros(20))
        batch = [s, s, s]
        fast = ModelParameters(d=200.0, r=1.0, D=4e-5, c=70.0)
        params = [reference_params(), fast, fast]
        with pytest.warns(StabilityWarning) as caught:
            run(batch, [Constant(1.0)] * 3, params, SchemeOptions(dt=0.01), T=0.01)
        messages = [str(w.message) for w in caught if w.category is StabilityWarning]
        assert len(messages) == 2
        assert "run 1 " in messages[0] and "run 2 " in messages[1]

    def test_batch_arguments_must_match_runs(self):
        m = build_uniform_mesh(0.0, 1.0, 0.05)
        s = SimulationState(m, 0.0, np.ones(20), np.zeros(20), np.zeros(20))
        batch = [s, s]
        opts = SchemeOptions(dt=0.01)
        p = reference_params()
        with pytest.raises(ValueError):
            run(batch, [Constant(1.0)] * 2, [p], opts, T=0.01)
        with pytest.raises(ValueError):
            run(batch, [Constant(1.0)], [p, p], opts, T=0.01)
        # one state, or three, against two of each
        for states in ([s], s, [s, s, s]):
            with pytest.raises(ValueError, match="need one parameter set and one diffusivity row each"):
                run(states, [Constant(1.0)] * 2, [p, p], opts, T=0.01)
        with pytest.raises(ValueError):
            run(batch, [Constant(1.0)] * 2, [p, ModelParameters(d=1.0, r=1.0, D=1e-3, c=1.0)], opts, T=0.01)

    def test_states_share_one_mesh_and_time(self):
        m = build_uniform_mesh(0.0, 1.0, 0.05)
        s = SimulationState(m, 0.0, np.ones(20), np.zeros(20), np.zeros(20))
        twin = build_uniform_mesh(0.0, 1.0, 0.05)  # equal, but another object
        p, opts = reference_params(), SchemeOptions(dt=0.01)
        for stranger in (SimulationState(twin, 0.0, s.u, s.v, s.w), SimulationState(m, 0.01, s.u, s.v, s.w)):
            with pytest.raises(ValueError, match="sharing one mesh object and one time"):
                run([s, stranger], [Constant(1.0)] * 2, [p, p], opts, T=0.02)
        with pytest.raises(ValueError, match="one or more states"):
            run([], [], [], opts, T=0.02)

    def test_a_sequence_of_one_marches_as_the_lone_state(self):
        # the same bytes, observer field shapes and warning texts; the final
        # state comes back in a tuple of one
        m = build_uniform_mesh(0.0, 1.0, 0.05)
        v0 = np.where(m.centers < 0.6, 1.0, 0.0)  # a front within the boundary margin
        s = SimulationState(m, 0.0, 1.0 - v0, v0, np.zeros(m.n_cells))
        opts = SchemeOptions(dt=0.02)  # over the reaction limit 1/70

        def march(states, profiles, params):
            shapes = []
            observers = [WaveSpeedRecorder(m, opts.dt), lambda first, times, fields: shapes.append(fields.shape)]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                final = run(states, profiles, params, opts, T=0.1, observers=observers)
            return final, shapes, [(w.category, str(w.message)) for w in caught]

        lone, lone_shapes, lone_caught = march(s, Constant(1.0), reference_params())
        (final,), shapes, caught = march([s], [Constant(1.0)], [reference_params()])
        assert shapes == lone_shapes and all(shape[1:] == (3, m.n_cells) for shape in shapes)
        assert caught == lone_caught
        assert {category for category, _ in caught} == {StabilityWarning, FrontProximityWarning}
        assert final.time == lone.time
        for name in ("u", "v", "w"):
            assert getattr(final, name).tobytes() == getattr(lone, name).tobytes(), name

    def test_a_batch_returns_one_frozen_state_per_run(self):
        m = build_uniform_mesh(0.0, 1.0, 0.05)
        n = m.n_cells
        a = SimulationState(m, 0.0, np.ones(n), np.zeros(n), np.zeros(n))
        b = SimulationState(m, 0.0, np.full(n, 0.5), np.full(n, 0.5), np.zeros(n))
        profiles, p, opts = [Constant(1.0), SingleJump(0.1, 1.0, 0.5)], reference_params(), SchemeOptions(dt=0.01)
        finals = run([a, b], profiles, [p, p], opts, T=0.05)
        assert isinstance(finals, tuple) and len(finals) == 2
        for state, profile, final in zip((a, b), profiles, finals):
            alone = run(state, profile, p, opts, T=0.05)
            assert final.time == alone.time
            for name in ("u", "v", "w"):
                field = getattr(final, name)
                assert field.tobytes() == getattr(alone, name).tobytes(), name
                assert not field.flags.writeable
        # a view into a shared buffer would keep every run alive as long as one
        first, second = ([getattr(f, name) for name in ("u", "v", "w")] for f in finals)
        assert not any(np.shares_memory(x, y) for x in first for y in second)

    @staticmethod
    def raising_on_the_third_call(routine):
        calls = []

        def call(*args):
            calls.append(None)
            if len(calls) == 3:
                raise ctypes.ArgumentError("argument 1: wrong type")
            routine(*args)

        return call

    def test_an_error_in_a_solve_leaves_run(self, monkeypatch):
        # the third acid solve raises: the run raises that error, once its
        # observers have seen the first block of two steps, and no other
        s0, p, opts = tumour_edge(20), reference_params(), SchemeOptions(dt=0.01)
        states = [s0]
        for _ in range(2):
            states.append(step_imex(states[-1], np.ones(20), p, opts))
        monkeypatch.setattr(scheme, "_LAPACK", lapack_with("gttrs", self.raising_on_the_third_call))
        monkeypatch.setattr(scheme, "_BLOCK_BYTES", block_size(2, s0))
        kept = {}
        with pytest.raises(ctypes.ArgumentError, match="wrong type"):
            run(s0, Constant(1.0), p, opts, T=0.1, observers=[keep_rows(kept)])
        assert sorted(kept) == [0, 1, 2]
        for step, state in enumerate(states):
            assert np.array_equal(kept[step][1], np.stack([state.u, state.v, state.w]))

    def test_a_failed_solve_does_not_fail_the_next_run(self, monkeypatch):
        s0, p, opts = tumour_edge(20), reference_params(), SchemeOptions(dt=0.01)
        kept_fields = [f.copy() for f in (s0.u, s0.v, s0.w)]
        expected = run(s0, Constant(1.0), p, opts, T=0.1)
        with monkeypatch.context() as mp:
            mp.setattr(scheme, "_LAPACK", lapack_with("gttrs", self.raising_on_the_third_call))
            with pytest.raises(ctypes.ArgumentError):
                run(s0, Constant(1.0), p, opts, T=0.1)
        for field, kept in zip((s0.u, s0.v, s0.w), kept_fields):
            assert field.tobytes() == kept.tobytes()
        again = run(s0, Constant(1.0), p, opts, T=0.1)
        assert again.time == expected.time
        for name in ("u", "v", "w"):
            assert getattr(again, name).tobytes() == getattr(expected, name).tobytes(), name

    def test_a_march_starts_no_thread(self):
        # both solves of every step run on the calling thread, at sizes
        # whose acid solves once went to a helper thread
        p, opts = reference_params(), SchemeOptions(dt=0.01)
        before, seen = threading.active_count(), []

        def observe(first, times, fields):
            seen.append(threading.active_count())

        for n in (2000, 4000):
            s0 = tumour_edge(n)
            for runs in ((s0, Constant(1.0), p), ([s0, s0], [Constant(1.0)] * 2, [p, p])):
                seen.clear()
                run(*runs, opts, T=0.03, observers=[observe])
                assert seen and seen == [before] * len(seen), (n, seen)
                assert threading.active_count() == before


@st.composite
def meshes(draw):
    # offset domains, whose linspace widths take several values
    n = draw(st.integers(3, 40))
    xmin = draw(st.floats(-1.0, 1.0))
    length = draw(st.floats(0.5, 2.0))
    return build_uniform_mesh(xmin, xmin + length, length / n)


@st.composite
def stepper_cases(draw):
    mesh = draw(meshes())
    n = mesh.n_cells
    unit = hnp.arrays(float, n, elements=st.floats(0.0, 1.0))
    state = SimulationState(mesh, 0.0, draw(unit), draw(unit), draw(unit))
    p = ModelParameters(
        d=draw(st.floats(0.1, 50.0)),
        r=draw(st.floats(0.1, 20.0)),
        D=draw(st.floats(1e-5, 0.5)),
        c=draw(st.floats(0.1, 100.0)),
    )
    dt = draw(st.floats(0.01, 1.0)) * reaction_step_limit(p)
    # the jump sits inside the domain, wherever that starts
    x_jump = st.floats(0.05, 0.95).map(lambda f: mesh.xmin + f * (mesh.xmax - mesh.xmin))
    profile = draw(st.one_of(
        st.builds(SingleJump, st.floats(0.01, 2.0), st.floats(0.01, 2.0), x_jump),
        st.builds(Sinusoidal, st.just(0.05), st.floats(0.05, 2.0), st.floats(1.0, 200.0)),
    ))
    opts = SchemeOptions(dt=dt)
    return state, profile, p, opts, draw(st.integers(2, 6))


class TestOneStepper:
    @pytest.mark.filterwarnings("ignore::acidfront.errors.ResolutionWarning")
    @settings(max_examples=60, deadline=None)
    @given(stepper_cases())
    def test_run_equals_repeated_steps(self, case):
        # run() factors the acid matrix once and reuses it; step_imex
        # factors afresh every call, so a clobbered factor shows as a
        # difference from the second step on
        s0, profile, p, opts, k = case
        a_cells = project_cell_averages(profile, s0.mesh)
        expected = s0
        try:
            for _ in range(k):
                expected = step_imex(expected, a_cells, p, opts)
        except InstabilityError:
            with pytest.raises(InstabilityError):
                run(s0, profile, p, opts, T=k * opts.dt)
            return
        out = run(s0, profile, p, opts, T=k * opts.dt)
        assert out.time == expected.time
        for name in ("u", "v", "w"):
            assert np.array_equal(getattr(out, name), getattr(expected, name)), name


@st.composite
def blocked_cases(draw):
    # dt up to ten times the reaction limit, so that about one run in eight
    # breaks down, and blocks of 1 to 4 steps, so that runs span blocks and
    # break down at any place in a block
    state, profile, p, opts, _ = draw(stepper_cases())
    opts = SchemeOptions(dt=opts.dt * draw(st.floats(1.0, 10.0)))
    return state, profile, p, opts, draw(st.integers(1, 12)), draw(st.integers(1, 4))


def block_size(steps: int, state: SimulationState) -> int:
    """A block budget that makes ``run`` march ``state`` ``steps`` at a time."""
    return 24 * state.u.size * steps


def tumour_edge(n: int) -> SimulationState:
    """A tumour edge at x = 0.25 in intact tissue, on ``n`` cells of [0, 1]."""
    m = build_uniform_mesh(0.0, 1.0, 1.0 / n)
    v0 = np.where(m.centers < 0.25, 1.0, 0.0)
    return SimulationState(m, 0.0, 1.0 - v0, v0, np.zeros(n))


def lapack_with(solve: str, replace):
    """The bound LAPACK with its routine ``solve`` ("gtsv" or "gttrs")
    replaced by ``replace(routine)``."""
    lapack = copy.copy(scheme._LAPACK)
    setattr(lapack, solve, replace(getattr(lapack, solve)))
    return lapack


def keep_rows(kept):
    """Observer keeping a copy of every row it is shown, by step index."""

    def observe(first, times, fields):
        for j in range(len(times)):
            kept.setdefault(first + j, (float(times[j]), np.array(fields[j])))

    return observe


class TestBlocks:
    @pytest.mark.filterwarnings("ignore::acidfront.errors.ResolutionWarning")
    @pytest.mark.filterwarnings("ignore::acidfront.errors.StabilityWarning")
    @settings(max_examples=80, deadline=None)
    @given(blocked_cases())
    def test_blocks_equal_repeated_steps_up_to_the_failing_one(self, case):
        # the checks run once per block, yet a breakdown is reported at the
        # step and time, with the message, of a step_imex loop, and the
        # observers have seen exactly the states before it
        s0, profile, p, opts, k, per_block = case
        a_cells = project_cell_averages(profile, s0.mesh)
        expected = [s0]
        failure = None
        for step in range(k):
            try:
                expected.append(step_imex(expected[-1], a_cells, p, opts))
            except InstabilityError as exc:
                failure = (step, expected[-1].time, str(exc))
                break
        kept = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(scheme, "_BLOCK_BYTES", block_size(per_block, s0))
            if failure is None:
                out = run(s0, profile, p, opts, T=k * opts.dt, observers=[keep_rows(kept)])
                assert out.time == expected[-1].time
                for name in ("u", "v", "w"):
                    assert np.array_equal(getattr(out, name), getattr(expected[-1], name)), name
            else:
                with pytest.raises(InstabilityError) as excinfo:
                    run(s0, profile, p, opts, T=k * opts.dt, observers=[keep_rows(kept)])
                step, time, message = failure
                assert (excinfo.value.step, excinfo.value.time) == (step, time)
                assert str(excinfo.value) == f"run became unstable at step {step} (t={time!r}): {message}"
        seen = len(expected) if failure is None or failure[0] > 0 else 0
        assert sorted(kept) == list(range(seen))
        for step, (time, fields) in kept.items():
            state = expected[step]
            assert time == state.time
            assert np.array_equal(fields, np.stack([state.u, state.v, state.w]))

    BREAKDOWNS = pytest.mark.parametrize(
        "kind, u0, v0, p, dt",
        [
            # the healthy logistic u + dt*u*(1 - u) overshoots 1 after a few steps
            ("negative tumour interface coefficient", 0.01, 0.0, raw_params(d=1.0, r=1.0, D=1e-3, c=1.0), 2.5),
            # no healthy tissue, so no coefficient goes negative; a tumour
            # logistic step with r*dt = 1000 overflows v within a few steps
            ("non-finite field values", 0.0, 0.5, raw_params(d=1.0, r=1000.0, D=1e-3, c=1.0), 1.0),
        ],
    )

    @pytest.mark.filterwarnings("ignore::acidfront.errors.StabilityWarning")
    @pytest.mark.parametrize("per_block", [1, 2, 3, 4, 5, 8])
    @BREAKDOWNS
    def test_breakdown_reported_at_its_step(self, monkeypatch, per_block, kind, u0, v0, p, dt):
        self.breakdown_at_its_step(monkeypatch, 20, per_block, kind, u0, v0, p, dt)

    @pytest.mark.filterwarnings("ignore::acidfront.errors.StabilityWarning")
    @pytest.mark.parametrize("per_block", [1, 2, 3, 4, 5, 8])
    @BREAKDOWNS
    def test_breakdown_reported_at_its_step_on_a_fine_mesh(self, monkeypatch, per_block, kind, u0, v0, p, dt):
        # 2 000 cells, the size the fine-mesh workload's solves start at
        self.breakdown_at_its_step(monkeypatch, 2000, per_block, kind, u0, v0, p, dt)

    @staticmethod
    def breakdown_at_its_step(monkeypatch, n, per_block, kind, u0, v0, p, dt):
        """A run of ``n`` cells of uniform fields, in blocks of ``per_block``
        steps, breaks down for ``kind`` at the step and time of a step_imex
        loop, after its observers have seen every state before it."""
        m = build_uniform_mesh(0.0, 1.0, 1.0 / n)
        s0 = SimulationState(m, 0.0, np.full(n, u0), np.full(n, v0), np.zeros(n))
        opts = SchemeOptions(dt=dt)
        states = [s0]
        with pytest.raises(InstabilityError) as single:
            for _ in range(20):
                states.append(step_imex(states[-1], np.ones(n), p, opts))
        steps = len(states) - 1
        assert str(single.value).startswith(kind)
        if u0 > 0.0:
            # u has no diffusion: the breakdown step follows from the scalar map
            u, overshoot = u0, 0
            while (u := u + dt * u * (1.0 - u)) <= 1.0:
                overshoot += 1
            assert steps == overshoot
        monkeypatch.setattr(scheme, "_BLOCK_BYTES", block_size(per_block, s0))
        kept = {}
        with pytest.raises(InstabilityError) as blocked:
            run(s0, Constant(1.0), p, opts, T=20 * dt, observers=[keep_rows(kept)])
        time = states[-1].time
        assert (blocked.value.step, blocked.value.time) == (steps, time)
        assert str(blocked.value) == f"run became unstable at step {steps} (t={time!r}): {single.value}"
        assert sorted(kept) == list(range(steps + 1))
        for step, state in enumerate(states):
            assert np.array_equal(kept[step][1], np.stack([state.u, state.v, state.w]))

    @pytest.mark.parametrize("per_block", [1, 3])
    @pytest.mark.parametrize(
        "solve, reason",
        [
            ("gtsv", "singular tridiagonal system (LAPACK gtsv info=7)"),
            ("gttrs", "acid solve failed (LAPACK gttrs info=7)"),
        ],
    )
    def test_solve_failure_reported_at_its_step(self, monkeypatch, per_block, solve, reason):
        # the routine solves, and on its fifth call also writes INFO = 7 into
        # its step's slot: the run stops after four good steps with that
        # solve's reason, after its observers have seen those four steps
        s0, p, opts = tumour_edge(20), reference_params(), SchemeOptions(dt=0.01)
        states = [s0]
        for _ in range(4):
            states.append(step_imex(states[-1], np.ones(20), p, opts))
        integer = ctypes.POINTER(scheme._LAPACK.integer)

        def failing_on_the_fifth_call(routine):
            calls = []

            def call(*args):
                routine(*args)
                calls.append(None)
                if len(calls) == 5:
                    # INFO is gtsv's last argument; gttrs's hidden length follows it
                    info = args[-1] if solve == "gtsv" else args[-2]
                    ctypes.cast(info, integer).contents.value = 7

            return call

        monkeypatch.setattr(scheme, "_LAPACK", lapack_with(solve, failing_on_the_fifth_call))
        monkeypatch.setattr(scheme, "_BLOCK_BYTES", block_size(per_block, s0))
        kept = {}
        with pytest.raises(InstabilityError) as blocked:
            run(s0, Constant(1.0), p, opts, T=0.1, observers=[keep_rows(kept)])
        time = states[4].time
        assert (blocked.value.step, blocked.value.time) == (4, time)
        assert str(blocked.value) == f"run became unstable at step 4 (t={time!r}): {reason}"
        assert sorted(kept) == list(range(5))
        for step, state in enumerate(states):
            assert np.array_equal(kept[step][1], np.stack([state.u, state.v, state.w]))

    def test_kept_states_are_frozen_and_outlive_the_blocks(self, monkeypatch):
        m = build_uniform_mesh(0.0, 1.0, 0.01)
        x = m.centers
        v0 = np.where(x < 0.25, 1.0, 0.0)
        s0 = SimulationState(m, 0.0, 1.0 - v0, v0, np.zeros(m.n_cells))
        p, opts = reference_params(), SchemeOptions(dt=0.01)
        monkeypatch.setattr(scheme, "_BLOCK_BYTES", block_size(3, s0))
        views, copies = [], {}

        def observe(first, times, fields):
            assert not fields.flags.writeable and not times.flags.writeable
            with pytest.raises(ValueError):
                fields[-1, 0, 0] = 2.0
            views.append(fields)
            keep_rows(copies)(first, times, fields)

        final = run(s0, Constant(1.0), p, opts, T=0.1, observers=[observe])
        assert len(views) == 4  # blocks of 3, 3, 3 and 1 steps
        # the views share one buffer that later blocks overwrite; a copy an
        # observer keeps, and the returned state, are not views of it
        assert all(np.shares_memory(views[0], view) for view in views)
        assert not any(np.shares_memory(final.u, view) or np.shares_memory(final.w, view) for view in views)
        for name in ("u", "v", "w"):
            assert not getattr(final, name).flags.writeable
        states = [s0]
        for _ in range(10):
            states.append(step_imex(states[-1], project_cell_averages(Constant(1.0), m), p, opts))
        for step, state in enumerate(states):
            assert np.array_equal(copies[step][1], np.stack([state.u, state.v, state.w])), step
        assert np.array_equal(np.stack([final.u, final.v, final.w]), copies[10][1])
        # a second run reuses nothing of the first
        kept_u = final.u.copy()
        run(final, Constant(1.0), p, opts, T=0.2)
        assert np.array_equal(final.u, kept_u)


class TestReactionLimit:
    @pytest.mark.filterwarnings("ignore::acidfront.errors.ResolutionWarning")
    @settings(max_examples=60, deadline=None)
    @given(stepper_cases())
    def test_densities_stay_in_range_within_the_limit(self, case):
        # within the limit the explicit stage maps [0, 1]^3 into itself and
        # each implicit solve is an M-matrix solve with unit row sums
        s0, profile, p, opts, _ = case

        def in_range(first, times, fields):
            for i, name in enumerate("uvw"):
                field = fields[1:, i]
                assert field.min() >= -1e-12 and field.max() <= 1.0 + 1e-12, (name, first)

        run(s0, profile, p, opts, T=20 * opts.dt, observers=[in_range])


@st.composite
def batch_cases(draw):
    mesh = build_uniform_mesh(0.0, 1.0, 1.0 / draw(st.integers(3, 40)))
    n = mesh.n_cells
    dt = draw(st.floats(0.005, 0.05))
    D = draw(st.floats(1e-5, 0.5))
    unit = hnp.arrays(float, n, elements=st.floats(0.0, 1.0))
    profile = st.one_of(
        st.builds(SingleJump, st.floats(0.01, 2.0), st.floats(0.01, 2.0), st.floats(0.05, 0.95)),
        st.builds(Sinusoidal, st.just(0.05), st.floats(0.05, 2.0), st.floats(1.0, 200.0)),
        st.builds(
            PeriodicPiecewiseConstant,
            st.floats(0.01, 2.0), st.floats(0.01, 2.0), st.floats(0.05, 0.95), st.floats(1.0, 50.0),
        ),
    )
    states, profiles, params = [], [], []
    for _ in range(draw(st.integers(1, 6))):
        states.append(SimulationState(mesh, 0.0, draw(unit), draw(unit), draw(unit)))
        profiles.append(draw(profile))
        # d within the reaction limit of the shared dt, r and c up to twice
        # it, so that some runs leave [0, 1] and break down
        params.append(ModelParameters(
            d=draw(st.floats(0.1, min(50.0, 1.0 / dt))),
            r=draw(st.floats(0.1, min(20.0, 2.0 / dt))),
            D=D,
            c=draw(st.floats(0.1, min(100.0, 2.0 / dt))),
        ))
    opts = SchemeOptions(dt=dt)
    return states, profiles, params, opts, draw(st.integers(1, 6))


def march(mesh, state, profile, p, opts, steps):
    """Run with both recorders; also counts the front-proximity warnings."""
    speed = WaveSpeedRecorder(mesh, opts.dt)
    low = PositivityRecorder()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        final = run(state, profile, p, opts, T=steps * opts.dt, observers=[speed, low])
    fronts = sum(issubclass(w.category, FrontProximityWarning) for w in caught)
    return final, speed, low, fronts


class TestBatch:
    @settings(max_examples=60, deadline=None)
    @given(batch_cases())
    def test_batch_equals_single_runs(self, case):
        # zeroed junction couplings make the block-diagonal batch reproduce
        # each run on its own bit for bit
        states, profiles, params, opts, steps = case
        mesh, runs = states[0].mesh, len(states)
        try:
            singles = [march(mesh, *run_args, opts, steps) for run_args in zip(states, profiles, params)]
        except InstabilityError:
            # a batch breaks down when any of its runs does
            with pytest.raises(InstabilityError):
                march(mesh, states, profiles, params, opts, steps)
            return
        batch, speed, low, fronts = march(mesh, states, profiles, params, opts, steps)
        assert len(batch) == runs
        assert fronts == sum(single[3] for single in singles)
        # a batch has one flag per run, and one column of ranges per run
        near = np.atleast_1d(speed.front_near_boundary)
        minima, maxima = low.minima.reshape(3, -1), low.maxima.reshape(3, -1)
        assert near.shape == (runs,) and minima.shape == maxima.shape == (3, runs)
        for b, (final, single_speed, single_low, _) in enumerate(singles):
            block = batch[b]
            assert block.time == final.time
            for name in ("u", "v", "w"):
                assert np.array_equal(getattr(block, name), getattr(final, name)), name
            assert np.array_equal(speed.series(b).thetas, single_speed.series().thetas)
            assert np.array_equal(speed.series(b).times, single_speed.series().times)
            assert np.array_equal(minima[:, b], single_low.minima)
            assert np.array_equal(maxima[:, b], single_low.maxima)
            assert near[b] == single_speed.front_near_boundary
