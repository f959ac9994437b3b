"""Atom-cavity master equation, single-rate model, and quantum-jump unraveling."""

import math
import warnings

import numpy as np
import pytest

from mirrorqed import dynamics, errors

# fit of the slow decay eigenvalue of the exact Liouvillian at
# (g, kappa, gamma) = (1, 20, 1), frozen from the scipy solve_ivp oracle
SLOW_RATE_ORACLE = 1.2129121894966453


def params_weak():
    return dynamics.ModelParams(g=1.0, kappa=20.0, gamma=1.0)


class TestModelParams:
    def test_max_rate(self):
        assert params_weak().max_rate == 20.0
        assert dynamics.ModelParams(g=7.0, kappa=0.5, gamma=2.0).max_rate == 7.0

    @pytest.mark.parametrize("kwargs", [
        dict(g=1.0, kappa=-1.0, gamma=1.0),
        dict(g=1.0, kappa=1.0, gamma=-1.0),
        dict(g=math.nan, kappa=1.0, gamma=1.0),
    ])
    def test_bad_rates_rejected(self, kwargs):
        with pytest.raises(errors.InvalidParams):
            dynamics.ModelParams(**kwargs)

    def test_coupling_sign_is_irrelevant(self):
        # only |g| enters; a sign on g is a frame choice
        assert dynamics.ModelParams(g=-2.0, kappa=1.0, gamma=1.0).max_rate == 2.0

    def test_cooperativity(self):
        assert dynamics.cooperativity(params_weak()) == pytest.approx(0.05, rel=1e-15)
        with pytest.raises(errors.InvalidParams):
            dynamics.cooperativity(dynamics.ModelParams(g=1.0, kappa=0.0, gamma=1.0))
        with pytest.raises(errors.InvalidParams):
            dynamics.cooperativity(dynamics.ModelParams(g=1.0, kappa=1.0, gamma=0.0))

    def test_effective_decay_rate(self):
        # gamma * (1 + 4 C) = 1 + 4 g^2 / kappa
        assert dynamics.effective_decay_rate(params_weak()) == pytest.approx(1.2, rel=1e-14)

    def test_coupling_regime_labels(self):
        assert "weak" in dynamics.coupling_regime(params_weak())
        assert "strong" in dynamics.coupling_regime(
            dynamics.ModelParams(g=5.0, kappa=0.1, gamma=0.1)
        )
        assert "intermediate" in dynamics.coupling_regime(
            dynamics.ModelParams(g=1.0, kappa=2.0, gamma=1.0)
        )


class TestAtomCavityState:
    def test_excited_vacuum_populations(self):
        st = dynamics.AtomCavityState.excited_vacuum(n_fock=4)
        assert st.dim == 10
        assert st.excited_population == pytest.approx(1.0)
        assert st.photon_number == pytest.approx(0.0)

    def test_from_atom_embeds_vacuum(self):
        rho_atom = np.array([[0.25, 0.1], [0.1, 0.75]])
        st = dynamics.AtomCavityState.from_atom(rho_atom, n_fock=3)
        assert st.dim == 8
        assert st.excited_population == pytest.approx(0.75)
        assert st.photon_number == pytest.approx(0.0)

    def test_validators(self):
        n = 4
        bad_trace = np.eye(n, dtype=complex) / (n - 1)
        with pytest.raises(errors.InvalidParams):
            dynamics.AtomCavityState(rho=bad_trace, n_fock=1)
        nonherm = np.eye(n, dtype=complex) / n
        nonherm[0, 1] = 0.5
        with pytest.raises(errors.InvalidParams):
            dynamics.AtomCavityState(rho=nonherm, n_fock=1)
        neg = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        with pytest.raises(errors.InvalidParams):
            dynamics.AtomCavityState(rho=neg, n_fock=1)
        with pytest.raises(errors.InvalidParams):
            dynamics.AtomCavityState(rho=np.eye(6, dtype=complex) / 6.0, n_fock=1)


class TestEvolveJC:
    def test_invariants_weak_coupling(self):
        traj = dynamics.evolve_jc(
            params_weak(),
            dynamics.AtomCavityState.excited_vacuum(),
            t_final=2.0,
            dt=1e-3,
        )
        assert traj.trace_error < 1e-9
        assert traj.hermiticity_error < 1e-10
        pops = traj.excited_population
        assert np.all(pops >= -1e-12)
        assert np.all(pops <= 1.0 + 1e-12)
        assert traj.top_fock_max < 1e-8

    def test_population_decays_toward_zero(self):
        traj = dynamics.evolve_jc(
            params_weak(),
            dynamics.AtomCavityState.excited_vacuum(),
            t_final=6.0,
            dt=1e-3,
        )
        assert traj.excited_population[-1] < 1e-3
        rate = dynamics.fit_decay_rate(traj.times, traj.excited_population, 1.0, 5.0)
        assert rate == pytest.approx(SLOW_RATE_ORACLE, rel=5e-4)

    def test_lossless_rabi_oscillation(self):
        # g = 1, kappa = gamma = 0: pure vacuum Rabi exchange at frequency 2g
        p = dynamics.ModelParams(g=1.0, kappa=0.0, gamma=0.0)
        traj = dynamics.evolve_jc(
            p, dynamics.AtomCavityState.excited_vacuum(), t_final=math.pi, dt=5e-4
        )
        excitation = traj.excitation_number
        np.testing.assert_allclose(excitation, excitation[0], atol=1e-8)
        expected = np.cos(traj.times) ** 2
        np.testing.assert_allclose(traj.excited_population, expected, atol=1e-7)

    def test_decoupled_atom_decays_at_bare_rate(self):
        p = dynamics.ModelParams(g=0.0, kappa=3.0, gamma=1.0)
        traj = dynamics.evolve_jc(
            p, dynamics.AtomCavityState.excited_vacuum(), t_final=4.0, dt=1e-3
        )
        np.testing.assert_allclose(
            traj.excited_population, np.exp(-traj.times), atol=1e-9
        )

    def test_step_control(self):
        with pytest.raises(errors.StepTooLarge):
            dynamics.evolve_jc(
                params_weak(),
                dynamics.AtomCavityState.excited_vacuum(),
                t_final=1.0,
                dt=0.01,
            )

    def test_truncation_leak_detected(self):
        # n_fock = 1 cannot hold the photon emitted by the excited atom
        p = dynamics.ModelParams(g=1.0, kappa=0.0, gamma=0.0)
        with pytest.raises(errors.TruncationLeak):
            dynamics.evolve_jc(
                p,
                dynamics.AtomCavityState.excited_vacuum(n_fock=1),
                t_final=2.0,
                dt=1e-3,
            )

    def test_halving_dt_changes_little(self):
        st = dynamics.AtomCavityState.excited_vacuum()
        a = dynamics.evolve_jc(params_weak(), st, t_final=1.0, dt=2e-3)
        b = dynamics.evolve_jc(params_weak(), st, t_final=1.0, dt=1e-3)
        assert abs(a.excited_population[-1] - b.excited_population[-1]) < 1e-10


class TestSingleRate:
    def test_exact_exponential(self):
        rho0 = np.array([[0.3, 0.2], [0.2, 0.7]])
        t = np.linspace(0.0, 5.0, 21)
        traj = dynamics.evolve_single_rate(1.3, rho0, t)
        np.testing.assert_allclose(
            traj.excited_population, 0.7 * np.exp(-1.3 * t), rtol=1e-12
        )
        np.testing.assert_allclose(
            traj.coherence, 0.2 * np.exp(-0.65 * t), rtol=1e-12
        )

    def test_scalar_horizon_builds_grid(self):
        traj = dynamics.evolve_single_rate(1.0, np.diag([0.0, 1.0]), 3.0)
        assert traj.times[0] == 0.0
        assert traj.times[-1] == 3.0
        assert traj.excited_population[0] == pytest.approx(1.0)

    def test_trace_preserved(self):
        rho0 = np.array([[0.4, 0.1j], [-0.1j, 0.6]])
        traj = dynamics.evolve_single_rate(0.8, rho0, np.linspace(0.0, 2.0, 9))
        traces = np.einsum("tii->t", traj.rhos).real
        np.testing.assert_allclose(traces, 1.0, atol=1e-14)

    def test_zero_rate_is_frozen(self):
        traj = dynamics.evolve_single_rate(0.0, np.diag([0.2, 0.8]), 2.0)
        np.testing.assert_allclose(traj.excited_population, 0.8, atol=1e-15)


class TestQuantumJumps:
    def test_mean_tracks_exponential(self):
        t = np.linspace(0.0, 3.0, 31)
        ens = dynamics.unravel_jumps(1.0, np.diag([0.0, 1.0]), 2000, 99, t)
        target = np.exp(-t)
        score = np.max(
            np.abs(ens.excited_population - target)[1:] / ens.stderr[1:]
        )
        assert score < 4.0

    def test_deterministic_given_seed(self):
        t = np.linspace(0.0, 2.0, 11)
        a = dynamics.unravel_jumps(1.0, np.diag([0.0, 1.0]), 50, 7, t)
        b = dynamics.unravel_jumps(1.0, np.diag([0.0, 1.0]), 50, 7, t)
        np.testing.assert_array_equal(a.excited_population, b.excited_population)
        np.testing.assert_array_equal(a.jump_times, b.jump_times)

    def test_single_trajectory_is_step_function(self):
        t = np.linspace(0.0, 5.0, 201)
        ens = dynamics.unravel_jumps(1.0, np.diag([0.0, 1.0]), 1, 3, t)
        tj = ens.jump_times[0]
        assert np.isfinite(tj)
        pops = ens.excited_population
        np.testing.assert_array_equal(pops[t < tj], 1.0)
        np.testing.assert_array_equal(pops[t >= tj], 0.0)

    def test_ground_state_never_jumps(self):
        t = np.linspace(0.0, 2.0, 5)
        ens = dynamics.unravel_jumps(1.0, np.diag([1.0, 0.0]), 20, 1, t)
        assert np.all(np.isinf(ens.jump_times))
        np.testing.assert_allclose(ens.excited_population, 0.0, atol=1e-15)

    def test_zero_rate_never_jumps(self):
        t = np.linspace(0.0, 2.0, 5)
        ens = dynamics.unravel_jumps(0.0, np.diag([0.0, 1.0]), 20, 1, t)
        assert np.all(np.isinf(ens.jump_times))
        np.testing.assert_allclose(ens.excited_population, 1.0, atol=1e-15)

    def test_mixed_initial_state_mean(self):
        rho0 = np.array([[0.5, 0.3], [0.3, 0.5]])
        t = np.linspace(0.0, 2.0, 9)
        ens = dynamics.unravel_jumps(1.0, rho0, 4000, 5, t)
        target = 0.5 * np.exp(-t)
        assert np.all(np.abs(ens.excited_population - target)[1:] <= 4.0 * ens.stderr[1:])

    def test_stderr_shrinks_with_ensemble_size(self):
        t = np.linspace(0.0, 2.0, 9)
        small = dynamics.unravel_jumps(1.0, np.diag([0.0, 1.0]), 500, 21, t)
        large = dynamics.unravel_jumps(1.0, np.diag([0.0, 1.0]), 2000, 21, t)
        mid = len(t) // 2
        assert large.stderr[mid] < small.stderr[mid]
        assert large.stderr[mid] == pytest.approx(0.5 * small.stderr[mid], rel=0.35)

    @pytest.mark.parametrize("rho0", [
        np.diag([0.0, 1.0]),
        np.diag([0.35, 0.65]),
        np.array([[0.3, 0.1], [0.1, 0.7]]),
    ], ids=["pure", "mixed", "coherent"])
    def test_matches_brute_force_population_matrix(self, rho0):
        # reference: every trajectory's population at every time, built
        # from the documented stream layout (draws 2i and 2i + 1)
        gamma, n, seed = 1.3, 3000, 11
        t = np.linspace(0.0, 4.0, 41)
        draws = np.random.Generator(np.random.PCG64(seed)).random((n, 2))
        evals, evecs = np.linalg.eigh(rho0)
        cdf = np.cumsum(np.clip(evals, 0.0, None) / evals.sum())
        state = np.minimum(np.searchsorted(cdf, draws[:, 0], side="right"), 1)
        pe = np.abs(evecs[1, state]) ** 2
        pg = 1.0 - pe
        jt = np.full(n, np.inf)
        jumps = draws[:, 1] > pg
        jt[jumps] = -np.log((draws[jumps, 1] - pg[jumps]) / pe[jumps]) / gamma
        surv = np.exp(-gamma * t)
        pop = np.where(t[None, :] < jt[:, None],
                       pe[:, None] * surv / (pg[:, None] + pe[:, None] * surv),
                       0.0)

        ens = dynamics.unravel_jumps(gamma, rho0, n, seed, t)
        np.testing.assert_array_equal(ens.jump_times, jt)
        np.testing.assert_allclose(ens.excited_population, pop.mean(axis=0),
                                   rtol=1e-12)
        np.testing.assert_allclose(ens.stderr,
                                   pop.std(axis=0, ddof=1) / math.sqrt(n),
                                   rtol=1e-12)

    def test_block_regenerates_from_advanced_stream(self):
        seed, n, lo, hi = 17, 400, 150, 260
        whole = np.random.Generator(np.random.PCG64(seed)).random((n, 2))
        bitgen = np.random.PCG64(seed)
        bitgen.advance(2 * lo)
        block = np.random.Generator(bitgen).random((hi - lo, 2))
        np.testing.assert_array_equal(block, whole[lo:hi])
        # excited start, unit rate: the jump clock is -log of draw 2i + 1
        ens = dynamics.unravel_jumps(1.0, np.diag([0.0, 1.0]), n, seed,
                                     np.linspace(0.0, 1.0, 3))
        np.testing.assert_array_equal(ens.jump_times[lo:hi],
                                      -np.log(block[:, 1]))

    def test_smaller_ensemble_is_a_prefix(self):
        t = np.linspace(0.0, 2.0, 5)
        rho0 = np.array([[0.3, 0.1], [0.1, 0.7]])
        small = dynamics.unravel_jumps(1.0, rho0, 50, 8, t)
        big = dynamics.unravel_jumps(1.0, rho0, 200, 8, t)
        np.testing.assert_array_equal(small.jump_times, big.jump_times[:50])

    @pytest.mark.parametrize("rho0", [
        np.diag([0.0, 1.0]),
        np.array([[0.3, 0.1], [0.1, 0.7]]),
    ], ids=["pure", "coherent"])
    def test_long_grid_is_finite_without_warnings(self, rho0):
        t = np.linspace(0.0, 800.0, 81)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ens = dynamics.unravel_jumps(1.0, rho0, 500, 4, t)
        assert np.all(np.isfinite(ens.excited_population))
        assert np.all(np.isfinite(ens.stderr))


class TestModelDiscrepancy:
    def test_weak_coupling_close_to_adjusted_rate(self):
        p = dynamics.ModelParams(g=1.0, kappa=100.0, gamma=1.0)  # C = 0.01
        t = np.linspace(0.0, 5.0, 26)
        res = dynamics.model_discrepancy(p, gamma_cav=1.02, t_grid=t)
        assert res.max_abs < 0.02

    def test_decoupled_exact(self):
        p = dynamics.ModelParams(g=0.0, kappa=5.0, gamma=1.0)
        t = np.linspace(0.0, 4.0, 17)
        res = dynamics.model_discrepancy(p, gamma_cav=1.0, t_grid=t)
        assert res.max_abs < 1e-8

    def test_strong_coupling_breaks_single_rate_model(self):
        p = dynamics.ModelParams(g=1.0, kappa=0.1, gamma=1.0)  # C = 10
        t = np.linspace(0.0, 3.0, 31)
        res = dynamics.model_discrepancy(p, gamma_cav=1.0, t_grid=t)
        assert res.max_abs > 0.1

    def test_difference_property(self):
        p = dynamics.ModelParams(g=0.0, kappa=2.0, gamma=1.0)
        t = np.linspace(0.0, 1.0, 5)
        res = dynamics.model_discrepancy(p, gamma_cav=1.5, t_grid=t)
        np.testing.assert_allclose(res.difference, res.pop_jc - res.pop_single)

    @pytest.mark.parametrize("g, kappa, gamma", [
        (0.05, 10.0, 1.0),
        (1.0, 20.0, 1.0),
        (2.25, 10.0, 1.0),    # exceptional point g = (kappa - gamma)/4
        (5.0, 1.0, 1.0),
        (1.0, 100.0, 1.0),
        (0.3, 0.2, 0.1),
    ])
    def test_non_uniform_grid_matches_oracle(self, g, kappa, gamma):
        from . import oracles

        p = dynamics.ModelParams(g=g, kappa=kappa, gamma=gamma)
        t = np.array([0.0, 0.05, 0.3, 0.31, 1.0, 1.7, 2.9, 3.0])
        res = dynamics.model_discrepancy(p, gamma_cav=1.0, t_grid=t)
        _, ref = oracles.solve_jc_reference(g, kappa, gamma, 5, t)
        np.testing.assert_allclose(res.pop_jc, ref, rtol=0, atol=1e-8)

    def test_grid_must_increase_from_zero(self):
        p = params_weak()
        with pytest.raises(errors.InvalidParams):
            dynamics.model_discrepancy(p, 1.0, np.array([0.5, 0.2, 1.0]))


class TestExpm:
    """The Pade propagator against scipy's expm on the model Liouvillian."""

    @pytest.mark.parametrize("g, kappa, gamma, dt", [
        (1.0, 100.0, 1.0, 0.2),     # weak coupling, C = 0.01
        (10.0, 10.0, 1.0, 0.2),     # strong coupling, C = 10
        (2.25, 10.0, 1.0, 0.2),     # exceptional point g = (kappa - gamma)/4
        (1.0, 100.0, 1.0, 3.0),     # large norm: needs squaring
    ])
    def test_matches_scipy(self, g, kappa, gamma, dt):
        from scipy.linalg import expm

        lv = dynamics._liouvillian(dynamics.ModelParams(g, kappa, gamma), 5)
        got = dynamics._expm(lv * dt)
        ref = expm(lv * dt)
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_zero_is_identity(self):
        got = dynamics._expm(np.zeros((6, 6), complex))
        assert np.max(np.abs(got - np.eye(6))) <= 1e-15


class TestFitDecayRate:
    def test_recovers_exact_rate(self):
        t = np.linspace(0.0, 5.0, 101)
        pops = 0.9 * np.exp(-1.7 * t)
        assert dynamics.fit_decay_rate(t, pops, 0.5, 4.5) == pytest.approx(1.7, rel=1e-12)

    def test_empty_window_rejected(self):
        t = np.linspace(0.0, 5.0, 11)
        pops = np.exp(-t)
        with pytest.raises(errors.InvalidParams):
            dynamics.fit_decay_rate(t, pops, 9.0, 10.0)
