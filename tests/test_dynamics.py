"""Atom-cavity master equation, single-rate model, and quantum-jump unraveling."""

import math
import tracemalloc
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

    def test_overflowing_effective_rate_is_refused(self):
        huge = dynamics.ModelParams(g=1e200, kappa=20.0, gamma=1.0)
        with pytest.raises(errors.InvalidParams, match="overflows"):
            dynamics.effective_decay_rate(huge)
        for params in (huge, dynamics.ModelParams(g=1e300, kappa=1.0,
                                                  gamma=1.0)):
            with pytest.raises(errors.InvalidParams, match="overflows"):
                dynamics.cooperativity(params)

    def test_tiny_rates_give_a_typed_error_or_the_cooperativity(self):
        # kappa gamma underflows to 0: this once raised ZeroDivisionError
        tiny = dynamics.ModelParams(g=1.0, kappa=1e-300, gamma=1e-300)
        for route in (dynamics.cooperativity, dynamics.coupling_regime):
            with pytest.raises(errors.InvalidParams, match="overflows"):
                route(tiny)
        assert dynamics.cooperativity(dynamics.ModelParams(
            g=0.0, kappa=1e-300, gamma=1e-300)) == 0.0
        assert dynamics.cooperativity(dynamics.ModelParams(
            g=1e-160, kappa=1e-300, gamma=1e-300)) == pytest.approx(
                1e280, rel=1e-14)

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


def test_fock_cutoff_past_the_memory_budget_is_refused():
    # a state at n_fock = 1830 takes 80 B x 3662^2, just under 1 GiB
    tracemalloc.start()
    try:
        for n_fock in (dynamics._MAX_N_FOCK + 1, 10**6):
            with pytest.raises(errors.InvalidParams, match="memory budget"):
                dynamics.AtomCavityState.excited_vacuum(n_fock=n_fock)
            with pytest.raises(errors.InvalidParams, match="memory budget"):
                dynamics.AtomCavityState(np.eye(4) / 4, n_fock=n_fock)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dynamics._MAX_N_FOCK == 1830
    assert peak < 1 << 20


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

    @pytest.mark.parametrize("t_final", [math.inf, 1e300, 1e12, 2e4])
    def test_record_past_the_memory_budget_is_refused(self, t_final):
        # t_final = 2e4 asks for 2e7 steps x 5 entries x 16 B = 1.6 GB;
        # the larger ones once raised OverflowError, ValueError and
        # MemoryError from the allocation
        tracemalloc.start()
        try:
            with pytest.raises(errors.InvalidParams,
                               match="finite|memory budget"):
                dynamics.evolve_jc(
                    dynamics.ModelParams(1.0, 20.0, 1.0),
                    dynamics.AtomCavityState.excited_vacuum(),
                    t_final=t_final,
                    dt=1e-3,
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("dt", [5e-324, 1e-300, 1e-8])
    def test_step_count_past_the_memory_budget_is_refused(self, dt):
        # the same refusal reached from dt: 1 / 5e-324 overflows to inf,
        # and 1e8 steps x 5 entries x 16 B is 8 GB
        tracemalloc.start()
        try:
            with pytest.raises(errors.InvalidParams,
                               match="finite|memory budget"):
                dynamics.evolve_jc(
                    dynamics.ModelParams(1.0, 20.0, 1.0),
                    dynamics.AtomCavityState.excited_vacuum(),
                    t_final=1.0,
                    dt=dt,
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_record_at_the_memory_budget_is_kept(self, monkeypatch):
        # the budget refuses a record larger than it, not one that fills it
        p = dynamics.ModelParams(1.0, 20.0, 1.0)
        rho0 = dynamics.AtomCavityState.excited_vacuum()
        support = dynamics._reachable(p, rho0.n_fock, rho0.rho)
        record_bytes = (1000 + 1) * support.size * 16
        monkeypatch.setattr(errors, "MEMORY_BUDGET_BYTES", record_bytes)
        traj = dynamics.evolve_jc(p, rho0, t_final=1.0, dt=1e-3)
        assert traj.times.size == 1001
        monkeypatch.setattr(errors, "MEMORY_BUDGET_BYTES", record_bytes - 1)
        with pytest.raises(errors.InvalidParams, match="memory budget"):
            dynamics.evolve_jc(p, rho0, t_final=1.0, dt=1e-3)

    def test_dense_state_past_the_memory_budget_is_refused(self):
        # a dense rho0 at n_fock = 25 reaches all 2704^2 entries: its
        # columns of L and its propagator block would pass 1 GiB
        rho0 = dynamics.AtomCavityState(np.full((52, 52), 1.0 / 52),
                                        n_fock=25)
        tracemalloc.start()
        try:
            with pytest.raises(errors.InvalidParams, match="memory budget"):
                dynamics.evolve_jc(params_weak(), rho0, 1.0, 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_sparse_states_within_the_budget_still_run(self):
        # validate's |e,0> at n_fock = 5 and the README's at 15
        for n_fock in (5, 15):
            traj = dynamics.evolve_jc(
                dynamics.ModelParams(1.0, 20.0, 1.0),
                dynamics.AtomCavityState.excited_vacuum(n_fock=n_fock),
                1.0, 1e-3)
            assert traj.support.size == 5

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


def mixed_multi_sector_state(n_fock=5):
    """Mixed state on |g,0>, |e,0>, |g,1>, |e,1>, |g,2>, coherent across
    excitation sectors 0, 1 and 2, clear of the top Fock level."""
    n1 = n_fock + 1
    levels = [0, n1, 1, n1 + 1, 2]
    rng = np.random.default_rng(3)
    amp = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    block = amp @ amp.conj().T
    rho = np.zeros((2 * n1, 2 * n1), dtype=complex)
    rho[np.ix_(levels, levels)] = 0.5 * (block + block.conj().T)
    return dynamics.AtomCavityState(rho=rho / rho.trace().real, n_fock=n_fock)


class TestReachableSupport:
    params = dynamics.ModelParams(g=1.0, kappa=2.0, gamma=0.5)

    def test_matches_dense_stepping(self):
        st = mixed_multi_sector_state()
        traj = dynamics.evolve_jc(self.params, st, t_final=2.0, dt=0.01)
        h = traj.times[1]
        prop = dynamics._expm(dynamics._liouvillian(self.params, 5) * h)
        ref = np.empty((traj.times.size, st.dim * st.dim), dtype=complex)
        ref[0] = st.rho.ravel()
        for k in range(traj.times.size - 1):
            ref[k + 1] = prop @ ref[k]
        assert traj.rhos.shape == (traj.times.size, st.dim, st.dim)
        assert np.max(np.abs(traj.rhos.reshape(ref.shape) - ref)) <= 1e-13
        outside = np.delete(ref, traj.support, axis=1)
        assert not outside.any()
        pops = np.einsum("tii->ti", traj.rhos).real
        assert traj.population_bounds == (pops.min(), pops.max())
        assert traj.trace_error < 1e-12
        assert traj.hermiticity_error < 1e-14

    def test_support_is_invariant_under_the_liouvillian(self):
        st = mixed_multi_sector_state()
        traj = dynamics.evolve_jc(self.params, st, t_final=0.1, dt=0.01)
        lv = dynamics._liouvillian(self.params, 5)
        outside = np.setdiff1d(np.arange(lv.shape[0]), traj.support)
        assert not lv[np.ix_(outside, traj.support)].any()
        assert 22 < traj.support.size < st.dim ** 2

    def test_hermiticity_error_sees_a_non_hermitian_record(self):
        st = mixed_multi_sector_state()
        traj = dynamics.evolve_jc(self.params, st, t_final=0.1, dt=0.01)
        states = traj.states.copy()
        row, col = np.divmod(traj.support, st.dim)
        states[-1, np.flatnonzero(row != col)[0]] += 1e-6
        skewed = dynamics.JCTrajectory(times=traj.times, n_fock=traj.n_fock,
                                       support=traj.support, states=states)
        assert skewed.hermiticity_error == pytest.approx(1e-6, rel=1e-6)

    def test_validate_run_records_no_dense_history(self):
        tracemalloc.start()
        try:
            traj = dynamics.evolve_jc(
                params_weak(), dynamics.AtomCavityState.excited_vacuum(),
                t_final=10.0, dt=5e-4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.times.size == 20_001
        assert traj.support.size == 5
        # the dense (T, 144) complex record alone would take 46 MB
        assert peak <= 5e6

    def test_observables_of_the_validate_run_read_no_dense_history(self):
        traj = dynamics.evolve_jc(
            params_weak(), dynamics.AtomCavityState.excited_vacuum(),
            t_final=10.0, dt=5e-4)
        tracemalloc.start()
        try:
            values = (traj.trace_error, traj.hermiticity_error,
                      traj.excited_population, traj.photon_number,
                      traj.top_fock_max, traj.population_bounds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(values) == 6
        # one (T, 12) float array of the populations alone takes 1.9 MB
        assert peak <= 1e6

    @pytest.mark.parametrize("state, tol", [
        ("mixed", 1e-15),
        ("excited", 0.0),
    ])
    def test_observables_match_the_dense_formulas(self, state, tol):
        st = (mixed_multi_sector_state() if state == "mixed"
              else dynamics.AtomCavityState.excited_vacuum())
        traj = dynamics.evolve_jc(self.params, st, t_final=2.0, dt=0.01)
        rhos = traj.rhos
        pops = np.einsum("tii->ti", rhos).real
        n1 = traj.n_fock + 1
        dense = {
            "excited_population": pops[:, n1:].sum(axis=1),
            "photon_number": pops @ np.tile(np.arange(n1, dtype=float), 2),
            "trace_error": np.max(np.abs(pops.sum(axis=1) - 1.0)),
            "hermiticity_error": np.max(np.abs(
                rhos - rhos.conj().transpose(0, 2, 1))),
            "top_fock_max": np.max(pops[:, n1 - 1] + pops[:, -1]),
            "population_bounds": (pops.min(), pops.max()),
        }
        dense["excitation_number"] = (dense["excited_population"]
                                      + dense["photon_number"])
        for name, want in dense.items():
            got = np.asarray(getattr(traj, name))
            assert np.max(np.abs(got - want)) <= tol, name

    @pytest.mark.parametrize("t_final, dt", [
        (10.0, 5e-4),      # the validate run: the last doubling has 3,617 rows
        (3.072, 1e-3),     # a doubling of 1,025 rows
        (7.777, 1e-3),
    ])
    def test_blocked_fill_equals_one_product_per_doubling(self, monkeypatch,
                                                          t_final, dt):
        for st in (dynamics.AtomCavityState.excited_vacuum(),
                   mixed_multi_sector_state()):
            blocked = dynamics.evolve_jc(self.params, st, t_final, dt)
            n_steps = blocked.times.size - 1
            assert n_steps > 2 * dynamics._FILL_BLOCK
            with monkeypatch.context() as m:
                m.setattr(dynamics, "_FILL_BLOCK", n_steps)
                whole = dynamics.evolve_jc(self.params, st, t_final, dt)
            assert blocked.states.tobytes() == whole.states.tobytes()


    @pytest.mark.parametrize("n_fock", [5, 15])
    def test_support_and_block_match_the_dense_liouvillian(self, n_fock):
        # reference: the closure over the dense matrix's nonzero pattern
        for st in (mixed_multi_sector_state(n_fock),
                   dynamics.AtomCavityState.excited_vacuum(n_fock)):
            lv = dynamics._liouvillian(self.params, n_fock)
            links = lv != 0.0
            reach = ((st.rho != 0.0) | (st.rho.T != 0.0)).ravel()
            while True:
                grown = reach | links[:, reach].any(axis=1)
                if np.array_equal(grown, reach):
                    break
                reach = grown
            support = dynamics._reachable(self.params, n_fock, st.rho)
            np.testing.assert_array_equal(support, np.flatnonzero(reach))
            block = dynamics._liouvillian(self.params, n_fock, support,
                                          support)
            np.testing.assert_array_equal(block,
                                          lv[np.ix_(support, support)])

    def test_memory_does_not_grow_with_n_fock(self):
        tracemalloc.start()
        try:
            traj = dynamics.evolve_jc(
                params_weak(), dynamics.AtomCavityState.excited_vacuum(15),
                t_final=1.0, dt=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.support.size == 5
        # the dense 1024 x 1024 Liouvillian took 64 MiB with its temporaries
        assert peak <= 2 << 20


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

    def test_overflowing_rate_decays_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            traj = dynamics.evolve_single_rate(1e308, np.diag([0.0, 1.0]),
                                               3.0)
        assert traj.excited_population[0] == 1.0
        assert traj.excited_population[1:].tolist() == [0.0] * 100
        assert traj.rhos[1:, 0, 0].real.tolist() == [1.0] * 100

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

    @pytest.mark.parametrize("gamma", [0.0, 1.3])
    def test_results_do_not_depend_on_the_block_size(self, monkeypatch,
                                                     gamma):
        rho0 = np.array([[0.3, 0.1], [0.1, 0.7]])
        t = np.array([0.0, 2.0, 0.5, 0.5, 1.0, 4.0])
        runs = []
        for block in (1, 7, dynamics._TRAJ_BLOCK):
            monkeypatch.setattr(dynamics, "_TRAJ_BLOCK", block)
            ens = dynamics.unravel_jumps(gamma, rho0, 1000, 13, t)
            runs.append([a.tobytes() for a in (
                ens.jump_times, ens.excited_population, ens.stderr)])
        assert runs[0] == runs[1] == runs[2]

    def test_memory_holds_one_float_per_trajectory(self):
        t = np.linspace(0.0, 3.0, 51)
        tracemalloc.start()
        try:
            ens = dynamics.unravel_jumps(1.0, np.diag([0.0, 1.0]), 10**6, 5,
                                         t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ens.jump_times.nbytes == 8 * 10**6
        # drawing every trajectory at once took 62.7 MiB
        assert peak < 16 << 20

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


def test_trajectories_past_the_memory_budget_are_refused():
    tracemalloc.start()
    try:
        with pytest.raises(errors.InvalidParams, match="memory budget"):
            dynamics.unravel_jumps(1.0, np.diag([0.0, 1.0]),
                                   errors.MAX_TRAJECTORIES + 1, 1, [0.0, 1.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_model_params_admit_numpy_floats_as_floats():
    p = dynamics.ModelParams(np.float32(1.0), np.int64(20), 1)
    assert p == dynamics.ModelParams(1.0, 20.0, 1.0)
    assert all(type(v) is float for v in (p.g, p.kappa, p.gamma))


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

    def test_unresolved_phase_refused(self):
        t = np.linspace(0.0, 3.0, 31)
        for g in (1e9, 1e150, 1e200):
            p = dynamics.ModelParams(g=g, kappa=20.0, gamma=1.0)
            with pytest.raises(errors.InvalidParams, match="not resolved"):
                dynamics.model_discrepancy(p, gamma_cav=1.0, t_grid=t)
        edge = dynamics.ModelParams(g=1e9 / 3.0, kappa=20.0, gamma=1.0)
        res = dynamics.model_discrepancy(edge, gamma_cav=1.0, t_grid=t)
        assert np.all((res.pop_jc >= 0.0) & (res.pop_jc <= 1.0))

    @pytest.mark.parametrize("route", ["single", "jumps"])
    def test_infinite_gamma_cav_refused(self, route):
        rho0 = np.diag([0.0, 1.0])
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(errors.InvalidParams, match="finite"):
            if route == "single":
                dynamics.evolve_single_rate(math.inf, rho0, t)
            else:
                dynamics.unravel_jumps(math.inf, rho0, 10, 1, t)

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

    @pytest.mark.parametrize("grid", ["linear", "geomspace"])
    @pytest.mark.parametrize("g, kappa, gamma", [
        (2.25, 10.0, 1.0),    # exceptional point g = (kappa - gamma)/4
        (2.5, 11.0, 1.0),     # exceptional point
        (0.0, 5.0, 1.0),
        (1.0, 0.0, 1.0),
        (1.0, 20.0, 0.0),
        (0.0, 0.0, 0.0),
        (1000.0, 1.0, 1.0),   # strong coupling: the phase |w| t dominates
        (1.0, 1e4, 1.0),      # stiff: w - i a would cancel (1.4e-13)
    ])
    def test_population_within_rounding_bound_of_mpmath(self, g, kappa,
                                                        gamma, grid):
        from . import oracles

        if grid == "linear":
            t = np.linspace(0.0, 3.0, 21)
        else:
            t = np.concatenate([[0.0], np.geomspace(1e-3, 3.0, 20)])
        p = dynamics.ModelParams(g=g, kappa=kappa, gamma=gamma)
        res = dynamics.model_discrepancy(p, gamma_cav=1.0, t_grid=t)
        ref = oracles.no_jump_population_mp(g, kappa, gamma, t)
        # the bound stated in model_discrepancy's docstring, with Re w
        re_w = math.sqrt(max(g * g - ((gamma - kappa) / 4.0) ** 2, 0.0))
        bound = 16.0 * np.finfo(float).eps * (1.0 + re_w * t)
        assert np.all(np.abs(res.pop_jc - ref) <= bound)

    @pytest.mark.parametrize("g, kappa, gamma", [
        (1.0, 20.0, 1.0), (2.25, 10.0, 1.0), (1000.0, 1.0, 1.0)])
    def test_each_time_does_not_depend_on_the_grid(self, g, kappa, gamma):
        p = dynamics.ModelParams(g=g, kappa=kappa, gamma=gamma)
        t = np.concatenate([[0.0], np.geomspace(1e-3, 3.0, 40)])
        res = dynamics.model_discrepancy(p, gamma_cav=1.0, t_grid=t)
        alone = [dynamics.model_discrepancy(p, 1.0, [0.0, tk]).pop_jc[-1]
                 for tk in t[1:]]
        assert res.pop_jc[0] == 1.0
        assert res.pop_jc[1:].tobytes() == np.array(alone).tobytes()

    @pytest.mark.parametrize("scale", [2.0 ** 600, 2.0 ** 1019, 2.0 ** -600])
    def test_rates_and_times_rescale_exactly(self, scale):
        # g^2 overflows at g = 2^600 and underflows at 2^-600, and kappa =
        # 20 * 2^1019 is within a factor 2 of the largest float; only the
        # products of rates and times enter the populations
        t = np.linspace(0.0, 3.0, 13)
        unit = dynamics.model_discrepancy(
            dynamics.ModelParams(g=1.0, kappa=20.0, gamma=1.0), 1.0, t)
        scaled = dynamics.model_discrepancy(
            dynamics.ModelParams(g=scale, kappa=20.0 * scale, gamma=scale),
            1.0, t / scale)
        assert scaled.pop_jc.tobytes() == unit.pop_jc.tobytes()

    def test_subnormal_coupling_is_exact_without_warnings(self):
        # in units of g the times are subnormal, where a division by
        # x = 2 i w t would overflow
        p = dynamics.ModelParams(g=5e-324, kappa=0.0, gamma=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = dynamics.model_discrepancy(p, 0.0, [0.0, 1.0, 1e300])
        assert res.pop_jc.tolist() == [1.0, 1.0, 1.0]

    def test_grid_must_increase_from_zero(self):
        p = params_weak()
        with pytest.raises(errors.InvalidParams):
            dynamics.model_discrepancy(p, 1.0, np.array([0.5, 0.2, 1.0]))


@pytest.mark.parametrize("route, t", [
    ("discrepancy", [0.0, math.nan]),
    ("jumps", [0.0, math.nan]),
    ("jumps", [0.0, math.inf]),
    ("single", [0.0, math.nan]),
    ("single", [0.0, math.inf]),
    ("single", math.inf),
], ids=["discrepancy-nan", "jumps-nan", "jumps-inf", "single-nan",
        "single-inf", "single-scalar-inf"])
def test_non_finite_times_are_refused(route, t):
    # NaN passes a test of t < 0, and an infinite horizon has no grid
    rho0 = np.diag([0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(errors.InvalidParams, match="finite"):
            if route == "discrepancy":
                dynamics.model_discrepancy(params_weak(), 1.0, t)
            elif route == "jumps":
                dynamics.unravel_jumps(1.0, rho0, 10, 1, t)
            else:
                dynamics.evolve_single_rate(1.0, rho0, t)


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

    def test_underflowing_norm_is_not_scaled(self):
        # norm / theta_13 underflows to 0, whose log2 once raised
        # "math domain error"
        got = dynamics._expm(np.full((2, 2), 5e-324, complex))
        assert np.max(np.abs(got - np.eye(2))) <= 1e-15
        start = dynamics.AtomCavityState.excited_vacuum()
        traj = dynamics.evolve_jc(dynamics.ModelParams(0.0, 1.0, 1.0), start,
                                  t_final=5e-324, dt=0.05)
        assert traj.times.tolist() == [0.0, 5e-324]
        assert np.max(np.abs(traj.rhos[-1] - start.rho)) <= 1e-15


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

    def test_window_without_spread_rejected(self):
        with pytest.raises(errors.InvalidParams, match="two distinct times"):
            dynamics.fit_decay_rate(np.array([2.0, 2.0]),
                                    np.array([0.5, 0.25]), 1.0, 3.0)

    def test_closed_form_matches_polyfit(self):
        from . import oracles

        traj = dynamics.evolve_jc(
            params_weak(), dynamics.AtomCavityState.excited_vacuum(),
            t_final=10.0, dt=5e-4)
        rng = np.random.default_rng(12)
        t = np.sort(rng.uniform(0.0, 8.0, 400))
        noisy = 0.8 * np.exp(-0.9 * t + rng.normal(scale=0.05, size=t.size))
        for times, pops, lo, hi in ((traj.times, traj.excited_population,
                                     1.0, 6.0),
                                    (t, noisy, 0.5, 7.5)):
            got = dynamics.fit_decay_rate(times, pops, lo, hi)
            want = oracles.fit_log_slope(times, pops, lo, hi)
            assert got == pytest.approx(want, rel=1e-12, abs=0.0)
