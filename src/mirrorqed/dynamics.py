"""Open-system dynamics: two-channel atom-cavity model vs single-rate decay.

Implements the resonant atom-cavity master equation (coherent exchange g,
cavity loss kappa, atomic loss gamma), the two-level single-rate master
equation it reduces to when the cavity follows adiabatically, and a
quantum-jump unraveling of the latter. The two models disagree outside
the small-cooperativity regime; model_discrepancy measures by how much.
evolve_jc propagates a general initial state with the exact propagator
exp(L t) of the truncated Liouvillian, computed by Pade scaling and
squaring; no integrator step enters its accuracy. The Liouvillian
conserves the difference of excitation numbers on the two sides of rho
(a weak U(1) symmetry; Buca & Prosen, New J. Phys. 14:073007, 2012), so
rho0 reaches only some entries of rho and the rest stay exactly 0.
evolve_jc finds those entries from the nonzero pattern of L, builds one
propagator on them for its uniform step and records only them: 5 of the
144 entries for |e,0> at n_fock = 5. It builds only the columns of L
that this search visits and the block on those entries, never the dense
dim^2 x dim^2 matrix. JCTrajectory.rhos rebuilds the dense record on
demand, at the dense cost. model_discrepancy needs only the no-jump
amplitudes of |e,0> and |g,1>, since every jump from |e,0> ends in
|g,0> for good; it evaluates their closed form, with no truncation.

Basis and conventions: product basis |atom> (x) |n photons>, flat index
a * (n_fock + 1) + n with a = 0 ground, a = 1 excited. Dissipators use
the decaying (trace-preserving) Lindblad convention throughout.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import (MAX_TRAJECTORIES, MEMORY_BUDGET_BYTES, InvalidParams,
                     StepTooLarge, TruncationLeak, integer, real, real_array,
                     within_budget)

__all__ = [
    "ModelParams",
    "AtomCavityState",
    "JCTrajectory",
    "AtomTrajectory",
    "TrajectoryEnsemble",
    "DiscrepancyResult",
    "evolve_jc",
    "evolve_single_rate",
    "unravel_jumps",
    "cooperativity",
    "coupling_regime",
    "effective_decay_rate",
    "model_discrepancy",
    "fit_decay_rate",
]

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-9
_DIAG_TOL = 1e-10
_LEAK_TOL = 1e-8
_STABILITY_CAP = 0.1
#: Jump trajectories drawn at a time: one block's draws and temporaries
#: take about 1 MB, and only jump_times (8 B per trajectory) is whole.
_TRAJ_BLOCK = 1 << 14
#: Rows of the record one product of evolve_jc's doubling fill writes:
#: a larger product grows BLAS's work buffers, not the speed.
_FILL_BLOCK = 1 << 10
# Prices against the memory budget, from tracemalloc peaks: 64-81 B per
# entry of a dim x dim state and of the columns of L that evolve_jc's
# search builds, 176 B per entry of the block of L and its propagator.
_DENSE_ENTRY_BYTES = 80
_BLOCK_ENTRY_BYTES = 192
_MAX_N_FOCK = math.isqrt(MEMORY_BUDGET_BYTES // _DENSE_ENTRY_BYTES) // 2 - 1
# model_discrepancy's rounding bound 16 eps (1 + |Re w| t) reaches 4e-6 here
_MAX_PHASE = 1e9


@dataclass(frozen=True)
class ModelParams:
    """Rates of the resonant atom-cavity model.

    g is the coherent atom-cavity coupling, kappa the cavity field decay
    rate, gamma the free atomic decay rate; all in the same inverse-time
    unit, which fixes the time unit of every trajectory.
    """

    g: float
    kappa: float
    gamma: float

    def __post_init__(self):
        for name, lo in (("g", -math.inf), ("kappa", 0.0), ("gamma", 0.0)):
            object.__setattr__(self, name, real(getattr(self, name), name, lo))

    @property
    def max_rate(self) -> float:
        return max(abs(self.g), self.kappa, self.gamma)


def _atom_cavity_ops(n_fock: int):
    """Lowering operators (atomic sigma-, photon a) on the product basis."""
    dim_ph = n_fock + 1
    a_ph = np.diag(np.sqrt(np.arange(1.0, dim_ph)), 1).astype(complex)
    sm_at = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sm = np.kron(sm_at, np.eye(dim_ph, dtype=complex))
    a = np.kron(np.eye(2, dtype=complex), a_ph)
    return sm, a


def _density_matrix(rho, dim: int, name: str) -> np.ndarray:
    """A copy of rho as a finite complex dim x dim density matrix."""
    rho = np.array(real_array(rho, name, dtype=complex))
    if rho.shape != (dim, dim):
        raise InvalidParams(f"{name} must be {dim}x{dim}, got shape {rho.shape}")
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    if herm > _HERM_TOL:
        raise InvalidParams(f"{name} not Hermitian (deviation {herm:.3g})")
    tr = rho.trace()
    if abs(tr - 1.0) > _TRACE_TOL:
        raise InvalidParams(f"{name} trace {tr!r} differs from 1")
    dmin = float(np.min(rho.diagonal().real))
    if dmin < -_DIAG_TOL:
        raise InvalidParams(f"{name} has negative population {dmin:.3g}")
    return rho


def _time_grid(t_grid, name: str = "t_grid") -> np.ndarray:
    """t_grid as a float array of sample times, else InvalidParams."""
    times = real_array(t_grid, name, 0.0)
    if times.ndim != 1 or times.size == 0:
        raise InvalidParams(
            f"{name} must be 1-D and nonempty, got shape {times.shape}")
    return times


@dataclass(frozen=True, eq=False)
class AtomCavityState:
    """Density matrix of the atom-cavity system at a Fock truncation.

    Validates hermiticity (1e-10), unit trace (1e-9) and nonnegative
    diagonal (within 1e-10) on construction, so states that circulate in
    the library are always physical. n_fock runs from 1 to 1,830, the
    largest whose state fits the memory budget.
    """

    rho: np.ndarray
    n_fock: int = 5

    def __post_init__(self):
        object.__setattr__(self, "n_fock",
                           integer(self.n_fock, "n_fock", 1, _MAX_N_FOCK))
        object.__setattr__(self, "rho",
                           _density_matrix(self.rho, self.dim, "rho"))

    @property
    def dim(self) -> int:
        return 2 * (self.n_fock + 1)

    @classmethod
    def from_atom(cls, rho_atom, n_fock: int = 5) -> "AtomCavityState":
        """Atom state (basis ground, excited) tensored with the vacuum."""
        n_fock = integer(n_fock, "n_fock", 1, _MAX_N_FOCK)
        rho_atom = _density_matrix(rho_atom, 2, "rho_atom")
        vac = np.zeros((n_fock + 1, n_fock + 1), dtype=complex)
        vac[0, 0] = 1.0
        return cls(rho=np.kron(rho_atom, vac), n_fock=n_fock)

    @classmethod
    def excited_vacuum(cls, n_fock: int = 5) -> "AtomCavityState":
        """Excited atom, empty cavity: the canonical initial condition."""
        return cls.from_atom(np.diag([0.0, 1.0]), n_fock=n_fock)

    @property
    def excited_population(self) -> float:
        n1 = self.n_fock + 1
        return float(self.rho.diagonal().real[n1:].sum())

    @property
    def photon_number(self) -> float:
        n1 = self.n_fock + 1
        weights = np.tile(np.arange(n1, dtype=float), 2)
        return float(np.dot(weights, self.rho.diagonal().real))


def _liouvillian(params: ModelParams, n_fock: int, rows=None,
                 cols=None) -> np.ndarray:
    """Matrix of the master-equation generator on row-major vec(rho).

    rows and cols are flat indices into vec(rho) (all of them when None);
    only their block is built, from the dim x dim operators: entry
    (i dim + j, k dim + l) of kron(x, y) is x[i, k] y[j, l]. Each entry
    gets the bits it has in the whole matrix.
    """
    sm, a = _atom_cavity_ops(n_fock)
    h = params.g * (sm @ a.conj().T + sm.conj().T @ a)
    dim = 2 * (n_fock + 1)
    everything = np.arange(dim * dim)
    row_i, row_j = np.divmod(everything if rows is None else rows, dim)
    col_k, col_l = np.divmod(everything if cols is None else cols, dim)

    def kron(x, y):
        return x[np.ix_(row_i, col_k)] * y[np.ix_(row_j, col_l)]

    eye = np.eye(dim, dtype=complex)
    lv = -1j * (kron(h, eye) - kron(eye, h.T))
    for rate, op in ((params.kappa, a), (params.gamma, sm)):
        if rate == 0.0:
            continue
        opd_op = op.conj().T @ op
        lv += rate * (kron(op, op.conj())
                      - 0.5 * kron(opd_op, eye)
                      - 0.5 * kron(eye, opd_op.T))
    return lv


# Pade(13) numerator coefficients b_0..b_13 and the 1-norm bound up to
# which the unscaled approximant meets double precision (Higham 2005,
# "The scaling and squaring method for the matrix exponential revisited",
# SIAM J. Matrix Anal. Appl. 26:1179, table 2.3).
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a) by Pade(13) scaling and squaring.

    No eigendecomposition, so a defective a (the Liouvillian at the
    exceptional point g = (kappa - gamma) / 4) is handled like any other.
    """
    norm = float(np.linalg.norm(a, 1))
    # at most _THETA13 (an underflowing norm / _THETA13 included) needs
    # no scaling
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    a = a * 2.0 ** -s
    b = _PADE13
    eye = np.eye(a.shape[0], dtype=a.dtype)
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


@dataclass(frozen=True, eq=False)
class JCTrajectory:
    """Recorded atom-cavity evolution on the entries of rho it reaches.

    states[t, k] is entry support[k] (a flat index into the row-major
    vec(rho)) at times[t]; every other entry of rho is exactly 0 at every
    time (see evolve_jc). support is sorted and closed under transpose,
    so entry (i, j) is recorded whenever (j, i) is.

    The observables read states one column at a time: the populations
    from the reached diagonal columns, hermiticity_error from each pair
    of mirrored columns (k, mirror[k]). Their temporaries take a few
    arrays of length T, whatever dim is. rhos builds the dense
    (T, dim, dim) array on every read; no observable uses it.
    """

    times: np.ndarray
    n_fock: int
    support: np.ndarray
    states: np.ndarray

    @property
    def dim(self) -> int:
        return 2 * (self.n_fock + 1)

    @property
    def rhos(self) -> np.ndarray:
        """Dense (T, dim, dim) record, rebuilt on every read."""
        dim = self.dim
        out = np.zeros((self.times.size, dim * dim), dtype=complex)
        out[:, self.support] = self.states
        return out.reshape(-1, dim, dim)

    def _diagonal(self) -> tuple[np.ndarray, np.ndarray]:
        """Reached levels, in order, and the columns of their populations."""
        row, col = np.divmod(self.support, self.dim)
        cols = np.flatnonzero(row == col)
        return row[cols], cols

    def _diagonal_sum(self, weights: np.ndarray) -> np.ndarray:
        """sum over levels of weights[level] * population, per time."""
        total = np.zeros(self.times.size)
        for level, k in zip(*self._diagonal()):
            if weights[level]:
                total += weights[level] * self.states[:, k].real
        return total

    @property
    def population_bounds(self) -> tuple[float, float]:
        """Least and largest population of any level at any time.

        A level that is never reached holds population 0 throughout.
        """
        levels, cols = self._diagonal()
        columns = [self.states[:, k].real for k in cols]
        unreached = [0.0] if levels.size < self.dim else []
        return (float(np.min([c.min() for c in columns] + unreached)),
                float(np.max([c.max() for c in columns] + unreached)))

    @property
    def excited_population(self) -> np.ndarray:
        return self._diagonal_sum(np.repeat([0.0, 1.0], self.n_fock + 1))

    @property
    def photon_number(self) -> np.ndarray:
        return self._diagonal_sum(
            np.tile(np.arange(self.n_fock + 1, dtype=float), 2))

    @property
    def excitation_number(self) -> np.ndarray:
        return self.excited_population + self.photon_number

    @property
    def trace_error(self) -> float:
        traces = self._diagonal_sum(np.ones(self.dim))
        return float(np.max(np.abs(traces - 1.0)))

    @property
    def hermiticity_error(self) -> float:
        dim = self.dim
        row, col = np.divmod(self.support, dim)
        mirror = np.searchsorted(self.support, col * dim + row)
        # |a - conj(b)| = |b - conj(a)|: one column of each pair suffices
        return float(np.max([
            np.max(np.abs(self.states[:, k] - self.states[:, m].conj()))
            for k, m in enumerate(mirror) if k <= m]))

    @property
    def top_fock_max(self) -> float:
        """Largest population ever seen in the highest Fock level."""
        top = np.zeros(self.dim)
        top[[self.n_fock, -1]] = 1.0
        return float(np.max(self._diagonal_sum(top)))


def _reachable(params: ModelParams, n_fock: int,
               rho: np.ndarray) -> np.ndarray:
    """Sorted flat indices of vec(rho) that exp(L t) vec(rho) can reach.

    Starts from the nonzero entries of rho and of its transpose and adds
    every entry that L links to the set until it stops growing, building
    only the columns of L at the entries added last. L maps the span of
    the result into itself, so entries outside it stay 0. Before each
    step, the block of L on the set so far (no larger than the final
    one) and the columns to build are priced against the memory budget.
    """
    reach = ((rho != 0.0) | (rho.T != 0.0)).ravel()
    added = np.flatnonzero(reach)
    while True:
        n = int(np.count_nonzero(reach))
        within_budget(_BLOCK_ENTRY_BYTES * n * n,
                      f"the propagator on {n} reached entries")
        if not added.size:
            return np.flatnonzero(reach)
        within_budget(_DENSE_ENTRY_BYTES * reach.size * added.size,
                      f"{added.size} columns of the Liouvillian")
        linked = (_liouvillian(params, n_fock, cols=added) != 0.0).any(axis=1)
        added = np.flatnonzero(linked & ~reach)
        reach |= linked


def evolve_jc(params: ModelParams, rho0: AtomCavityState, t_final: float,
              dt: float) -> JCTrajectory:
    """Evolve the two-channel master equation, recording rho every dt.

    Only the entries of vec(rho) that rho0 can reach (_reachable) are
    evolved, exactly, and every other entry stays 0; memory goes as
    dim^2 times their number, not as dim^4. The exact propagator
    P = exp(L h) on those entries is built once, and the record is
    filled by doubling: rows m..2m-1 are rows 0..m-1 times
    P^m, then P^m is squared, so n steps take log2(n) doublings. Each
    doubling's rows are split into equal blocks of at most _FILL_BLOCK
    (1,024), one matrix product each, so BLAS's work buffers stay small.
    A product computes each row on its own, so the record has the bits
    one product per doubling gives; no block has one row unless the
    doubling has, as numpy's one-row product (gemv) rounds differently.
    dt sets only the spacing of the record, not the accuracy. The
    spacing must satisfy dt * max(g, kappa, gamma) < 0.1 (StepTooLarge
    otherwise) so the record resolves the fastest rate; the actual
    spacing is h = t_final / ceil(t_final / dt), so the grid lands on
    t_final exactly. Population of the top Fock level is monitored and
    TruncationLeak raised if it ever exceeds 1e-8, since then the
    truncation basis is too small for the requested dynamics. The
    search, the block of L (see _reachable) and the record (16 B per
    entry per step) are priced against the memory budget first.
    """
    t_final = real(t_final, "t_final", 0.0)
    dt = real(dt, "dt", 0.0, strict=True, finite=False)
    if dt * params.max_rate >= _STABILITY_CAP:
        raise StepTooLarge(
            f"dt*max_rate = {dt * params.max_rate:.3g} >= {_STABILITY_CAP}; "
            "reduce dt so the record resolves the fastest rate")
    steps = real(t_final / dt, "t_final / dt")  # inf for a subnormal dt
    n_steps = max(1, math.ceil(steps - 1e-12)) if t_final > 0 else 0
    h = t_final / n_steps if n_steps else 0.0

    support = _reachable(params, rho0.n_fock, rho0.rho)
    within_budget((n_steps + 1) * support.size * 16,
                  f"a record of {steps:.3g} steps of {support.size} entries "
                  "(raise dt or lower t_final)")
    out = np.empty((n_steps + 1, support.size), dtype=complex)
    out[0] = rho0.rho.ravel()[support]
    # transposed, because the record holds one state per row
    lv = _liouvillian(params, rho0.n_fock, support, support)
    prop_t = _expm(lv * h).T
    done = 1
    while done <= n_steps:
        take = min(done, n_steps + 1 - done)
        # equal blocks: none has a single row unless take is 1
        parts = -(-take // _FILL_BLOCK)
        edges = [take * i // parts for i in range(parts + 1)]
        for lo, hi in zip(edges, edges[1:]):
            np.matmul(out[lo:hi], prop_t, out=out[done + lo:done + hi])
        done += take
        prop_t = prop_t @ prop_t
    traj = JCTrajectory(times=h * np.arange(n_steps + 1),
                        n_fock=rho0.n_fock, support=support, states=out)
    leak = traj.top_fock_max
    if leak > _LEAK_TOL:
        raise TruncationLeak(
            f"top Fock level reached population {leak:.3g} > {_LEAK_TOL:g}; "
            f"raise n_fock above {rho0.n_fock}")
    return traj


@dataclass(frozen=True, eq=False)
class AtomTrajectory:
    """Closed-form single-rate evolution of the bare two-level atom."""

    times: np.ndarray
    rhos: np.ndarray

    @property
    def excited_population(self) -> np.ndarray:
        return self.rhos[:, 1, 1].real

    @property
    def coherence(self) -> np.ndarray:
        """Off-diagonal element <g|rho|e> per time."""
        return self.rhos[:, 0, 1]


def evolve_single_rate(gamma_cav: float, rho_atom0,
                       t_final) -> AtomTrajectory:
    """Closed-form two-level decay at the single effective rate.

    Excited population decays as exp(-gamma_cav t), coherences as
    exp(-gamma_cav t / 2), ground population takes up the rest. t_final
    may be a scalar (sampled on 101 equally spaced points from 0) or an
    explicit array of sample times.
    """
    gamma_cav = real(gamma_cav, "gamma_cav", 0.0)
    rho0 = _density_matrix(rho_atom0, 2, "rho_atom")
    times = real_array(t_final, "t_final", 0.0)
    times = (np.linspace(0.0, float(times), 101) if times.ndim == 0
             else _time_grid(times, "t_final"))
    # gamma_cav t overflows only where both exponentials are 0 anyway
    with np.errstate(over="ignore"):
        decay = np.exp(-gamma_cav * times)
        half = np.exp(-0.5 * gamma_cav * times)
    rhos = np.empty((times.size, 2, 2), dtype=complex)
    rhos[:, 1, 1] = rho0[1, 1].real * decay
    rhos[:, 0, 0] = 1.0 - rhos[:, 1, 1]
    rhos[:, 0, 1] = rho0[0, 1] * half
    rhos[:, 1, 0] = rho0[1, 0] * half
    return AtomTrajectory(times=times, rhos=rhos)


@dataclass(frozen=True, eq=False)
class TrajectoryEnsemble:
    """Quantum-jump ensemble statistics on a fixed time grid.

    excited_population is the trajectory mean; stderr the standard error
    from the per-trajectory sample variance (ddof=1). jump_times holds
    one entry per trajectory, +inf when that trajectory never jumped.
    Trajectory i was drawn from draws 2i and 2i+1 of the PCG64(seed)
    stream (see unravel_jumps), so any block of it can be regenerated.
    jump_times is the one array kept per trajectory; the statistics are
    accumulated block by block while the trajectories are drawn.
    """

    n_traj: int
    seed: int
    times: np.ndarray
    excited_population: np.ndarray
    stderr: np.ndarray
    jump_times: np.ndarray

    def __post_init__(self):
        if not (self.times.shape == self.excited_population.shape
                == self.stderr.shape):
            raise InvalidParams("ensemble arrays must share one shape")
        if self.jump_times.shape != (self.n_traj,):
            raise InvalidParams("jump_times must have one entry per trajectory")


def unravel_jumps(gamma_cav: float, rho_atom0, n_traj: int, seed: int,
                  t_grid) -> TrajectoryEnsemble:
    """Monte Carlo wave-function unraveling of single-rate atomic decay.

    Each trajectory evolves under the non-Hermitian no-jump generator
    (norm of the conditional state decays as pg0 + pe0 exp(-gamma t))
    and collapses to the ground state at a jump time drawn exactly by
    inverting that norm decay; no time-step discretization enters.

    Random numbers: trajectory i takes draws 2i (initial-state
    selection) and 2i + 1 (jump clock) of the single stream
    np.random.PCG64(seed), as Generator.random((n_traj, 2)) lays them
    out. The draws of trajectories lo..hi-1 are therefore reproducible
    on their own, in any order or on any worker: advance a fresh
    PCG64(seed) by 2 * lo and draw random((hi - lo, 2)).

    Statistics: before its jump a trajectory's population depends only
    on which eigenstate of rho_atom0 it started in, and after it is 0,
    so at each time the ensemble holds at most one value per eigenstate
    plus 0. Mean and sum of squared deviations follow exactly from the
    per-eigenstate counts of jump times beyond t, with no
    trajectory-by-time matrix.

    Memory: trajectories are drawn from the stream in consecutive blocks
    of _TRAJ_BLOCK, and each block adds its jump times to one histogram
    per eigenstate over the sorted grid. Only jump_times (8 B per
    trajectory) is kept whole; a block's draws and temporaries take
    about 1 MB, and the statistics a few arrays of the grid's length.
    The results do not depend on the block size. n_traj is capped at
    errors.MAX_TRAJECTORIES (8,388,608).
    """
    gamma_cav = real(gamma_cav, "gamma_cav", 0.0)
    n_traj = integer(n_traj, "n_traj", 1, MAX_TRAJECTORIES)
    seed = integer(seed, "seed", 0)
    rho0 = _density_matrix(rho_atom0, 2, "rho_atom")
    times = _time_grid(t_grid)

    # mixed initial state: decompose into pure states, then select per draw
    evals, evecs = np.linalg.eigh(rho0)
    probs = np.clip(evals.real, 0.0, None)
    cdf = np.cumsum(probs / probs.sum())
    pe_pure = np.abs(evecs[1, :]) ** 2

    # after[k, m]: trajectories started in eigenstate k whose jump comes
    # after exactly m of the sorted grid times; the survivors at a time
    # are those whose jump comes after it. A histogram over the grid
    # costs each block O(block log T), where counting each block's
    # survivors at every grid time would cost O(T).
    order = np.argsort(times, kind="stable")
    sorted_times = times[order]
    after = np.zeros((pe_pure.size, times.size + 1), dtype=np.int64)
    jump_times = np.full(n_traj, np.inf)
    rng = np.random.Generator(np.random.PCG64(seed))
    for lo in range(0, n_traj, _TRAJ_BLOCK):
        draws = rng.random((min(_TRAJ_BLOCK, n_traj - lo), 2))
        which = np.minimum(np.searchsorted(cdf, draws[:, 0], side="right"),
                           cdf.size - 1)
        pe0 = pe_pure[which]
        pg0 = 1.0 - pe0
        u = draws[:, 1]
        block = jump_times[lo:lo + u.size]
        if gamma_cav > 0.0:
            jumps = u > pg0
            # a subnormal gamma_cav puts the jump time past the largest
            # float; +inf is right, as no grid time reaches it
            with np.errstate(over="ignore"):
                block[jumps] = (-np.log((u[jumps] - pg0[jumps])
                                        / pe0[jumps]) / gamma_cav)
        for k in range(pe_pure.size):
            np.add.at(after[k], np.searchsorted(
                sorted_times, block[which == k], side="left"), 1)

    # counts[k, j]: trajectories started in eigenstate k, unjumped at
    # times[j]; values[k, j]: the population each of them holds there
    counts = np.empty((pe_pure.size, times.size))
    counts[:, order] = np.cumsum(after[:, :0:-1], axis=1)[:, ::-1]
    with np.errstate(over="ignore"):  # overflow only where surv is 0
        surv = np.exp(-gamma_cav * times)
    norm_sq = (1.0 - pe_pure)[:, None] + pe_pure[:, None] * surv
    # the pure excited state keeps population 1 where surv underflows to 0
    values = np.divide(pe_pure[:, None] * surv, norm_sq,
                       out=np.ones_like(norm_sq), where=norm_sq > 0.0)
    mean = (counts * values).sum(axis=0) / n_traj
    m2 = ((n_traj - counts.sum(axis=0)) * mean ** 2
          + (counts * (values - mean) ** 2).sum(axis=0))
    if n_traj > 1:
        stderr = np.sqrt(m2 / (n_traj - 1)) / math.sqrt(n_traj)
    else:
        stderr = np.zeros_like(mean)
    return TrajectoryEnsemble(n_traj=n_traj, seed=seed, times=times,
                              excited_population=mean, stderr=stderr,
                              jump_times=jump_times)


def cooperativity(params: ModelParams) -> float:
    """Dimensionless g^2 / (kappa gamma); both rates must be positive,
    and the cooperativity a finite float."""
    g, kappa, gamma = params.g, params.kappa, params.gamma
    if kappa <= 0.0 or gamma <= 0.0:
        raise InvalidParams("cooperativity needs kappa > 0 and gamma > 0")
    den = kappa * gamma  # 0 only where both rates are tiny
    c = g * g / den if den > 0.0 else (g / kappa) * (g / gamma)
    if not math.isfinite(c):
        raise InvalidParams(
            f"cooperativity g^2 / (kappa gamma) overflows at g={g!r}, "
            f"kappa={kappa!r}, gamma={gamma!r}")
    return c


def coupling_regime(params: ModelParams) -> str:
    """Human-readable regime label from the cooperativity."""
    c = cooperativity(params)
    if c < 0.1:
        return "weak coupling regime"
    if c >= 1.0:
        return "strong coupling regime"
    return "intermediate coupling"


def effective_decay_rate(params: ModelParams) -> float:
    """Adiabatic single-rate reduction: gamma + 4 g^2 / kappa.

    Valid when the cavity relaxes much faster than every other rate; the
    cavity channel then adds the resonant enhancement 4 g^2 / kappa to
    the free atomic rate.
    """
    if params.kappa <= 0.0:
        raise InvalidParams("effective rate needs kappa > 0")
    rate = params.gamma + 4.0 * (params.g * params.g) / params.kappa
    if not math.isfinite(rate):
        raise InvalidParams(
            f"effective rate gamma + 4 g^2 / kappa overflows at "
            f"g={params.g!r}, kappa={params.kappa!r}")
    return rate


@dataclass(frozen=True, eq=False)
class DiscrepancyResult:
    """Atomic excited populations of the two models on a shared grid."""

    times: np.ndarray
    pop_jc: np.ndarray
    pop_single: np.ndarray

    @property
    def difference(self) -> np.ndarray:
        return self.pop_jc - self.pop_single

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.difference)))


def model_discrepancy(params: ModelParams, gamma_cav: float,
                      t_grid) -> DiscrepancyResult:
    """Excited-population gap between the two models, excited-atom start.

    From |e,0> every jump ends in |g,0> for good, so pop_jc = |c_e0|^2 is
    exact with no Fock truncation, where (c_e0, c_g1) follow
    exp(-i H_eff t), H_eff = [[-i gamma/2, g], [g, -i kappa/2]] (Dalibard,
    Castin & Molmer, PRL 68:580, 1992). In closed form (Putzer, Amer. Math.
    Monthly 73:2, 1966), c_e0(t) = exp(-i s t) [1 + E/2 - delta t E/x],
    where x = 2 i w t, E = expm1(x), t E/x = E/(2 i w) (t at w = 0),
    delta = (gamma - kappa)/4, w = (g^2 - delta^2)^(1/2) with Im w >= 0, and
    s = w - i a with a = (gamma + kappa)/4, taken as
    (g^2 + gamma kappa/4)/(w + i a) so it does not cancel when stiff. Each
    factor stays bounded, also at the exceptional point w = 0; each grid
    time is computed on its own. Rounding moves pop_jc by at most
    16 eps (1 + |Re w| t): a few eps per factor, plus eps times the phase
    |Re w| t of the oscillation (0 when overdamped). Against 60-digit mpmath
    it measured at most 3 eps (1 + |Re w| t). As |w| <= max_rate, a grid
    with max_rate * t_final > 1e9, where the bound passes 4e-6, is refused.
    pop_single is the single-rate closed form on the same grid.
    """
    times = _time_grid(t_grid)
    if np.any(np.diff(times) <= 0.0):
        raise InvalidParams("t_grid must be strictly increasing")
    # a Python float product: one that overflows reads inf, with no warning
    phase = params.max_rate * float(times[-1])
    if phase > _MAX_PHASE:
        raise InvalidParams(
            f"max_rate * t_final = {phase:.3g} "
            f"exceeds {_MAX_PHASE:.0e}: the populations are not resolved "
            "in double precision")
    gamma_cav = real(gamma_cav, "gamma_cav", 0.0)

    # exact rescaling to rates in units 2^k ~ max_rate: g^2 cannot overflow
    k = math.frexp(params.max_rate)[1]
    g, kappa, gamma = (math.ldexp(v, -k) for v in astuple(params))
    tau = np.ldexp(times, k)
    a, delta = (gamma + kappa) / 4.0, (gamma - kappa) / 4.0
    w = cmath.sqrt((g - delta) * (g + delta))  # Im w >= 0
    num = g * g + gamma * kappa / 4.0
    s = num / (w + 1j * a) if num else 0j  # w - i a, without cancellation
    e = np.expm1(2j * w * tau)
    lin = delta * e / (2j * w) if w else delta * tau  # delta t E/x
    c_e0 = np.exp(-1j * s * tau) * (1.0 + e / 2.0 - lin)
    pop_jc = np.abs(c_e0) ** 2

    # gamma_cav t overflows only where exp(-gamma_cav t) is 0 anyway
    with np.errstate(over="ignore"):
        pop_single = np.exp(-gamma_cav * times)
    return DiscrepancyResult(times=times, pop_jc=pop_jc,
                             pop_single=pop_single)


def fit_decay_rate(times, pops, t_min: float, t_max: float) -> float:
    """Decay rate from a straight-line fit to log population on a window.

    The samples with t_min <= t <= t_max and positive population enter a
    least-squares line through (t, log pop); the rate is minus its slope,
    in closed form on centred times: -sum(dt dy) / sum(dt^2), with dt and
    dy the deviations from the window's means. The sums are numpy's
    pairwise sums, not BLAS dot products, whose rounding and speed depend
    on the thread count. InvalidParams if fewer than two samples, or
    fewer than two distinct times, are in the window.
    """
    times = real_array(times, "times", per_cell=True)
    pops = real_array(pops, "pops", per_cell=True)
    if times.shape != pops.shape:
        raise InvalidParams(f"times and pops must have one shape, got "
                            f"{times.shape} and {pops.shape}")
    t_min = real(t_min, "t_min", finite=False)
    t_max = real(t_max, "t_max", finite=False)
    mask = (times >= t_min) & (times <= t_max) & (pops > 0.0)
    if int(mask.sum()) < 2:
        raise InvalidParams(
            "decay-rate fit needs at least two positive samples in window")
    dt = times[mask] - times[mask].mean()
    spread = float(np.sum(dt * dt))
    if not spread > 0.0:
        raise InvalidParams(
            "decay-rate fit needs two distinct times in the window")
    log_pops = np.log(pops[mask])
    return -float(np.sum(dt * (log_pops - log_pops.mean()))) / spread
