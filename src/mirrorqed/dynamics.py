"""Open-system dynamics: two-channel atom-cavity model vs single-rate decay.

Implements the resonant atom-cavity master equation (coherent exchange g,
cavity loss kappa, atomic loss gamma), the two-level single-rate master
equation it reduces to when the cavity follows adiabatically, and a
quantum-jump unraveling of the latter. The two models disagree outside
the small-cooperativity regime; model_discrepancy measures by how much.
evolve_jc propagates a general initial state with the exact propagator
exp(L t) of the truncated Liouvillian, computed by Pade scaling and
squaring; no integrator step enters its accuracy. model_discrepancy
starts from |e,0>, where every jump ends in |g,0> and never returns, so
it needs only the two no-jump amplitudes of |e,0> and |g,1>: exact, with
no Fock truncation. evolve_jc builds one propagator for its uniform
step; model_discrepancy caches one per distinct grid span.

Basis and conventions: product basis |atom> (x) |n photons>, flat index
a * (n_fock + 1) + n with a = 0 ground, a = 1 excited. Dissipators use
the decaying (trace-preserving) Lindblad convention throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, StepTooLarge, TruncationLeak

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
_SPAN_RTOL = 1e-13
_HERM_BLOCK = 1024


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
        for name in ("g", "kappa", "gamma"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise InvalidParams(f"{name} must be a finite real, got {v!r}")
        if self.kappa < 0.0 or self.gamma < 0.0:
            raise InvalidParams("kappa and gamma must be >= 0")

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


@dataclass(frozen=True, eq=False)
class AtomCavityState:
    """Density matrix of the atom-cavity system at a Fock truncation.

    Validates hermiticity (1e-10), unit trace (1e-9) and nonnegative
    diagonal (within 1e-10) on construction, so states that circulate in
    the library are always physical.
    """

    rho: np.ndarray
    n_fock: int = 5

    def __post_init__(self):
        rho = np.array(self.rho, dtype=complex)
        object.__setattr__(self, "rho", rho)
        dim = 2 * (self.n_fock + 1)
        if self.n_fock < 1:
            raise InvalidParams(f"n_fock must be >= 1, got {self.n_fock!r}")
        if rho.shape != (dim, dim):
            raise InvalidParams(
                f"rho must be {dim}x{dim} for n_fock={self.n_fock}, "
                f"got shape {rho.shape}")
        herm = np.max(np.abs(rho - rho.conj().T))
        if herm > _HERM_TOL:
            raise InvalidParams(f"rho not Hermitian (deviation {herm:.3g})")
        tr = rho.trace()
        if abs(tr - 1.0) > _TRACE_TOL:
            raise InvalidParams(f"rho trace {tr!r} differs from 1")
        dmin = float(np.min(rho.diagonal().real))
        if dmin < -_DIAG_TOL:
            raise InvalidParams(f"negative population {dmin:.3g} on diagonal")

    @property
    def dim(self) -> int:
        return 2 * (self.n_fock + 1)

    @classmethod
    def from_atom(cls, rho_atom, n_fock: int = 5) -> "AtomCavityState":
        """Atom state (basis ground, excited) tensored with the vacuum."""
        rho_atom = np.asarray(rho_atom, dtype=complex)
        if rho_atom.shape != (2, 2):
            raise InvalidParams(f"rho_atom must be 2x2, got {rho_atom.shape}")
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


def _liouvillian(params: ModelParams, n_fock: int) -> np.ndarray:
    """Matrix of the master-equation generator on row-major vec(rho)."""
    sm, a = _atom_cavity_ops(n_fock)
    h = params.g * (sm @ a.conj().T + sm.conj().T @ a)
    dim = 2 * (n_fock + 1)
    eye = np.eye(dim, dtype=complex)
    lv = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for rate, op in ((params.kappa, a), (params.gamma, sm)):
        if rate == 0.0:
            continue
        opd_op = op.conj().T @ op
        lv += rate * (np.kron(op, op.conj())
                      - 0.5 * np.kron(opd_op, eye)
                      - 0.5 * np.kron(eye, opd_op.T))
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
    s = max(0, math.ceil(math.log2(norm / _THETA13))) if norm > 0.0 else 0
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
    """Recorded atom-cavity evolution: rho at every recording step."""

    times: np.ndarray
    rhos: np.ndarray
    n_fock: int

    @property
    def excited_population(self) -> np.ndarray:
        n1 = self.n_fock + 1
        diag = np.einsum("tii->ti", self.rhos).real
        return diag[:, n1:].sum(axis=1)

    @property
    def photon_number(self) -> np.ndarray:
        n1 = self.n_fock + 1
        diag = np.einsum("tii->ti", self.rhos).real
        weights = np.tile(np.arange(n1, dtype=float), 2)
        return diag @ weights

    @property
    def excitation_number(self) -> np.ndarray:
        return self.excited_population + self.photon_number

    @property
    def trace_error(self) -> float:
        traces = np.einsum("tii->t", self.rhos).real
        return float(np.max(np.abs(traces - 1.0)))

    @property
    def hermiticity_error(self) -> float:
        # blocks of steps keep the temporaries small on long recordings
        worst = 0.0
        for k in range(0, len(self.rhos), _HERM_BLOCK):
            blk = self.rhos[k:k + _HERM_BLOCK]
            worst = max(worst, float(np.max(
                np.abs(blk - blk.conj().transpose(0, 2, 1)))))
        return worst

    @property
    def top_fock_max(self) -> float:
        """Largest population ever seen in the highest Fock level."""
        n1 = self.n_fock + 1
        diag = np.einsum("tii->ti", self.rhos).real
        return float(np.max(diag[:, n1 - 1] + diag[:, 2 * n1 - 1]))

    @property
    def final_state(self) -> AtomCavityState:
        return AtomCavityState(rho=self.rhos[-1], n_fock=self.n_fock)


def evolve_jc(params: ModelParams, rho0: AtomCavityState, t_final: float,
              dt: float) -> JCTrajectory:
    """Evolve the two-channel master equation, recording rho every dt.

    The exact propagator P = exp(L h) is built once and applied per
    recording step, so dt sets only the spacing of the record, not the
    accuracy. The spacing must satisfy dt * max(g, kappa, gamma) < 0.1
    (StepTooLarge otherwise) so the record resolves the fastest rate;
    the actual spacing is h = t_final / ceil(t_final / dt), so the grid
    lands on t_final exactly. Population of the top Fock level is
    monitored and TruncationLeak raised if it ever exceeds 1e-8, since
    then the truncation basis is too small for the requested dynamics.
    """
    if not t_final >= 0.0:
        raise InvalidParams(f"t_final must be >= 0, got {t_final!r}")
    if not dt > 0.0:
        raise InvalidParams(f"dt must be positive, got {dt!r}")
    if dt * params.max_rate >= _STABILITY_CAP:
        raise StepTooLarge(
            f"dt*max_rate = {dt * params.max_rate:.3g} >= {_STABILITY_CAP}; "
            "reduce dt so the record resolves the fastest rate")
    n_steps = max(1, math.ceil(t_final / dt - 1e-12)) if t_final > 0 else 0
    h = t_final / n_steps if n_steps else 0.0

    lv = _liouvillian(params, rho0.n_fock)
    dim = rho0.dim
    out = np.empty((n_steps + 1, dim * dim), dtype=complex)
    out[0] = rho0.rho.ravel()
    if n_steps:
        prop = _expm(lv * h)
        for k in range(n_steps):
            np.matmul(prop, out[k], out=out[k + 1])
    times = h * np.arange(n_steps + 1)
    rhos = out.reshape(n_steps + 1, dim, dim)

    n1 = rho0.n_fock + 1
    diag = np.einsum("tii->ti", rhos).real
    leak = float(np.max(diag[:, n1 - 1] + diag[:, 2 * n1 - 1]))
    if leak > _LEAK_TOL:
        raise TruncationLeak(
            f"top Fock level reached population {leak:.3g} > {_LEAK_TOL:g}; "
            f"raise n_fock above {rho0.n_fock}")
    return JCTrajectory(times=times, rhos=rhos, n_fock=rho0.n_fock)


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


def _check_atom_rho(rho_atom) -> np.ndarray:
    rho = np.asarray(rho_atom, dtype=complex)
    if rho.shape != (2, 2):
        raise InvalidParams(f"rho_atom must be 2x2, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > _HERM_TOL:
        raise InvalidParams("rho_atom not Hermitian")
    if abs(rho.trace() - 1.0) > _TRACE_TOL:
        raise InvalidParams(f"rho_atom trace {rho.trace()!r} differs from 1")
    if min(rho[0, 0].real, rho[1, 1].real) < -_DIAG_TOL:
        raise InvalidParams("rho_atom has a negative population")
    return rho


def evolve_single_rate(gamma_cav: float, rho_atom0,
                       t_final) -> AtomTrajectory:
    """Closed-form two-level decay at the single effective rate.

    Excited population decays as exp(-gamma_cav t), coherences as
    exp(-gamma_cav t / 2), ground population takes up the rest. t_final
    may be a scalar (sampled on 101 equally spaced points from 0) or an
    explicit array of sample times.
    """
    if not gamma_cav >= 0.0:
        raise InvalidParams(f"gamma_cav must be >= 0, got {gamma_cav!r}")
    rho0 = _check_atom_rho(rho_atom0)
    if np.ndim(t_final) == 0:
        if not float(t_final) >= 0.0:
            raise InvalidParams(f"t_final must be >= 0, got {t_final!r}")
        times = np.linspace(0.0, float(t_final), 101)
    else:
        times = np.asarray(t_final, dtype=float)
        if times.ndim != 1 or times.size == 0 or np.any(times < 0.0):
            raise InvalidParams("time grid must be 1-D, nonempty, >= 0")
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
    per-eigenstate counts of jump times beyond t (one sort and one
    searchsorted per eigenstate), with no trajectory-by-time matrix.
    Transient memory is a small constant times jump_times.
    """
    if not gamma_cav >= 0.0:
        raise InvalidParams(f"gamma_cav must be >= 0, got {gamma_cav!r}")
    if n_traj < 1:
        raise InvalidParams(f"n_traj must be >= 1, got {n_traj!r}")
    rho0 = _check_atom_rho(rho_atom0)
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(times < 0.0):
        raise InvalidParams("t_grid must be 1-D, nonempty, >= 0")

    # mixed initial state: decompose into pure states, then select per draw
    evals, evecs = np.linalg.eigh(rho0)
    probs = np.clip(evals.real, 0.0, None)
    cdf = np.cumsum(probs / probs.sum())
    pe_pure = np.abs(evecs[1, :]) ** 2

    draws = np.random.Generator(np.random.PCG64(seed)).random((n_traj, 2))
    which = np.minimum(np.searchsorted(cdf, draws[:, 0], side="right"),
                       cdf.size - 1)
    pe0 = pe_pure[which]
    pg0 = 1.0 - pe0
    u = draws[:, 1]
    jump_times = np.full(n_traj, np.inf)
    if gamma_cav > 0.0:
        jumps = u > pg0
        jump_times[jumps] = (-np.log((u[jumps] - pg0[jumps]) / pe0[jumps])
                             / gamma_cav)

    # counts[k, j]: trajectories started in eigenstate k, unjumped at
    # times[j]; values[k, j]: the population each of them holds there
    counts = np.empty((pe_pure.size, times.size))
    for k in range(pe_pure.size):
        jt = np.sort(jump_times[which == k])
        counts[k] = jt.size - np.searchsorted(jt, times, side="right")
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
    """Dimensionless g^2 / (kappa gamma); both rates must be positive."""
    if params.kappa <= 0.0 or params.gamma <= 0.0:
        raise InvalidParams("cooperativity needs kappa > 0 and gamma > 0")
    return params.g ** 2 / (params.kappa * params.gamma)


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
    return params.gamma + 4.0 * params.g ** 2 / params.kappa


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

    From |e,0> a jump of either channel leads to |g,0>, which never
    returns, so the two-channel population is exact in the one-excitation
    subspace: pop_jc(t) = |c_e0(t)|^2, where the amplitudes (c_e0, c_g1)
    follow the no-jump evolution exp(-i H_eff t) with the 2x2
    H_eff = [[-i gamma/2, g], [g, -i kappa/2]] (Dalibard, Castin &
    Molmer, PRL 68:580, 1992). No Fock truncation enters. The amplitudes
    are carried from grid time to grid time, so every grid time is hit
    exactly; spans equal to within 1e-13 relative share one propagator,
    so a uniform grid costs a single matrix exponential. The single-rate
    model is evaluated in closed form on the same grid. Small when the
    cooperativity is small and gamma_cav is the adiabatic effective
    rate; order one when coherent exchange is resolved.
    """
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1 or times.size == 0 or np.any(times < 0.0):
        raise InvalidParams("t_grid must be 1-D, nonempty, >= 0")
    if np.any(np.diff(times) <= 0.0):
        raise InvalidParams("t_grid must be strictly increasing")

    h_eff = np.array([[-0.5j * params.gamma, params.g],
                      [params.g, -0.5j * params.kappa]])
    y = np.array([1.0, 0.0], dtype=complex)  # (c_e0, c_g1)
    pop_jc = np.empty(times.size)
    props = [(0.0, np.eye(2))]  # a grid starting at t = 0
    for k, span in enumerate(np.diff(times, prepend=0.0)):
        prop = next((p for h, p in props
                     if abs(span - h) <= _SPAN_RTOL * h), None)
        if prop is None:
            prop = _expm(-1j * h_eff * span)
            props.append((span, prop))
        y = prop @ y
        pop_jc[k] = abs(y[0]) ** 2

    pop_single = evolve_single_rate(gamma_cav, np.diag([0.0, 1.0]),
                                    times).excited_population
    return DiscrepancyResult(times=times, pop_jc=pop_jc,
                             pop_single=pop_single)


def fit_decay_rate(times, pops, t_min: float, t_max: float) -> float:
    """Decay rate from a straight-line fit to log population on a window."""
    times = np.asarray(times, dtype=float)
    pops = np.asarray(pops, dtype=float)
    mask = (times >= t_min) & (times <= t_max) & (pops > 0.0)
    if int(mask.sum()) < 2:
        raise InvalidParams(
            "decay-rate fit needs at least two positive samples in window")
    slope = np.polyfit(times[mask], np.log(pops[mask]), 1)[0]
    return -float(slope)
