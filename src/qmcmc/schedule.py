"""Protocol parameters and the spectral-combing time dependence.

The ancilla splitting is swept as ``Omega(t) = omega_m * f(t)`` with
``f(t) = sin^2(pi t / T_cycle)``, held constant over each interaction period
of length ``T_g = pi / g`` and sampled at the period start ``t_k = k T_g``.

Under the ``g X_s X_a`` coupling, a single exchange ``|1,0> <-> |0,1>``
between a system transition and an ancilla is a two-level system with
coupling ``g`` and detuning ``Delta``. At resonance it turns through a full
2 pi in ``T_g`` and moves no population; the transfer over one period,
``g^2 / (g^2 + Delta^2 / 4) sin^2(sqrt(g^2 + Delta^2 / 4) T_g)``, is largest
at ``|Delta| = 2.05 g``, about 0.47 (0.45 at 2.2 g). Population moves
through these detuned transitions as the comb sweeps past each system gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import IndexOutOfRange, InvalidTolerance

# Factor by which each side of the rate hierarchy counts as "much less".
HIERARCHY_THRESHOLD = 10.0


@dataclass(frozen=True)
class ProtocolConfig:
    """All protocol parameters for one run.

    ``ancilla_map[m]`` is the principal-qubit index coupled to ancilla ``m``;
    its length sets the ancilla count M. Energies are in the caller's units
    (the Hamiltonian's coupling sets the scale), times in their inverse.
    """

    g: float
    beta: float
    omega_m: float
    n_trotter: int
    n_cycle: int
    ancilla_map: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ancilla_map", tuple(int(q) for q in self.ancilla_map))
        for name in ("g", "beta", "omega_m"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.g <= 0:
            raise ValueError(f"coupling g must be > 0, got {self.g}")
        if self.beta < 0:
            raise ValueError(f"beta must be >= 0, got {self.beta}")
        if self.omega_m < 0:
            raise ValueError(f"omega_m must be >= 0, got {self.omega_m}")
        if self.n_trotter < 1:
            raise ValueError(f"n_trotter must be >= 1, got {self.n_trotter}")
        if self.n_cycle < 1:
            raise ValueError(f"n_cycle must be >= 1, got {self.n_cycle}")
        if len(self.ancilla_map) < 1:
            raise ValueError("ancilla_map must list at least one ancilla")
        if any(q < 0 for q in self.ancilla_map):
            raise ValueError(f"ancilla_map entries must be >= 0: {self.ancilla_map}")

    @property
    def m_count(self) -> int:
        return len(self.ancilla_map)

    @property
    def t_g(self) -> float:
        """Interaction period pi/g."""
        return math.pi / self.g

    @property
    def t_cycle(self) -> float:
        """Full comb sweep time T_g * n_cycle."""
        return self.t_g * self.n_cycle

    @property
    def aliasing_ratio(self) -> float:
        """``omega_m dt / pi`` for the Trotter step ``dt = T_g / n_trotter``.
        Energy differences span ``[-omega_m, omega_m]``, so from 1 on two of
        them can take the same phase per step."""
        return self.omega_m * (self.t_g / self.n_trotter) / math.pi


def comb_value(cfg: ProtocolConfig, k: int) -> float:
    """Ancilla splitting ``Omega(t_k)`` for period ``k``.

    Evaluated as ``omega_m sin^2(pi k' / n_cycle)`` with
    ``k' = min(k, n_cycle - k)`` so the mid-cycle symmetry
    ``Omega(t_k) == Omega(t_{n_cycle-k})`` holds exactly in floating point.
    """
    if not 0 <= k < cfg.n_cycle:
        raise IndexOutOfRange(f"period index {k} outside 0..{cfg.n_cycle - 1}")
    folded = min(k, cfg.n_cycle - k)
    return cfg.omega_m * math.sin(math.pi * folded / cfg.n_cycle) ** 2


def ground_probability(omega: float, beta: float) -> float:
    """Thermal ground-state occupation of a two-level ancilla with splitting
    ``omega``: the logistic ``1 / (1 + exp(-beta*omega))``, evaluated as
    ``e / (1 + e)`` with ``e = exp(beta*omega)`` for negative arguments so
    that ``exp`` never overflows."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    x = beta * omega
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class HierarchyReport:
    """Outcome of the rate-hierarchy check ``max|dOmega/dt| << g << ||H_s||``.

    Each inequality a << b holds when b >= HIERARCHY_THRESHOLD * a; the stored
    ratios are a/b, so smaller is better and 0 passes trivially. Warnings
    only: exploratory runs outside the weak-coupling regime are permitted.
    """

    max_comb_slope: float
    slope_to_coupling: float
    coupling_to_system: float
    slope_ok: bool
    coupling_ok: bool

    def summary(self) -> str:
        def verdict(flag):
            return "ok" if flag else "WARNING: not << (ratio above 1/threshold)"

        return "\n".join([
            f"rate hierarchy (threshold {HIERARCHY_THRESHOLD:g}x per inequality):",
            f"  max |dOmega/dt| = {self.max_comb_slope:.6g}",
            f"  slope / g       = {self.slope_to_coupling:.6g}  [{verdict(self.slope_ok)}]",
            f"  g / ||H_s||     = {self.coupling_to_system:.6g}  [{verdict(self.coupling_ok)}]",
        ])


def validate_hierarchy(cfg: ProtocolConfig, h_s_norm: float) -> HierarchyReport:
    """Check the separation of timescales for the sin^2 comb.

    ``max|dOmega/dt| = pi * omega_m / T_cycle``. Never raises; callers decide
    what to do with the warning flags.
    """
    slope = math.pi * cfg.omega_m / cfg.t_cycle
    r1 = slope / cfg.g
    r2 = cfg.g / h_s_norm if h_s_norm > 0 else math.inf
    return HierarchyReport(
        max_comb_slope=slope,
        slope_to_coupling=r1,
        coupling_to_system=r2,
        slope_ok=r1 * HIERARCHY_THRESHOLD <= 1.0,
        coupling_ok=r2 * HIERARCHY_THRESHOLD <= 1.0,
    )


def suggest_trotter_steps(t_g: float, lambda_max: float, epsilon: float) -> int:
    """Step count ``ceil((3 t_g lambda_max)^2 / epsilon)`` for a target
    first-order discretization error; a ValueError when it overflows."""
    if epsilon <= 0:
        raise InvalidTolerance(f"epsilon must be > 0, got {epsilon}")
    try:
        return int(math.ceil((3.0 * t_g * lambda_max) ** 2 / epsilon))
    except OverflowError:
        raise ValueError(f"the suggested Trotter step count overflows (t_g = {t_g:g}, "
                         f"Lambda = {lambda_max:g}, epsilon = {epsilon:g})") from None
