"""Independent oracles for the test suite.

Everything here recomputes expected values through a different numerical
path than the library: characteristic-polynomial eigenvalues via the
Faddeev-LeVerrier trace recursion, matrix exponentials via scaled Taylor
series, partial traces via einsum, the protocol via explicit composite-space
density-matrix evolution, the period unitary and cycle map on the full
register with no symmetry split, and the sampler's generator via pure-Python
integer arithmetic. It also holds the state-level helpers that only the
tests need: direct Kraus application, the partial trace and the ensemble
average of a trajectory batch. ``collapse_period`` is the sampler's period
as a sequence of whole-batch collapses, renormalizations and swaps, one per
ancilla, and ``dense_period`` the same period as outcome and excited
indices with one product with the dense period unitary; the library's
period, which applies only the excited index's columns of W in the
sectors' frame, must reproduce both. The pair
basis is built as a dense matrix from its definition (``pair_matrix``), and
its split stacks are checked against the padded layout they replaced, by
plain matrix products with that matrix (``padded_split``,
``scatter_unsplit``); the one-parity real gather is checked against the
two-term gather (``two_term_real_gather``).
"""

import numpy as np

from qmcmc.channel import (
    _gram_gather,
    ancilla_preparation,
    build_period_channel,
    build_period_unitary,
    to_superoperator,
)
from qmcmc.errors import DimensionMismatch, NormalizationLoss
from qmcmc.hamiltonians import to_matrix
from qmcmc.rng import next_uniform
from qmcmc.schedule import comb_value

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)

_MASK = (1 << 64) - 1


def charpoly_eigenvalues(mat):
    """Roots of det(lam I - M) with coefficients from the Faddeev-LeVerrier
    recursion (no Hermitian eigensolver involved)."""
    mat = np.asarray(mat, dtype=complex)
    n = mat.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    aux = np.zeros_like(mat)
    for k in range(1, n + 1):
        aux = mat @ aux + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(mat @ aux) / k
    return np.roots(coeffs)


def series_expm(a, terms=30):
    """exp(A) by scaling-and-squaring with a plain Taylor series."""
    a = np.asarray(a, dtype=complex)
    norm = np.linalg.norm(a)
    squarings = max(0, int(np.ceil(np.log2(norm))) + 1) if norm > 0 else 0
    x = a / (2**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def ptrace_last(rho, d_keep, d_rest):
    """Trace out the trailing tensor factor."""
    r = np.asarray(rho).reshape(d_keep, d_rest, d_keep, d_rest)
    return np.einsum("ikjk->ij", r)


def partial_trace(rho, qubit_count, keep):
    """Trace out all qubits not in ``keep`` (qubit 0 is the most significant
    bit); the output is ordered by ascending kept index."""
    rho = np.asarray(rho, dtype=complex)
    n = int(qubit_count)
    dim = 2**n
    if rho.shape != (dim, dim):
        raise DimensionMismatch(
            f"state has shape {rho.shape}, expected ({dim}, {dim}) for {n} qubits"
        )
    keep = sorted(set(int(q) for q in keep))
    if any(q < 0 or q >= n for q in keep):
        raise DimensionMismatch(f"keep indices {keep} outside 0..{n - 1}")
    traced = [q for q in range(n) if q not in keep]
    t = rho.reshape((2,) * (2 * n))
    remaining = n
    for q in sorted(traced, reverse=True):
        t = np.trace(t, axis1=q, axis2=q + remaining)
        remaining -= 1
    d_keep = 2 ** len(keep)
    return t.reshape(d_keep, d_keep)


def apply_channel(kraus, rho):
    """Direct Kraus application ``sum K rho K^dag`` of a KrausSet."""
    return np.einsum("nij,jk,nlk->il", kraus.operators, rho, kraus.operators.conj())


def ensemble_reduced_state(amplitudes, n_s, m_count):
    """Ensemble-averaged system density matrix of a batch of composite
    trajectory amplitudes, shape (shots, 2^(n_s + m_count))."""
    batch = amplitudes.shape[0]
    psi = amplitudes.reshape(batch, 2**n_s, 2**m_count)
    return np.einsum("bia,bja->ij", psi, psi.conj()) / batch


def kron_chain(mats):
    out = np.eye(1, dtype=complex)
    for m in mats:
        out = np.kron(out, m)
    return out


def kron_preparation(p0, m_count):
    """The ancilla distribution as the product of M one-ancilla mixtures
    ``[p0, 1 - p0]``, one ``np.kron`` per ancilla, ancilla 0 first."""
    prep = np.array([1.0])
    for _ in range(m_count):
        prep = np.kron(prep, np.array([p0, 1.0 - p0]))
    return prep


def sequential_cycle_map(spec, cfg):
    """The cycle map as the product of the period superoperators, one per
    period k = 0..n_cycle-1, period 0 applied first; each channel is built
    from the public period unitary and ancilla preparation."""
    n_s, m = spec.qubit_count, cfg.m_count
    total = np.eye(4**n_s, dtype=complex)
    for k in range(cfg.n_cycle):
        omega = comb_value(cfg, k)
        kraus = build_period_channel(build_period_unitary(spec, cfg, omega),
                                     ancilla_preparation(omega, cfg.beta, m), n_s, m)
        total = to_superoperator(kraus).matrix @ total
    return total


def embed(op, pos, n):
    """op on qubit pos of an n-qubit register (qubit 0 leftmost)."""
    return kron_chain([I2] * pos + [op] + [I2] * (n - pos - 1))


def random_density(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_unitary(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _renormalize(amps):
    norms = np.linalg.norm(amps, axis=1)
    if norms.min() <= 1e-150:
        raise NormalizationLoss("trajectory collapsed onto a zero-probability branch")
    amps /= norms[:, np.newaxis]


def collapse_period(amps, states, w, p0, m_count):
    """One sampler period on a batch: for each ancilla, one draw, a masked
    collapse of the whole batch, its renormalization and a swap back to
    ``|0>`` for outcome 1; then one draw and a swap per excitation, and
    ``w``. Writes into ``amps``; returns fresh amplitudes and the states."""
    amps = np.ascontiguousarray(amps)
    batch = amps.shape[0]
    for m in range(m_count):
        view = amps.reshape(batch, -1, 2, 2**(m_count - 1 - m))
        p_one = np.abs(view[:, :, 1, :]) ** 2
        p_one = p_one.sum(axis=(1, 2))
        u, states = next_uniform(states)
        got_one = u < p_one
        view[got_one, :, 0, :] = 0.0
        view[~got_one, :, 1, :] = 0.0
        _renormalize(amps)
        if got_one.any():
            view[got_one, :, 0, :], view[got_one, :, 1, :] = (
                view[got_one, :, 1, :], view[got_one, :, 0, :])
    for m in range(m_count):
        u, states = next_uniform(states)
        flip = u < (1.0 - p0)
        if flip.any():
            view = amps.reshape(batch, -1, 2, 2**(m_count - 1 - m))
            view[flip, :, 0, :], view[flip, :, 1, :] = (
                view[flip, :, 1, :], view[flip, :, 0, :])
    amps = amps @ w.T
    norms = np.linalg.norm(amps, axis=1)
    drift = np.abs(norms - 1.0).max()
    if drift > 1e-6:
        raise NormalizationLoss(f"norm drifted by {drift:.3e} over one period")
    amps /= norms[:, np.newaxis]
    return amps, states


def apply_unitary(amps, w):
    """``amps @ w.T``; BLAS takes a one-row product through gemv, which
    rounds differently from the gemm of wider batches, so a duplicated row
    keeps a shot's amplitudes independent of the batch it runs in."""
    if amps.shape[0] == 1:
        return (np.concatenate([amps, amps]) @ w.T)[:1]
    return amps @ w.T


def dense_period(amps, states, w, p0, m_count):
    """One sampler period on a batch of composite amplitudes with the dense
    period unitary ``w``: the M reset outcomes drawn into one outcome index
    per shot (each ancilla's marginal given the outcomes already drawn,
    outcome 1 when ``u P(prefix) < P(prefix, 1)``), the M excitations into an
    excited index, the outcome's normalized system amplitudes re-embedded at
    that index in a zeroed buffer, one product with ``w``, and the whole
    vector renormalized. Overwrites ``amps``; returns fresh amplitudes and
    the states."""
    batch, rows = amps.shape[0], np.arange(amps.shape[0])
    grid = amps.reshape(batch, -1, 2**m_count)
    probs = (np.abs(grid) ** 2).sum(axis=1)
    outcome = np.zeros(batch, dtype=int)
    for m in range(m_count):
        pair = probs.reshape(batch, 2**m, 2, -1).sum(axis=3)[rows, outcome]
        u, states = next_uniform(states)
        outcome = 2 * outcome + (u * pair.sum(axis=1) < pair[:, 1])
    excited = np.zeros(batch, dtype=int)
    for _ in range(m_count):
        u, states = next_uniform(states)
        excited = 2 * excited + (u < 1.0 - p0)
    norms = np.sqrt(probs[rows, outcome])
    if not norms.min() > 1e-150:
        raise NormalizationLoss("trajectory collapsed onto a zero-probability branch")
    kept = grid[rows, :, outcome] / norms[:, np.newaxis]
    grid[...] = 0.0
    grid[rows, :, excited] = kept
    amps = apply_unitary(grid.reshape(batch, -1), w)
    norms = np.linalg.norm(amps, axis=1)
    drift = np.abs(norms - 1.0).max()
    if not drift <= 1e-6:
        raise NormalizationLoss(f"norm drifted by {drift:.3e} over one period")
    amps /= norms[:, np.newaxis]
    return amps, states


def composite_period_unitary(h_s, ancilla_map, g, omega, n_trotter):
    """W of one period by explicit factor-by-factor multiplication on the
    full space, each factor a Taylor-series exponential."""
    n_s = int(np.log2(h_s.shape[0]))
    m = len(ancilla_map)
    n = n_s + m
    dt = np.pi / (g * n_trotter)
    c = series_expm(1j * (omega / 2.0) * dt * sum(embed(Z, n_s + i, n) for i in range(m))) \
        if m else np.eye(2**n)
    b = series_expm(-1j * dt * np.kron(h_s, np.eye(2**m)))
    a = np.eye(2**n, dtype=complex)
    for anc, principal in enumerate(ancilla_map):
        coupling = embed(X, principal, n) @ embed(X, n_s + anc, n)
        a = a @ series_expm(-1j * g * dt * coupling)
    step = a @ b @ c
    w = np.eye(2**n, dtype=complex)
    for _ in range(n_trotter):
        w = step @ w
    return w


def pauli_word_matrix(word):
    """Dense matrix of a Pauli word such as ``"XYIZ"``."""
    return kron_chain([{"I": I2, "X": X, "Y": Y, "Z": Z}[c] for c in word])


def dense_step(spec, cfg, omega):
    """One Trotter step on the full composite register in the computational
    basis: ancilla phases, then the system step, then the couplings."""
    n_s, m = spec.qubit_count, cfg.m_count
    n = n_s + m
    dt = cfg.t_g / cfg.n_trotter
    theta = np.pi / cfg.n_trotter
    step = np.kron(series_expm(-1j * dt * to_matrix(spec)), np.eye(2**m))
    for anc, principal in enumerate(cfg.ancilla_map):
        xx = embed(X, principal, n) @ embed(X, n_s + anc, n)
        step = (np.cos(theta) * np.eye(2**n) - 1j * np.sin(theta) * xx) @ step
    phases = sum(np.diag(embed(Z, n_s + a, n)).real for a in range(m))
    return step * np.exp(1j * (omega * dt / 2.0) * phases)[np.newaxis, :]


def dense_period_unitary(spec, cfg, omega):
    """W(Omega) as the power of the dense step."""
    return np.linalg.matrix_power(dense_step(spec, cfg, omega), cfg.n_trotter)


def dense_cycle_map(spec, cfg):
    """The cycle map on column-stacked states, composed from the Kraus sums
    ``sum_K kron(conj(K), K)`` of the dense period unitaries."""
    n_s, m = spec.qubit_count, cfg.m_count
    total = np.eye(4**n_s, dtype=complex)
    for k in range(cfg.n_cycle):
        omega = comb_value(cfg, k)
        kraus = build_period_channel(dense_period_unitary(spec, cfg, omega),
                                     ancilla_preparation(omega, cfg.beta, m), n_s, m)
        total = sum(np.kron(op.conj(), op) for op in kraus.operators) @ total
    return total


def composite_cycle_oracle(h_s, ancilla_map, g, beta, omega_m, n_trotter, n_cycle):
    """One full comb cycle as an explicit composite-space density-matrix map:
    reset Kraus sum, per-ancilla flip mixture, then the period unitary.

    Returns a function rho_s -> rho_s'.
    """
    n_s = int(np.log2(h_s.shape[0]))
    m = len(ancilla_map)
    n = n_s + m
    d_s, d_a = 2**n_s, 2**m
    reset_ops = [np.kron(np.eye(d_s), np.outer(np.eye(d_a)[:, 0], np.eye(d_a)[i]))
                 for i in range(d_a)]
    flips = [embed(X, n_s + i, n) for i in range(m)]
    ws, p0s = [], []
    for k in range(n_cycle):
        omega = omega_m * np.sin(np.pi * k / n_cycle) ** 2
        ws.append(composite_period_unitary(h_s, ancilla_map, g, omega, n_trotter))
        p0s.append(1.0 / (1.0 + np.exp(-beta * omega)))

    def run(rho_s):
        anc0 = np.zeros((d_a, d_a), dtype=complex)
        anc0[0, 0] = 1.0
        rho = np.kron(rho_s, anc0)
        for w, p0 in zip(ws, p0s):
            rho = sum(r @ rho @ r.conj().T for r in reset_ops)
            for xm in flips:
                rho = p0 * rho + (1.0 - p0) * (xm @ rho @ xm)
            rho = w @ rho @ w.conj().T
        return ptrace_last(rho, d_s, d_a)

    return run


def splitmix64_py(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def xorshift64star_py(state):
    """One step; returns (uniform double, new state)."""
    s = state
    s ^= s >> 12
    s = (s ^ (s << 25)) & _MASK
    s ^= s >> 27
    out = (s * 0x2545F4914F6CDD1D) & _MASK
    return (out >> 11) * 2.0**-53, s


def padded_order(image, odd):
    """``order[s, p]``: sector ``s``'s positions of parity ``p`` (0 even, 1
    odd) in the pair basis of ``image`` with the real phases ``odd``,
    padded with -1 to the largest block."""
    x = np.arange(image.shape[1])
    parity = (x < image) ^ (np.real(odd) < 0)
    rank = np.where(parity, parity.cumsum(axis=1), (~parity).cumsum(axis=1)) - 1
    order = np.full((len(image), 2, rank.max() + 1), -1)
    order[np.arange(len(image))[:, np.newaxis], parity.astype(int), rank] = x
    return order


def pair_matrix(image, odd):
    """The dense (sectors, size, size) pair basis ``T`` of the involution
    ``image`` with the phase ``odd`` (one, or one per position), entry by
    entry: a fixed position keeps its coordinate, and each pair ``x < y``
    becomes ``odd (v_y - v_x) / sqrt(2)`` at ``x`` and ``(v_x + v_y) /
    sqrt(2)`` at ``y``."""
    count, size = image.shape
    odd = np.broadcast_to(odd, image.shape)
    t = np.zeros((count, size, size), dtype=complex)
    for s in range(count):
        for x in range(size):
            y = int(image[s, x])
            if y == x:
                t[s, x, x] = 1.0
            elif x < y:
                t[s, x, x], t[s, x, y] = -odd[s, x] / np.sqrt(2), odd[s, x] / np.sqrt(2)
            else:
                t[s, x, y], t[s, x, x] = 1 / np.sqrt(2), 1 / np.sqrt(2)
    return t


def padded_split(t, blocks, weights, order):
    """The (sectors * 2, width, width) stack of each parity's block of ``T B
    T^dag`` for the :func:`pair_matrix` ``t`` and the (sectors, size, size)
    ``blocks``, cut by ``order`` and padded with the identity, and the
    weights of its coordinates, 0 on the padding."""
    rows, cols = order[..., :, None], order[..., None, :]
    t = t @ blocks @ t.conj().swapaxes(1, 2)
    t = t[np.arange(len(t))[:, None, None, None], rows, cols]
    t = np.where((rows >= 0) & (cols >= 0), t, np.eye(t.shape[-1])).reshape(-1, *t.shape[-2:])
    weights = np.take_along_axis(weights[:, np.newaxis], order, axis=2)
    return t, np.where(order >= 0, weights, 0.0).reshape(len(t), -1)


def scatter_unsplit(t, w, order):
    """The (..., sectors, size, size) blocks ``T^dag B T`` of a (...,
    sectors * 2, width, width) :func:`padded_split` stack for the
    :func:`pair_matrix` ``t``: each parity's block scattered to its
    positions, then ``T`` undone."""
    count, size = t.shape[:2]
    values, entries = int(np.prod(w.shape[:-3])), count * size * size
    rows, cols = order[..., :, None], order[..., None, :]
    at = ((np.arange(count)[:, None, None, None] * size + rows) * size + cols).reshape(-1)
    at = np.where(((rows < 0) | (cols < 0)).reshape(-1), values * entries,
                  np.arange(values)[:, np.newaxis] * entries + at)
    out = np.zeros(values * entries + 1, dtype=w.dtype)
    out[at] = w.reshape(at.shape)
    out = out[:-1].reshape(w.shape[:-3] + (count, size, size))
    return t.conj().swapaxes(1, 2) @ out @ t


def two_term_real_gather(sectors):
    """``(index, coef)``, each (2, sectors, size, size), such that the
    unsplit real block entry ``[s, p, q]`` of a Hermiticity-preserving map
    is ``sum_t coef[t] * view[index[t]]`` for ``view`` the float view of its
    Gram stack: ``2 Re(a_p conj(a_q) S[p, q] + a_p a_q S[p, q'])``, built
    from the whole Gram gather."""
    a, partner = sectors.hermitian.a, sectors.hermitian.image
    gram = _gram_gather(sectors.pairs, sectors.pair_at)
    index = np.stack([gram, np.take_along_axis(gram, partner[:, np.newaxis, :], axis=2)])
    coef = np.empty(index.shape)
    for t, right in enumerate((a.conj(), a)):
        product = a[:, :, np.newaxis] * right[:, np.newaxis, :]
        imaginary = product.imag != 0
        index[t] = 2 * index[t] + imaginary
        coef[t] = 2.0 * np.where(imaginary, -product.imag, product.real)
    return index, coef
