"""Spin Hamiltonians as weighted Pauli-string sums, plus exact thermal oracles.

Two model families are provided: the transverse-field Ising chain (open
boundaries, field along Y) and diagonal Ising models on weighted graphs.
A small text format (``coeff pauli-word`` per line) round-trips arbitrary
specs to disk.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidGraph,
    InvalidSize,
    NonDiagonalHamiltonian,
)
from .linalg import _bits, hermitian_eig

PAULIS = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliString:
    """One term of a Hamiltonian: a real coefficient times a Pauli word."""

    coefficient: float
    letters: str

    def __post_init__(self):
        if not self.letters or any(c not in PAULIS for c in self.letters):
            raise ValueError(f"invalid Pauli word {self.letters!r}")
        if not math.isfinite(self.coefficient):
            raise ValueError(f"non-finite coefficient {self.coefficient!r}")


@dataclass(frozen=True)
class HamiltonianSpec:
    """A system Hamiltonian on ``qubit_count`` qubits as a sum of Pauli strings."""

    qubit_count: int
    terms: tuple[PauliString, ...]
    label: str = ""
    _spectrum: tuple | None = field(default=None, init=False, repr=False, compare=False)
    # the run's symmetry sectors by ancilla map, kept by qmcmc.channel
    _sectors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.qubit_count < 1:
            raise InvalidSize(f"qubit_count must be >= 1, got {self.qubit_count}")
        object.__setattr__(self, "terms", tuple(self.terms))
        for t in self.terms:
            if len(t.letters) != self.qubit_count:
                raise DimensionMismatch(
                    f"term {t.letters!r} has {len(t.letters)} letters, "
                    f"expected {self.qubit_count}"
                )

    @property
    def is_diagonal(self) -> bool:
        """True when every term uses only I/Z letters."""
        return all(set(t.letters) <= {"I", "Z"} for t in self.terms)

    @property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only ``(w, v) = hermitian_eig(to_matrix(self))``, computed on
        first use and kept: the one diagonalization of the model."""
        if self._spectrum is None:
            w, v = hermitian_eig(to_matrix(self))
            w.flags.writeable = v.flags.writeable = False
            object.__setattr__(self, "_spectrum", (w, v))
        return self._spectrum


@dataclass(frozen=True)
class GraphInstance:
    """Weighted graph defining a diagonal Ising model.

    ``edges`` holds (j, k, weight) with j < k; duplicates are rejected.
    """

    vertex_count: int
    local_fields: tuple[float, ...]
    edges: tuple[tuple[int, int, float], ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "local_fields", tuple(float(h) for h in self.local_fields))
        object.__setattr__(
            self, "edges", tuple((int(j), int(k), float(w)) for j, k, w in self.edges)
        )
        if self.vertex_count < 1:
            raise InvalidGraph(f"vertex_count must be >= 1, got {self.vertex_count}")
        if len(self.local_fields) != self.vertex_count:
            raise InvalidGraph(
                f"{len(self.local_fields)} local fields for {self.vertex_count} vertices"
            )
        seen = set()
        for j, k, _ in self.edges:
            if not (0 <= j < k < self.vertex_count):
                raise InvalidGraph(f"edge ({j}, {k}) violates 0 <= j < k < n")
            if (j, k) in seen:
                raise InvalidGraph(f"duplicate edge ({j}, {k})")
            seen.add((j, k))


def _one_letter_word(n: int, pos: int, letter: str) -> str:
    return "I" * pos + letter + "I" * (n - pos - 1)


def build_tfim(n: int, j: float, h: float) -> HamiltonianSpec:
    """Transverse-field Ising chain: ``-j ZZ`` couplings (open boundary)
    and ``-h Y`` fields."""
    if n < 1:
        raise InvalidSize(f"chain length must be >= 1, got {n}")
    terms = []
    for i in range(n - 1):
        word = "I" * i + "ZZ" + "I" * (n - i - 2)
        terms.append(PauliString(-float(j), word))
    for i in range(n):
        terms.append(PauliString(-float(h), _one_letter_word(n, i, "Y")))
    return HamiltonianSpec(n, tuple(terms), label=f"tfim_n{n}")


def build_graph_ising(g: GraphInstance) -> HamiltonianSpec:
    """Diagonal Hamiltonian ``sum_i h_i Z_i + sum_edges w Z_j Z_k``."""
    n = g.vertex_count
    terms = [
        PauliString(h_i, _one_letter_word(n, i, "Z"))
        for i, h_i in enumerate(g.local_fields)
    ]
    for j, k, w in g.edges:
        word = ["I"] * n
        word[j] = "Z"
        word[k] = "Z"
        terms.append(PauliString(w, "".join(word)))
    return HamiltonianSpec(n, tuple(terms), label=f"graph_n{n}")


def to_matrix(spec: HamiltonianSpec) -> np.ndarray:
    """Dense matrix of the spec; Hermitian by construction. Each term is a
    signed permutation: its word, with ``x`` the mask of its X and Y letters
    and ``z`` that of its Z and Y letters, takes ``|v>`` to ``i^#Y
    (-1)^popcount(v & z) |v xor x>``, the popcount read off the bit table."""
    n = spec.qubit_count
    bits, v = _bits(n), np.arange(2**n)
    out = np.zeros((2**n, 2**n), dtype=complex)
    for t in spec.terms:
        x = sum(1 << (n - 1 - q) for q, c in enumerate(t.letters) if c in "XY")
        z = np.array([c in "YZ" for c in t.letters])
        out[v ^ x, v] += t.coefficient * 1j ** t.letters.count("Y") * (1 - 2 * (bits @ z & 1))
    return out


def spectral_width(spec: HamiltonianSpec) -> float:
    """``E_max - E_min`` of ``spec.spectrum`` (inf, silently, on overflow)."""
    w = spec.spectrum[0]
    return float(w[-1]) - float(w[0])


def spectral_norm(spec: HamiltonianSpec) -> float:
    """``||H||``, the largest ``|E|`` of ``spec.spectrum``."""
    return float(np.abs(spec.spectrum[0]).max())


def thermal_state(spec: HamiltonianSpec, beta: float) -> np.ndarray:
    """Gibbs state ``exp(-beta H) / Z``.

    Uses ``spec.spectrum`` with a max-exponent shift so that arbitrarily
    large beta underflows gracefully instead of overflowing: an exponent
    ``-beta (E - E_0)`` that overflows is ``-inf``, whose weight is 0.
    """
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    w, v = spec.spectrum
    with np.errstate(over="ignore"):
        weights = np.exp(-beta * (w - w[0]))
    weights /= weights.sum()
    return (v * weights) @ v.conj().T


def gibbs_distribution(spec: HamiltonianSpec, beta: float) -> np.ndarray:
    """Boltzmann distribution over computational-basis states of a diagonal
    spec: the diagonal of :func:`thermal_state`, which is ``exp(-beta H)/Z``
    exactly when ``H`` is diagonal."""
    if not spec.is_diagonal:
        raise NonDiagonalHamiltonian(f"{spec.label or 'spec'} contains X/Y letters")
    return np.diag(thermal_state(spec, beta)).real


def dump_hamiltonian(spec: HamiltonianSpec, path) -> None:
    """Write the one-term-per-line text form (``coeff pauli-word``)."""
    with open(path, "w", encoding="utf-8") as fh:
        if spec.label:
            fh.write(f"# {spec.label}\n")
        for t in spec.terms:
            fh.write(f"{t.coefficient!r} {t.letters}\n")


def load_hamiltonian(path) -> HamiltonianSpec:
    """Parse the text form; qubit count is inferred from the word length
    and every line must agree."""
    terms = []
    n = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(
                    f"{path}:{lineno}: expected 'coeff pauli-word', got {raw!r}"
                )
            try:
                coeff = float(parts[0])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad coefficient {parts[0]!r}") from exc
            word = parts[1].upper()
            if n is None:
                n = len(word)
            elif len(word) != n:
                raise DimensionMismatch(
                    f"{path}:{lineno}: word {word!r} has {len(word)} letters, "
                    f"previous lines had {n}"
                )
            terms.append(PauliString(coeff, word))
    if not terms:
        raise ValueError(f"{path}: no Hamiltonian terms found")
    label = os.path.splitext(os.path.basename(str(path)))[0]
    return HamiltonianSpec(n, tuple(terms), label=label)
