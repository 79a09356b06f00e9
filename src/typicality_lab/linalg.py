"""Dense complex linear algebra for small Hilbert spaces.

Everything here works on plain ``numpy`` arrays: operators are square
complex matrices, states are complex unit vectors.  The module provides
the handful of constructions the measurement protocols need -- tensor
products, the two-element projective decomposition of an involutory
observable, controlled unitaries built from a projective partition of the
control space, and :class:`MeasurementOperatorSet`, the one labelled
operator container.  Every measurement here is projective, so that
container always checks orthogonal idempotence and completeness.

Qubit 0 is always the leftmost tensor factor and the most significant
index bit, so ``tensor(a, b)`` places ``a`` outermost.

All operator identities are verified with absolute entrywise tolerance
``ATOL`` (1e-12); matrices never exceed 64x64 here, so accumulated
floating-point error stays orders of magnitude below that.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .checks import ATOL

__all__ = [
    "ATOL",
    "I2",
    "X",
    "Y",
    "Z",
    "MAX_TENSOR_DIM",
    "dag",
    "is_hermitian",
    "is_unitary",
    "basis",
    "ket_plus",
    "bell_singlet",
    "ghz_state",
    "projector",
    "tensor",
    "involutory_pvm",
    "MeasurementOperatorSet",
    "check_completeness",
    "controlled_unitary",
]

#: Largest total dimension ``tensor`` will produce.
MAX_TENSOR_DIM = 2**12


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def as_operator(a) -> np.ndarray:
    """Coerce to a square, finite complex matrix (read-only copy)."""
    m = np.array(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {m.shape}")
    if m.shape[0] == 0:
        raise ValueError("operator must be non-empty")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise ValueError("operator entries must be finite")
    return _frozen(m)


def as_state(v) -> np.ndarray:
    """Coerce to a finite complex unit vector (read-only copy)."""
    s = np.array(v, dtype=complex).reshape(-1)
    if s.size == 0:
        raise ValueError("state vector must be non-empty")
    if not np.all(np.isfinite(s.real)) or not np.all(np.isfinite(s.imag)):
        raise ValueError("state amplitudes must be finite")
    norm = float(np.linalg.norm(s))
    if abs(norm - 1.0) > ATOL:
        raise ValueError(f"state vector must have unit norm, got {norm!r}")
    return _frozen(s)


I2 = as_operator(np.eye(2))
X = as_operator([[0, 1], [1, 0]])
Y = as_operator([[0, -1j], [1j, 0]])
Z = as_operator([[1, 0], [0, -1]])


def dag(a: np.ndarray) -> np.ndarray:
    """Adjoint (conjugate transpose)."""
    return np.asarray(a).conj().T


def is_hermitian(a: np.ndarray) -> bool:
    a = np.asarray(a)
    return bool(np.abs(a - dag(a)).max() <= ATOL)


def is_unitary(a: np.ndarray) -> bool:
    a = np.asarray(a)
    eye = np.eye(a.shape[0])
    return bool(
        np.abs(dag(a) @ a - eye).max() <= ATOL
        and np.abs(a @ dag(a) - eye).max() <= ATOL
    )


def basis(dim: int, index: int) -> np.ndarray:
    """Computational basis vector |index> in a dim-dimensional space."""
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for dimension {dim}")
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return _frozen(v)


def ket_plus() -> np.ndarray:
    """The single-qubit state (|0> + |1>) / sqrt(2)."""
    return as_state([1 / math.sqrt(2), 1 / math.sqrt(2)])


def bell_singlet() -> np.ndarray:
    """The two-qubit singlet (|01> - |10>) / sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / math.sqrt(2)
    v[2] = -1 / math.sqrt(2)
    return _frozen(v)


def ghz_state() -> np.ndarray:
    """The three-qubit state (|000> - |111>) / sqrt(2)."""
    v = np.zeros(8, dtype=complex)
    v[0] = 1 / math.sqrt(2)
    v[7] = -1 / math.sqrt(2)
    return _frozen(v)


def projector(v) -> np.ndarray:
    """Rank-one projector |v><v| onto a unit vector."""
    s = as_state(v)
    return _frozen(np.outer(s, s.conj()))


def _tensor_kind(x: np.ndarray) -> str:
    if x.ndim == 1:
        return "state"
    if x.ndim == 2:
        return "operator"
    raise ValueError(f"tensor factors must be vectors or matrices, got ndim={x.ndim}")


def tensor(*factors) -> np.ndarray:
    """Kronecker product of operators, or of state vectors.

    The left factor is outermost: the result index is
    ``index_left * dim_right + index_right``.  Mixing operators and
    states in one call is an error, as is exceeding the dimension cap
    ``MAX_TENSOR_DIM``.
    """
    if len(factors) < 2:
        raise ValueError("tensor requires at least two factors")
    arrays = [np.asarray(f, dtype=complex) for f in factors]
    kinds = {_tensor_kind(a) for a in arrays}
    if len(kinds) != 1:
        raise ValueError("tensor factors must all be operators or all be states")
    total = 1
    for a in arrays:
        total *= a.shape[0]
    if total > MAX_TENSOR_DIM:
        raise ValueError(f"tensor product dimension {total} exceeds cap {MAX_TENSOR_DIM}")
    out = arrays[0]
    for a in arrays[1:]:
        out = np.kron(out, a)
    return _frozen(out)


def involutory_pvm(obs) -> "MeasurementOperatorSet":
    """Two-element PVM ``{+1: (I+A)/2, -1: (I-A)/2}`` of a Hermitian involution.

    Requires ``A`` Hermitian with ``A @ A = I`` to within ``ATOL``; the
    returned projectors satisfy ``E+ - E- = A`` by construction.
    """
    a = as_operator(obs)
    if not is_hermitian(a):
        raise ValueError("observable must be Hermitian")
    eye = np.eye(a.shape[0])
    if np.abs(a @ a - eye).max() > ATOL:
        raise ValueError("observable must square to the identity (eigenvalues +/-1)")
    plus = (eye + a) / 2
    minus = (eye - a) / 2
    return MeasurementOperatorSet([(+1, plus), (-1, minus)])


def check_completeness(elements) -> float:
    """Max-abs deviation of ``sum_m M_m^dag M_m`` from the identity.

    Takes ``(label, operator)`` pairs, as a :class:`MeasurementOperatorSet`
    iterates.  Callers enforce the tolerance.
    """
    pairs = [(label, as_operator(m)) for label, m in elements]
    if not pairs:
        raise ValueError("measurement operator set is empty")
    dim = pairs[0][1].shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    for _, m in pairs:
        if m.shape[0] != dim:
            raise ValueError("measurement operators must share one dimension")
        total += dag(m) @ m
    return float(np.abs(total - np.eye(dim)).max())


class MeasurementOperatorSet:
    """A projective measurement: labelled operators ``{P_m}`` on one space.

    Construction verifies, to within ``ATOL``: each element Hermitian,
    ``P_a P_b = delta_ab P_a`` (orthogonal idempotence) and the
    completeness equation ``sum_m P_m^dag P_m = I``, which for projectors
    is ``sum_m P_m = I``.  Every measurement in this package is projective,
    so these are the only operator sets it builds.
    """

    def __init__(self, elements: Iterable[tuple[object, np.ndarray]]):
        pairs = [(label, as_operator(m)) for label, m in elements]
        if not pairs:
            raise ValueError("measurement operator set is empty")
        labels = [label for label, _ in pairs]
        if len(set(labels)) != len(labels):
            raise ValueError("measurement operator labels must be distinct")
        dim = pairs[0][1].shape[0]
        for label, m in pairs:
            if m.shape[0] != dim:
                raise ValueError("measurement operators must share one dimension")
            if not is_hermitian(m):
                raise ValueError(f"measurement operator {label!r} is not Hermitian")
        # The same projectors may break either condition or both, so the
        # error names each that fails (the first offending pair, if any).
        problems = [
            f"elements {la!r}, {lb!r} violate orthogonal idempotence"
            for i, (la, pa) in enumerate(pairs)
            for lb, pb in pairs[i:]
            if np.abs(pa @ pb - (pa if la == lb else 0.0)).max() > ATOL
        ][:1]
        defect = check_completeness(pairs)
        if defect > ATOL:
            problems.append(
                f"completeness equation violated: the elements do not sum to the "
                f"identity (max deviation {defect:.3e} > {ATOL})"
            )
        if problems:
            raise ValueError("; ".join(problems))
        self._elements = tuple(pairs)
        self._dim = dim

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def labels(self) -> tuple:
        return tuple(label for label, _ in self._elements)

    def operator_for(self, label) -> np.ndarray:
        for lab, m in self._elements:
            if lab == label:
                return m
        raise KeyError(label)

    def outcome_probabilities(self, state) -> dict:
        """Born-rule weights ``<psi|M^dag M|psi>`` for every label."""
        psi = as_state(state)
        if psi.size != self._dim:
            raise ValueError(
                f"state dim {psi.size} does not match operator dim {self._dim}"
            )
        probs = {}
        for label, m in self._elements:
            w = m @ psi
            probs[label] = float(np.real(w.conj() @ w))
        return probs

    def __iter__(self):
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __repr__(self) -> str:
        return f"MeasurementOperatorSet(dim={self._dim}, size={len(self._elements)})"


def controlled_unitary(branches: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Unitary ``sum_n U_n (x) P_n`` from unitaries and a projective partition.

    ``branches`` is a sequence of ``(unitary, projector)`` pairs: the
    unitaries share one dimension and the projectors must form a PVM on
    their own (control) space.  The control space is the right tensor
    factor, so for any ``|phi>`` with ``P_n|phi> = |phi>``,
    ``U(|theta> (x) |phi>) = (U_n|theta>) (x) |phi>``.
    """
    if not branches:
        raise ValueError("controlled_unitary requires at least one branch")
    unitaries = [as_operator(u) for u, _ in branches]
    projectors = [as_operator(p) for _, p in branches]
    udim = unitaries[0].shape[0]
    for u in unitaries:
        if u.shape[0] != udim:
            raise ValueError("branch unitaries must share one dimension")
        if not is_unitary(u):
            raise ValueError("branch operator is not unitary")
    MeasurementOperatorSet(list(enumerate(projectors)))  # raises unless they form a PVM
    out = sum(tensor(u, p) for u, p in zip(unitaries, projectors))
    return _frozen(out)
