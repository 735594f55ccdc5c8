"""States, channels, measurements, and the statistics connecting them.

Everything downstream (confusability graphs, capacity bounds, block codes)
consumes exactly one quantity computed here: the outcome distribution
``p(j|i) = tr(E(rho_i) E_j)`` of state ``i`` pushed through the channel and
measured with POVM element ``j``.  This module owns the linear algebra and
the validation policy: inputs that fail a contract are rejected with the
measured deviation, never repaired.  Every check uses one fixed absolute
tolerance of 1e-9, each in its own norm (see ``_TOL``).

A channel keeps its Kraus operators as one frozen (K, d, d) stack and a POVM
its elements as one frozen (N, d, d) stack, both built at validation, so each
distribution is one stacked contraction with no per-operator Python loop: one
batched product applies the Kraus stack, and the N POVM traces are one
matrix-vector product with the element stack.  A stack of matrix units
c_k |a_k><b_k| with d >= 2 (every classical embedding of two or more
symbols) is applied to a finite real state
without the product: K scalar products and one ordered scatter-add into the
diagonal give the product's float64 output bit for bit (``_kraus_sum``).  The
Kronecker path of ``verify_zero_error`` keeps the dense product
(``_apply_kraus``), so each certified classical code checks one against the
other.

Matrices are plain ``numpy.ndarray`` of complex128.  A channel whose Kraus
operators and input are exactly real (imaginary parts identically zero, as in
every classical embedding) is applied in float64, where a complex product
would spend three of its four real multiplications on zeros.  That float64
output is measured as it is: the POVM traces stay one complex product, into
which numpy promotes it exactly, and when the POVM is exactly real too every
trace's imaginary part is a sum of products with an exact zero, so it is not
checked.  Every validated wrapper decides its realness once, on first use
(a state's matrix, a Kraus stack, a POVM stack), and a channel whether its
stack is made of matrix units; channel outputs are tested on each call.
Wrapper dataclasses (:class:`DensityMatrix`, :class:`QuantumChannel`,
:class:`Povm`) certify that their contents passed validation; each checks
that its array's shape matches its ``dim``, and their arrays, and the arrays
they cache, are frozen (non-writeable), in copies and unpickled objects too.
All indices are 0-based.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidProbabilitiesError,
    NotHermitianError,
    NotPsdError,
    NotTracePreservingError,
    PovmIncompleteError,
    TraceNotOneError,
)

__all__ = [
    "DensityMatrix",
    "QuantumChannel",
    "Povm",
    "validate_state",
    "validate_channel",
    "validate_povm",
    "apply_channel",
    "outcome_probabilities",
    "pure_state",
    "basis_state",
]


# Absolute tolerance of every validation check: max |M - M^dagger|, the
# smallest eigenvalue of the Hermitian part (against -_TOL), |tr(M) - 1|, the
# Frobenius deviation of sum K^dagger K and of sum E_j from I, and each
# outcome probability's imaginary part, range and sum.
_TOL = 1e-9


def _freeze(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128, order="C")
    out.setflags(write=False)
    return out


def _read_only(a: np.ndarray | None) -> np.ndarray | None:
    """``a`` itself, made non-writeable: a wrapper's cache, or None."""
    if a is not None:
        a.setflags(write=False)
    return a


def _restore(obj, state: dict) -> None:
    """``__setstate__`` of the wrappers: a copy or an unpickled object is validated again.

    Only the fields are taken from ``state``, and ``__post_init__`` freezes a
    copy of the array, so a realness cache is recomputed, not copied, and no
    copy holds a writeable array.
    """
    for f in fields(obj):
        object.__setattr__(obj, f.name, state[f.name])
    obj.__post_init__()


def _check_shape(obj, field: str, stack: bool) -> None:
    """Store ``obj.dim`` as an int and check ``obj.<field>``'s shape against it.

    The array must be (d, d), or (count >= 1, d, d) when ``stack`` is set,
    for d = ``dim`` >= 1; anything else is a ``DimensionMismatchError``.
    """
    try:
        d = operator.index(obj.dim)
    except TypeError:
        raise DimensionMismatchError(f"dim {obj.dim!r} is not an integer") from None
    if d < 1:
        raise DimensionMismatchError(f"dim must be >= 1, got {d}")
    object.__setattr__(obj, "dim", d)
    shape = getattr(obj, field).shape
    if len(shape) != 2 + stack or shape[-2:] != (d, d) or 0 in shape:
        want = "(count >= 1, d, d)" if stack else "(d, d)"
        raise DimensionMismatchError(f"{field} of shape {shape} is not {want} for dim {d}")


def _require_square(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"{name} must be square, got shape {m.shape}")
    if m.shape[0] < 1:
        raise DimensionMismatchError(f"{name} must have dimension >= 1")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatchError(f"{name} contains non-finite entries")
    return m


def _require_squares(mats, name: str) -> list[np.ndarray]:
    """``_require_square`` on each matrix, and one dimension for all of them."""
    ops = [_require_square(m, name) for m in mats]
    d = ops[0].shape[0]
    for m in ops[1:]:
        if m.shape[0] != d:
            raise DimensionMismatchError(f"{name}s of mixed dimensions: {d} and {m.shape[0]}")
    return ops


def _require_hermitian_psd(m: np.ndarray) -> None:
    """Refuse a matrix, or a (..., d, d) stack of them, not Hermitian PSD within ``_TOL``.

    A stack is checked in one call per check, and the error reports its
    worst matrix: the largest deviation, or the smallest eigenvalue.
    """
    m_dagger = m.conj().swapaxes(-1, -2)
    herm_dev = float(np.abs(m - m_dagger).max())
    if herm_dev > _TOL:
        raise NotHermitianError(herm_dev, _TOL)
    # The eigenvalue check runs on (M + M^dagger)/2 so roundoff in the
    # anti-Hermitian part cannot poison eigh.
    low = float(np.linalg.eigvalsh((m + m_dagger) / 2.0)[..., 0].min())
    if low < -_TOL:
        raise NotPsdError(low, _TOL)


def _require_unit_trace(m: np.ndarray) -> None:
    """Refuse a matrix, or a (..., d, d) stack of them, with a trace off 1 beyond ``_TOL``.

    The error reports the first such trace in the stack's C order.
    """
    for tr in np.trace(m, axis1=-2, axis2=-1).reshape(-1).tolist():
        if abs(tr - 1.0) > _TOL:
            raise TraceNotOneError(tr.real, _TOL)


@dataclass(frozen=True)
class DensityMatrix:
    """A validated d x d density matrix (Hermitian, PSD, unit trace)."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _freeze(self.matrix))
        _check_shape(self, "matrix", stack=False)

    __setstate__ = _restore

    @cached_property
    def _real_matrix(self) -> np.ndarray | None:
        return _read_only(_exact_real(self.matrix))

    @cached_property
    def _finite(self) -> bool:
        return bool(np.isfinite(self.matrix).all())

    def __eq__(self, other):
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.matrix, other.matrix)

    __hash__ = None


@dataclass(frozen=True)
class QuantumChannel:
    """A validated trace-preserving channel given by a frozen (K, d, d) Kraus stack.

    ``apply_channel`` computes ``sum_m K_m rho K_m^dagger``.  Input and
    output dimensions are equal by construction.
    """

    dim: int
    kraus: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kraus", _freeze(self.kraus))
        _check_shape(self, "kraus", stack=True)

    __setstate__ = _restore

    @cached_property
    def _real_kraus(self) -> np.ndarray | None:
        return _read_only(_exact_real(self.kraus))

    @cached_property
    def _matrix_units(self) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
        """The stack as matrix units c_k |a_k><b_k|: (a_k (d+1), b_k (d+1), c_k), or None.

        The first two are flat indices of the diagonal entries (a_k, a_k) and
        (b_k, b_k) of a d x d matrix.  A stack qualifies when it is exactly
        real, each operator has exactly one nonzero entry, and each
        coefficient lies in [-1, 1], so no product with a finite state
        overflows.  A 1 x 1 stack never qualifies: the batched product's
        axis-0 sum over (K, 1, 1) is one contiguous reduction, which numpy
        adds pairwise rather than in Kraus order.
        """
        ks = self._real_kraus
        if ks is None or self.dim == 1:
            return None
        flat = ks.reshape(len(ks), -1)
        if not (np.count_nonzero(flat, axis=1) == 1).all():
            return None
        rows, cols = flat.nonzero()
        coef = flat[rows, cols]
        if not (np.abs(coef) <= 1.0).all():
            return None
        out, inp = np.divmod(cols, self.dim)
        return tuple(_read_only(a) for a in (out * (self.dim + 1), inp * (self.dim + 1), coef))

    def __eq__(self, other):
        if not isinstance(other, QuantumChannel):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.kraus, other.kraus)

    __hash__ = None


@dataclass(frozen=True)
class Povm:
    """A validated POVM: a frozen (N, d, d) stack of PSD elements summing to the identity."""

    dim: int
    elements: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "elements", _freeze(self.elements))
        _check_shape(self, "elements", stack=True)

    __setstate__ = _restore

    @cached_property
    def _real_elements(self) -> np.ndarray | None:
        return _read_only(_exact_real(self.elements))

    def __len__(self) -> int:
        return len(self.elements)

    def __eq__(self, other):
        if not isinstance(other, Povm):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.elements, other.elements)

    __hash__ = None


def validate_state(matrix: np.ndarray) -> DensityMatrix:
    """Check that ``matrix`` is a density matrix and wrap it.

    Parameters
    ----------
    matrix : array_like of complex, shape (d, d)
        Candidate state.

    Returns
    -------
    DensityMatrix

    Raises
    ------
    NotHermitianError
        If ``max |M - M^dagger|`` exceeds 1e-9.
    NotPsdError
        If the smallest eigenvalue of the Hermitian part is below -1e-9.
    TraceNotOneError
        If ``|tr(M) - 1|`` exceeds 1e-9.
    DimensionMismatchError
        If the input is not square or has non-finite entries.

    Notes
    -----
    Inputs are rejected, never projected back onto the valid set; a state
    that is 1e-6 away from PSD is a bug in the caller, not noise to hide.
    """
    m = _require_square(matrix, "state")
    _require_hermitian_psd(m)
    _require_unit_trace(m)
    return DensityMatrix(dim=m.shape[0], matrix=m)


def validate_channel(kraus: "list[np.ndarray] | tuple[np.ndarray, ...]") -> QuantumChannel:
    """Check that ``kraus`` defines a trace-preserving channel and wrap it.

    Parameters
    ----------
    kraus : sequence of array_like, each shape (d, d)
        Kraus operators.  At least one; all the same square dimension.

    Returns
    -------
    QuantumChannel

    Raises
    ------
    NotTracePreservingError
        If ``||sum_m K_m^dagger K_m - I||_F`` exceeds 1e-9.
    DimensionMismatchError
        For an empty list, non-square operators, or mixed dimensions.
    """
    if len(kraus) == 0:
        raise DimensionMismatchError("a channel needs at least one Kraus operator")
    ops = _require_squares(kraus, "Kraus operator")
    d = ops[0].shape[0]
    s = sum(k.conj().T @ k for k in ops)
    dev = float(np.linalg.norm(s - np.eye(d)))
    if dev > _TOL:
        raise NotTracePreservingError(dev, _TOL)
    return QuantumChannel(dim=d, kraus=ops)


def validate_povm(elements: "list[np.ndarray] | tuple[np.ndarray, ...]") -> Povm:
    """Check that ``elements`` form a POVM and wrap them.

    Each element must be Hermitian and PSD within tolerance, and the elements
    must sum to the identity within 1e-9 (Frobenius).
    """
    if len(elements) == 0:
        raise DimensionMismatchError("a POVM needs at least one element")
    ops = _require_squares(elements, "POVM element")
    d = ops[0].shape[0]
    _require_hermitian_psd(np.array(ops))
    dev = float(np.linalg.norm(sum(ops) - np.eye(d)))
    if dev > _TOL:
        raise PovmIncompleteError(dev, _TOL)
    return Povm(dim=d, elements=ops)


def _projective_povm(u: np.ndarray) -> Povm:
    """The rank-one projective POVM {|u_j><u_j|} on the columns of the unitary ``u``."""
    return validate_povm([np.outer(u[:, j], u[:, j].conj()) for j in range(u.shape[1])])


def _exact_real(a: np.ndarray) -> np.ndarray | None:
    """The real part of ``a``, C-ordered, if ``a`` is exactly real, else None.

    Exactly means no tolerance: a single nonzero imaginary bit makes ``a``
    complex.
    """
    if np.count_nonzero(a.imag):
        return None
    return np.ascontiguousarray(a.real)


def _kraus_sum(channel: QuantumChannel, state: DensityMatrix) -> np.ndarray:
    """``sum_k K_k rho K_k^dagger`` for a state, on a matrix-unit stack without a matrix product.

    When the channel's Kraus stack is made of matrix units c_k |a_k><b_k|
    (decided once, ``QuantumChannel._matrix_units``) and the state is exactly
    real and finite, term k is v_k |a_k><a_k| with v_k = (c_k rho[b_k, b_k]) c_k:
    each dot product of the batched product has that one nonzero term, so
    it makes the same two roundings.  One ``np.bincount`` then adds the v_k
    into the diagonal in Kraus order, the order of the batched product's
    axis-0 sum.  Its sums start at +0.0, as the product's dot products do,
    so a zero entry is +0.0 in both: the float64 output is that product's,
    bit for bit.  Any other channel or state takes
    ``_batched_kraus_sum``; a non-finite entry, which that product spreads
    over the whole output, keeps it too.
    """
    units, real_m = channel._matrix_units, state._real_matrix
    if units is None or real_m is None or not state._finite:
        return _batched_kraus_sum(channel, state.matrix, real_m)
    out, inp, coef = units
    v = coef * real_m.reshape(-1).take(inp)
    v *= coef
    return np.bincount(out, weights=v, minlength=real_m.size).reshape(real_m.shape)


def _batched_kraus_sum(
    channel: QuantumChannel, m: np.ndarray, real_m: np.ndarray | None
) -> np.ndarray:
    """``sum_k K_k m K_k^dagger`` as one batched product over the channel's Kraus stack.

    ``real_m`` is ``m``'s exactly real part, or None.  The axis-0 sum adds
    the K terms in order, as a loop would.  When the channel's Kraus stack
    (its realness decided once) is exactly real and ``real_m`` is given, the
    product runs in float64 as ``sum_k K_k m K_k^T`` and the result is that
    float64 sum; otherwise it is complex128.
    """
    real_ks = channel._real_kraus
    if real_ks is None or real_m is None:
        ks = channel.kraus
        return (ks @ m @ ks.conj().transpose(0, 2, 1)).sum(axis=0)
    return (real_ks @ real_m @ real_ks.transpose(0, 2, 1)).sum(axis=0)


def _apply_kraus(channel: QuantumChannel, m: np.ndarray) -> np.ndarray:
    """``_batched_kraus_sum`` of a bare matrix ``m``, whose realness is tested on each call.

    This is the recomputation the Kronecker path of ``verify_zero_error``
    checks against: it reads nothing a state has cached, and it always runs
    the batched product, so a certified code built on matrix units compares
    ``_kraus_sum``'s shortcut with it.  A state's own realness is decided
    once, on first use (``DensityMatrix._real_matrix``).
    """
    return _batched_kraus_sum(channel, m, None if channel._real_kraus is None else _exact_real(m))


def apply_channel(channel: QuantumChannel, state: DensityMatrix) -> DensityMatrix:
    """Push ``state`` through ``channel``: ``sum_m K_m rho K_m^dagger``.

    The output is re-validated (it must satisfy the density-matrix contract
    for valid inputs; failure indicates numerical breakdown upstream), which
    also makes a float64 channel output complex128, exactly.

    Raises
    ------
    DimensionMismatchError
        If the channel and state dimensions differ.
    """
    if channel.dim != state.dim:
        raise DimensionMismatchError(
            f"channel dim {channel.dim} != state dim {state.dim}"
        )
    return validate_state(_kraus_sum(channel, state))


def outcome_probabilities(channel: QuantumChannel, state: DensityMatrix, povm: Povm) -> np.ndarray:
    """Distribution over measurement outcomes for ``state`` sent through ``channel``.

    Computes ``p(j) = tr(E(rho) E_j)`` for each POVM element ``E_j``: the
    channel output comes from one batched product over the stacked Kraus
    operators, or from its matrix-unit shortcut with the same bits
    (``_kraus_sum``), and all N traces from one complex product of the
    flattened (N, d*d) element stack with the flattened transpose of that
    output, O(N d^2) work in a single call.  A float64 channel output (exactly real
    channel and state) enters that product promoted to complex128, exactly.

    Every trace's imaginary part is checked, except when the channel output
    is float64 and the POVM is exactly real: each imaginary part is then a
    sum of products with an exact zero, so it is zero (or NaN, which no
    check refuses), and the check could not fire.

    Parameters
    ----------
    channel : QuantumChannel
    state : DensityMatrix
    povm : Povm
        All three must share one dimension.

    Returns
    -------
    numpy.ndarray of float64, shape (len(povm),)
        Entries clamped to [0, 1]; sums to 1 within 1e-9.

    Raises
    ------
    InvalidProbabilitiesError
        If any checked trace has imaginary part, or any real part is out of
        range, beyond 1e-9, or the vector does not sum to 1 within it.
        Cannot happen for validated inputs; it guards the internal math.
    DimensionMismatchError
        On any dimension disagreement.
    """
    if not (channel.dim == state.dim == povm.dim):
        raise DimensionMismatchError(
            f"dimensions disagree: channel {channel.dim}, state {state.dim}, POVM {povm.dim}"
        )
    sigma = _kraus_sum(channel, state)
    # tr(sigma E_j) = sum_{a,b} E_j[a, b] sigma^T[a, b].  The product stays
    # complex even for a float64 sigma: a float64 product rounds differently.
    raw = povm.elements.reshape(len(povm), -1) @ sigma.T.ravel()
    # A float64 sigma is promoted with imaginary parts of exact zeros, and a
    # real POVM's are exact zeros too, so every term of an imaginary part has
    # an exact zero factor: the sum is zero, or NaN where the other factor is
    # not finite, and NaN > _TOL is false.  The check could not fire.
    return _checked_distribution(raw, sigma.dtype != np.float64 or povm._real_elements is None)


def _checked_distribution(raw: np.ndarray, check_imag: bool) -> np.ndarray:
    """The real parts of the outcome traces ``raw``, checked and clamped to [0, 1].

    Each check is one ufunc reduction, the one that ``ndarray.min``, ``max``
    and ``sum`` call, so it gives the same bits and propagates a NaN alike.
    The imaginary parts are checked when ``check_imag`` is set.
    """
    if check_imag:
        imag = float(np.maximum.reduce(np.abs(raw.imag)))
        if imag > _TOL:
            raise InvalidProbabilitiesError(f"outcome trace has imaginary part up to {imag:.3e}")
    p = raw.real.copy()
    lo, hi = float(np.minimum.reduce(p)), float(np.maximum.reduce(p))
    if lo < -_TOL or hi > 1.0 + _TOL:
        raise InvalidProbabilitiesError(
            f"outcome probability outside [0,1]: min {lo:.3e}, max {hi:.3e}"
        )
    s = float(np.add.reduce(p))
    if abs(s - 1.0) > _TOL:
        raise InvalidProbabilitiesError(f"probabilities sum to {s!r}, expected 1")
    # Clipping an array already inside [0, 1] returns it bit for bit, -0.0
    # included; a NaN fails both comparisons and is clipped as before.
    if lo >= 0.0 and hi <= 1.0:
        return p
    return np.clip(p, 0.0, 1.0)


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def pure_state(vector: np.ndarray) -> DensityMatrix:
    """Rank-one projector |v><v| from a (normalized) state vector."""
    v = np.asarray(vector, dtype=np.complex128).reshape(-1)
    n = np.linalg.norm(v)
    if n == 0:
        raise DimensionMismatchError("cannot build a state from the zero vector")
    v = v / n
    return DensityMatrix(dim=v.size, matrix=np.outer(v, v.conj()))


def basis_state(dim: int, k: int) -> DensityMatrix:
    """Computational basis projector |k><k| in dimension ``dim``."""
    if not 0 <= k < dim:
        raise DimensionMismatchError(f"basis index {k} out of range for dim {dim}")
    m = np.zeros((dim, dim), dtype=np.complex128)
    m[k, k] = 1.0
    return DensityMatrix(dim=dim, matrix=m)
