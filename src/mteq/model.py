"""Problem container and the transformed residual map with its one
feasibility test.

The solvers work in the transformed variable ``y = x^{m-1}`` (componentwise
power), where the residual

    f(y) = A (y^{1/(m-1)})^{m-1} - b

has a Jacobian that is an M-matrix on the feasible region.  Feasibility of
a point, decided by :func:`in_feasible_split` alone, means ``A x^{m-1} >=
eps * b`` componentwise; where ``b`` has zeros, those rows instead compare
against a threshold built from the Jacobian blocks of the positive rows.

All strict inequalities from the underlying theory are implemented with an
additive slack of ``1e-14 * (1 + max|b|)``: exact float comparisons would
otherwise produce spurious line-search failures at points that are feasible
in exact arithmetic.

Every quantity at a point comes from one private record, built by
``_evaluate(p, y)``: ``y``, ``x``, ``g = A x^{m-1}``, ``f = g - b`` and,
on first use, the residual Jacobian.  The record takes ``g`` and the raw
Jacobian sum from the tensor's ``image_and_jacobian``: dense storage gives
both from one pass over its slabs, COO storage gives ``g`` alone and the
record asks ``jacobian_matrix`` on first use, so no code here asks which
storage a tensor has.  A record asked for without its Jacobian takes ``g``
from ``apply`` and leaves the Jacobian to ``jacobian_matrix``, which gives
the same bits.  A record at a constant vector ``x = s e`` makes no pass:
by homogeneity it takes ``g = s^{m-1} A e^{m-1}`` and the raw Jacobian
``s^{m-2} J(e)`` from the tensor's record of ``e``, which the dominance
test built along with the problem.  The problem keeps the
last record in a one-slot memo that is hit only by a ``y`` exactly equal
to the record's, which hands the point evaluated by
:func:`~mteq.initializer.initial_point` or accepted by a line search on to
the next step without a second contraction.  :func:`residual`,
:func:`residual_jacobian` and the feasibility test all take ``y``, which
must be positive and finite (else ``ValueError``), and read its record;
none accepts a caller's copy of ``g``, ``f`` or ``J``.  Facts about the
problem itself (the index partition of ``b``, the all-ones certificate
of a dominant tensor) are fixed when it is built, and its
:func:`check_assumption` report on first use.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import SingularMatrixError, lu_solve
from .tensor import Tensor, _check_vector, hadamard_power

__all__ = [
    "IndexPartition",
    "MTeqProblem",
    "SolverConfig",
    "AssumptionReport",
    "partition_indices",
    "make_problem",
    "scale_problem",
    "feasibility_slack",
    "residual",
    "residual_jacobian",
    "in_feasible_split",
    "zero_block_threshold",
    "check_assumption",
]


@dataclass(frozen=True)
class IndexPartition:
    """Indices of strictly positive and exactly zero entries of ``b``."""

    i_plus: np.ndarray
    i_zero: np.ndarray


def partition_indices(b) -> IndexPartition:
    b = np.asarray(b, dtype=float)
    if np.any(b < 0.0):
        raise ValueError("right-hand side must be nonnegative")
    return IndexPartition(np.flatnonzero(b > 0.0), np.flatnonzero(b == 0.0))


@dataclass
class SolverConfig:
    """Knobs shared by both solvers.

    ``eps``/``eps2`` shape the feasible region, ``sigma``/``rho`` drive the
    backtracking line search, ``eta`` is the stopping tolerance on the
    Euclidean residual norm (relative to ``||b||`` when ``relative_stop``
    is set), and ``c`` scales the retried near-unit steplength of the
    extended line search.
    """

    eps: float = 0.1
    eps2: float = 0.05
    sigma: float = 0.1
    rho: float = 0.5
    eta: float = 1e-10
    c: float = 1.0
    max_iter: int = 300
    max_backtracks: int = 60
    relative_stop: bool = False

    def __post_init__(self):
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0, 1)")
        if not 0.0 < self.eps2 < self.eps:
            raise ValueError("eps2 must lie in (0, eps)")
        if not 0.0 < self.sigma < 0.5:
            raise ValueError("sigma must lie in (0, 1/2)")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        if self.c <= 0.0:
            raise ValueError("c must be positive")
        if self.max_iter < 1 or self.max_backtracks < 1:
            raise ValueError("iteration limits must be at least 1")


@dataclass
class MTeqProblem:
    """A multilinear equation ``A x^{m-1} = b`` with Z-sign structure.

    ``omega`` records the factor the raw data was divided by (see
    :func:`scale_problem`); iterates are invariant under that scaling, so
    solutions of the stored system solve the original one.  ``partition``
    is computed from ``b``, and ``assumption`` is kept from its first use.
    ``certificate`` is fixed when the problem is built, by the tensor's
    cached dominance test: the all-ones vector when ``A e^{m-1}`` clears
    the tensor's noise floor, which certifies the strong M-tensor
    property, else ``None``, and :func:`~mteq.initializer.initial_point`
    sweeps for one.  A tensor or right-hand side with a NaN or infinite
    entry is rejected, each with its own message, before the Z-sign test.
    Treat instances as immutable after construction: ``_memo`` holds the
    last evaluated point, computed from ``A`` and ``b``.
    """

    A: Tensor
    b: np.ndarray
    omega: float = 1.0
    partition: IndexPartition = field(init=False)
    certificate: np.ndarray | None = field(init=False)
    _memo: _Point | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        self.b = np.asarray(self.b, dtype=float)
        if self.b.shape != (self.A.dim,):
            raise ValueError("right-hand side length does not match tensor dimension")
        _check_finite(self.A, self.b)
        self.partition = partition_indices(self.b)  # rejects negative entries
        if not self.A.is_z_tensor():
            raise ValueError("coefficient tensor must have nonpositive off-diagonal entries")
        self.certificate = np.ones(self.n) if self.A.is_diag_dominant() else None

    @property
    def m(self) -> int:
        return self.A.order

    @property
    def n(self) -> int:
        return self.A.dim

    @functools.cached_property
    def assumption(self) -> AssumptionReport:
        """:func:`check_assumption` of this problem, run on first use."""
        return check_assumption(self)


def _check_finite(A: Tensor, b: np.ndarray) -> None:
    """Reject a tensor or a right-hand side with a NaN or infinite entry,
    each with its own message.  The tensor's test reads its cached
    ``max_abs``."""
    if not math.isfinite(A.max_abs()):
        raise ValueError(f"coefficient tensor has a non-finite entry "
                         f"(max |a| is {A.max_abs()})")
    bad = np.flatnonzero(~np.isfinite(b))
    if bad.size:
        i = int(bad[0])
        raise ValueError(f"right-hand side has a non-finite entry: "
                         f"b[{i}] is {float(b.flat[i])}")


def make_problem(A: Tensor, b, omega=1.0) -> MTeqProblem:
    """Wrap tensor and right-hand side.

    Building the problem runs the tensor's dominance test, which fixes its
    certificate.  The tensor's facts (its largest magnitude, Z sign and
    dominance test) are cached on ``A``, so building a second problem over
    the same tensor, such as one with zeros put into ``b``, reads none of
    its entries again.
    """
    return MTeqProblem(A, np.asarray(b, dtype=float), float(omega))


def scale_problem(A: Tensor, b) -> MTeqProblem:
    """Divide tensor and right-hand side by their largest magnitude.

    Newton iterates are unchanged by this, but it keeps residual norms and
    the absolute stopping tolerance on a common footing across instances.
    Non-finite entries are rejected before scaling, where they would
    spread to every entry.  The scaled tensor starts with the facts of
    ``A`` that :meth:`~mteq.tensor.Tensor.scaled` carries over.
    """
    b = np.asarray(b, dtype=float)
    _check_finite(A, b)
    omega = _scale_factor(A.max_abs(), b)
    return make_problem(A.scaled(1.0 / omega), b / omega, omega=omega)


def _scale_factor(max_abs, b) -> float:
    """The ``omega`` of :func:`scale_problem` for a tensor with largest
    magnitude ``max_abs`` and a right-hand side ``b``."""
    omega = max(max_abs, float(np.abs(b).max()) if b.size else 0.0)
    if omega == 0.0:
        raise ValueError("cannot scale an all-zero problem")
    return omega


def feasibility_slack(b) -> float:
    b = np.asarray(b, dtype=float)
    bmax = float(np.abs(b).max()) if b.size else 0.0
    return 1e-14 * (1.0 + bmax)


def _in_domain(y) -> bool:
    """Whether every entry of ``y`` is positive and finite."""
    return bool(np.all((y > 0.0) & (y < np.inf)))


def _check_transformed(p: MTeqProblem, y) -> np.ndarray:
    y = _check_vector(y, p.n)
    if not _in_domain(y):
        raise ValueError("transformed iterate must be strictly positive and finite")
    return y


class _Point:
    """The transformed residual map evaluated at one point ``y``.

    Holds ``y``, ``x = y^{1/(m-1)}``, ``g = A x^{m-1}`` and ``f = g - b``
    as read-only arrays, and the residual Jacobian, column-scaled on first
    use, from the raw sum that the tensor's ``image_and_jacobian`` gives
    with ``g`` or, when it gives none or ``jacobian`` is unset, from
    ``jacobian_matrix``.  At a constant ``x`` both come from the tensor's
    record of the all-ones vector instead.  The record keeps the tensor
    but never the problem, so a problem's memo makes no reference cycle.
    """

    __slots__ = ("y", "x", "g", "f", "_A", "_raw_jac", "_jac")

    def __init__(self, A: Tensor, b: np.ndarray, y: np.ndarray, jacobian=True):
        m = A.order
        self.y = y
        self.x = hadamard_power(y, 1.0 / (m - 1))
        self._A = A
        s = self.x[0]
        if np.all(self.x == s):
            image, jac = A._ones_record()
            self.g = s ** (m - 1) * image
            self._raw_jac = None if jac is None else s ** (m - 2) * jac
        elif jacobian:
            self.g, self._raw_jac = A.image_and_jacobian(self.x)
        else:
            self.g, self._raw_jac = A.apply(self.x), None
        self.f = self.g - b
        self._jac = None
        for a in (self.x, self.g, self.f):
            a.flags.writeable = False

    def jacobian(self) -> np.ndarray:
        """Residual Jacobian at ``y`` (read-only), built on the first call.

        Chain rule: the derivative of ``A x^{m-1}`` at ``x = y^{1/(m-1)}``
        column-scaled by ``dx/dy = (1/(m-1)) y^{1/(m-1)-1}``.
        """
        if self._jac is None:
            m = self._A.order
            jac = self._raw_jac
            if jac is None:
                jac = self._A.jacobian_matrix(self.x)
            scale = hadamard_power(self.y, 1.0 / (m - 1) - 1.0) / (m - 1)
            self._jac = jac * scale[None, :]
            self._jac.flags.writeable = False
            self._raw_jac = None
        return self._jac


def _evaluate(p: MTeqProblem, y, jacobian=True) -> _Point:
    """The record of ``y``: ``p``'s memo when its ``y`` equals this one
    exactly, else a new record, which then takes the memo's slot.  With
    ``jacobian`` unset, a new record contracts the tensor without the
    Jacobian, which it builds only if asked for."""
    y = _check_transformed(p, y)
    last = p._memo
    if last is not None and np.array_equal(last.y, y):
        return last
    y = y.copy()
    y.flags.writeable = False
    p._memo = point = _Point(p.A, p.b, y, jacobian)
    return point


def residual(p: MTeqProblem, y) -> np.ndarray:
    """Evaluate ``f(y) = A x^{m-1} - b`` with ``x = y^{1/(m-1)}``."""
    return _evaluate(p, y).f.copy()


def residual_jacobian(p: MTeqProblem, y) -> np.ndarray:
    """Jacobian of :func:`residual` at ``y``.

    Satisfies the identity ``J(y) @ y = f(y) + b`` by homogeneity.  At the
    point :func:`residual` was last evaluated at, it reuses that
    evaluation's contraction.
    """
    return _evaluate(p, y).jacobian().copy()


def zero_block_threshold(p: MTeqProblem, y, eps2) -> np.ndarray:
    """Feasibility threshold for the zero-indexed rows.

    Returns ``eps2 * J[I0, I+] @ solve(J[I+, I+], b[I+])`` where ``J`` is
    the residual Jacobian at ``y``.  Nonpositive whenever the positive
    block is a nonsingular M-matrix, so it relaxes the plain ``eps * b``
    bound on rows where that bound degenerates to zero.  Propagates
    :class:`~mteq.linalg.SingularMatrixError` when the positive block
    cannot be solved.
    """
    part = p.partition
    if part.i_plus.size == 0:
        raise ValueError("right-hand side has no positive components")
    if part.i_zero.size == 0:
        return np.zeros(0)
    J = _evaluate(p, y).jacobian()
    z = lu_solve(J[np.ix_(part.i_plus, part.i_plus)], p.b[part.i_plus])
    return eps2 * (J[np.ix_(part.i_zero, part.i_plus)] @ z)


def in_feasible_split(p: MTeqProblem, y, eps, eps2) -> bool:
    """Whether ``A x^{m-1}`` clears the feasibility floor on every row.

    Positive-indexed rows must clear ``eps * b``, which is the whole test
    when ``b > 0``; zero-indexed rows must clear
    :func:`zero_block_threshold`.  Both compare with slack.  A singular
    positive block simply reports the point as infeasible, so a line search
    can back away from it instead of aborting the solve.  The Jacobian
    comes from the record of ``y`` and only once the positive rows pass,
    so a line search that has just evaluated ``y`` builds it at most once
    and hands it on to the next Newton step.
    """
    part = p.partition
    g = _evaluate(p, y).g
    slack = feasibility_slack(p.b)
    if not np.all(g[part.i_plus] >= eps * p.b[part.i_plus] - slack):
        return False
    if part.i_zero.size == 0:
        return True
    try:
        r = zero_block_threshold(p, y, eps2)
    except SingularMatrixError:
        return False
    return bool(np.all(g[part.i_zero] >= r - slack))


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the zero-row coupling check.

    ``ok`` holds when every zero-indexed row owns a nonzero entry whose
    trailing indices all lie in the positive index set; ``missing`` lists
    the rows (0-based) where no such entry exists, and ``missing_text``
    the same rows 1-based, as messages print them.
    """

    ok: bool
    missing: tuple
    i_plus_size: int
    i_zero_size: int

    @property
    def missing_text(self) -> str:
        return ", ".join(str(i + 1) for i in self.missing)


def check_assumption(p: MTeqProblem) -> AssumptionReport:
    """Structural solvability check for right-hand sides with zeros.

    Rows with ``b_i = 0`` can only be driven to a positive solution if they
    couple to the positive-indexed variables: some ``a[i, i2, .., im] != 0``
    with every trailing index in ``I+``.  Vacuously true when ``b > 0``.
    The tensor's ``uncoupled_rows`` finds the rows that do not.
    """
    part = p.partition
    missing = (p.A.uncoupled_rows(part.i_zero, part.i_plus)
               if part.i_zero.size else [])
    return AssumptionReport(ok=not missing, missing=tuple(missing),
                            i_plus_size=int(part.i_plus.size),
                            i_zero_size=int(part.i_zero.size))

