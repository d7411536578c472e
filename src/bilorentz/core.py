"""Two-branch generalized boost transformations in 1+1 dimensions.

Events and displacements are pairs (c1, c2) in length units; velocities are
dimensionless (units of c).  Two constructor families exist:

* the symmetric family ``make_lambda(tau, k, v)``, defined for k*v**2 < 1
  and |v| != 1, which contains the standard Lorentz boosts at k = 1, and
* the antisymmetric family ``make_l(tau, k, w)``, defined for k*w**2 > 1
  and |w| != 1, which for k = 1 equals a coordinate swap composed with a
  standard boost at the inverse velocity 1/w.

All operations are pure functions on immutable, validated values (see _Value).
"""

import math
from enum import Enum

Mat = tuple[tuple[float, float], tuple[float, float]]

IDENTITY_MAT: Mat = ((1.0, 0.0), (0.0, 1.0))
SWAP_MAT: Mat = ((0.0, 1.0), (1.0, 0.0))
PARITY_MAT: Mat = ((1.0, 0.0), (0.0, -1.0))

#: The one zero test: a computed quantity counts as zero when its magnitude is at most
#: DEFAULT_TOL times the size of the terms it came from, so no answer depends on the unit.
DEFAULT_TOL = 1e-12


def mat_det(m: Mat) -> float:
    """Determinant of a 2x2 matrix."""
    (a, b), (c, d) = m
    return a * d - b * c


class DomainError(ValueError):
    """Parameters fall outside the domain of a transformation family."""


class SingularMatrixError(ValueError):
    """A matrix with (near-)zero determinant cannot be inverted."""


class NotDecomposableError(ValueError):
    """The transform does not match the family form a decomposition needs."""


class DegenerateDisplacementError(ValueError):
    """A zero displacement has no coordinate speed."""


class BranchKind(Enum):
    SYMMETRIC_LAMBDA = "lambda"
    ANTISYMMETRIC_L = "l"
    DERIVED = "derived"


class CausalClass(Enum):
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    SPACELIKE = "spacelike"


class _Value:
    """Base of the frozen value types.  Each names its fields once, in __slots__, and its
    __init__ validates, then writes them through _setters; pickle and copy call __init__."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._fields()


def _setters(cls) -> tuple:
    """Each field's slot-descriptor __set__, in __slots__ order.  Calls in this
    module pass fields positionally: a keyword call to a class builds a dict."""
    return tuple(getattr(cls, name).__set__ for name in cls.__slots__)


class TwoVector(_Value):
    """An event or displacement (c1, c2); both components in length units."""

    __slots__ = ("c1", "c2")

    def __init__(self, c1: float, c2: float):
        c1, c2 = float(c1), float(c2)
        if not (math.isfinite(c1) and math.isfinite(c2)):
            raise ValueError(f"TwoVector components must be finite, got ({c1}, {c2})")
        _set_c1(self, c1)
        _set_c2(self, c2)


_set_c1, _set_c2 = _setters(TwoVector)


class Transform(_Value):
    """A 2x2 coordinate transformation plus construction provenance.

    Family-constructed transforms carry (tau, k, vel); transforms produced by
    composition, inversion or conjugation are tagged DERIVED and carry none.
    ``vel`` is ``math.inf`` for the infinite-velocity limit constructor.
    """

    __slots__ = ("m", "branch", "tau", "k", "vel")

    def __init__(self, m: Mat, branch: BranchKind, tau: int | None = None,
                 k: float | None = None, vel: float | None = None):
        _set_m(self, m)
        _set_branch(self, branch)
        _set_tau(self, tau)
        _set_k(self, k)
        _set_vel(self, vel)


_set_m, _set_branch, _set_tau, _set_k, _set_vel = _setters(Transform)


class Metric(_Value):
    """Symmetric non-degenerate quadratic form giving the interval squared."""

    __slots__ = ("g",)

    def __init__(self, g: Mat):
        (_, b), (c, _) = g
        if b != c:
            raise ValueError("metric matrix must be symmetric")
        if mat_det(g) == 0.0:
            raise ValueError("metric matrix must be non-degenerate")
        _set_g(self, g)


(_set_g,) = _setters(Metric)

#: Metric of measurement-induced coordinates: interval = c1**2 - c2**2.
STANDARD_METRIC = Metric(((1.0, 0.0), (0.0, -1.0)))
#: Same form with the roles of the two coordinates exchanged.
SWAPPED_METRIC = Metric(((-1.0, 0.0), (0.0, 1.0)))


class CoordinateSpeed(_Value):
    """Nonnegative |dc2/dc1| in units of c; math.inf for vertical displacements."""

    __slots__ = ("value",)

    def __init__(self, value: float):
        _set_value(self, value)

    @property
    def superluminal(self) -> bool:
        return self.value > 1.0


(_set_value,) = _setters(CoordinateSpeed)


class CausalReport(_Value):
    """Joint coordinate-speed and interval-sign classification of a displacement."""

    __slots__ = ("coord_speed", "interval_sq", "causal_class")

    def __init__(self, coord_speed: CoordinateSpeed, interval_sq: float,
                 causal_class: CausalClass):
        _set_coord_speed(self, coord_speed)
        _set_interval_sq(self, interval_sq)
        _set_causal_class(self, causal_class)

    @property
    def coord_superluminal(self) -> bool:
        return self.coord_speed.superluminal


_set_coord_speed, _set_interval_sq, _set_causal_class = _setters(CausalReport)


# ---------------------------------------------------------------------------
# gamma factors and family constructors
# ---------------------------------------------------------------------------

def _check_k(k: float) -> None:
    # An infinite k would give gamma = 0 and an all-zero "transform".
    if not math.isfinite(k):
        raise DomainError(f"k must be finite, got {k}")


def gamma_symmetric(k: float, v: float) -> float:
    """Even gamma factor 1 / sqrt(1 - k*v**2) for k*v**2 < 1; make_lambda multiplies in tau."""
    _check_k(k)
    kv2 = k * v * v
    if not math.isfinite(kv2):  # an overflow would give gamma = 0; catches inf or NaN v too
        raise DomainError(f"k*v**2 must be finite, got {kv2} for k = {k}, v = {v}")
    if not kv2 < 1.0:
        raise DomainError(f"symmetric family undefined for k*v**2 = {kv2} >= 1")
    return 1.0 / math.sqrt(1.0 - kv2)


def gamma_antisymmetric(k: float, w: float) -> float:
    """Odd gamma factor (w/|w|) / sqrt(k*w**2 - 1) for k*w**2 > 1; make_l multiplies in tau."""
    _check_k(k)
    kw2 = k * w * w
    if not math.isfinite(kw2):  # an overflow would give gamma = 0; catches inf or NaN w too
        raise DomainError(f"k*w**2 must be finite, got {kw2} for k = {k}, w = {w}")
    if not kw2 > 1.0:
        raise DomainError(f"antisymmetric family undefined for k*w**2 = {kw2} <= 1")
    return math.copysign(1.0, w) / math.sqrt(kw2 - 1.0)


def _check_tau(tau: int) -> None:
    # Only the ints: True and 1.0 equal 1 but would be stored and written back as given.
    if type(tau) is not int or tau not in (1, -1):
        raise DomainError(f"tau must be +1 or -1, got {tau!r}")


def _family(gamma, branch: BranchKind, tau: int, k: float, u: float) -> Transform:
    """tau * gamma(k, u) * [[1, -u], [-u, 1]], the form of both families; gamma decides
    the family's domain and raises DomainError outside it.  At |u| = 1, which the gammas
    accept for k != 1, the matrix is singular: det = gamma**2 * (1 - u**2) = 0."""
    _check_tau(tau)
    g = tau * gamma(k, u)
    if abs(u) == 1.0:
        family, letter = (("symmetric", "v") if branch is BranchKind.SYMMETRIC_LAMBDA
                          else ("antisymmetric", "w"))
        raise DomainError(f"{family} family singular at |{letter}| = 1, got {letter} = {u} "
                          f"for k = {k}")
    return Transform(((g, -g * u), (-g * u, g)), branch, tau, float(k), float(u))


def make_lambda(tau: int, k: float, v: float) -> Transform:
    """Symmetric-family transform tau / sqrt(1 - k*v**2) * [[1, -v], [-v, 1]]."""
    return _family(gamma_symmetric, BranchKind.SYMMETRIC_LAMBDA, tau, k, v)


def make_lambda_infinite_limit(tau: int, k: float) -> Transform:
    """Infinite-velocity limit of the symmetric family, tau / sqrt(-k) * [[0, -1], [-1, 0]].

    The limit exists only for k < 0: the diagonal entries vanish while the
    off-diagonal ones tend to -tau/sqrt(-k).  Computed analytically; feeding
    an infinite velocity into make_lambda would give 0 * inf indeterminates.
    """
    _check_tau(tau)
    _check_k(k)
    if not k < 0.0:
        raise DomainError(f"infinite-velocity limit diverges for k = {k} >= 0")
    a = -tau / math.sqrt(-k)
    m = ((0.0, a), (a, 0.0))
    return Transform(m, BranchKind.SYMMETRIC_LAMBDA, tau, float(k), math.inf)


def make_l(tau: int, k: float, w: float) -> Transform:
    """Antisymmetric-family transform tau * (w/|w|) / sqrt(k*w**2 - 1) * [[1, -w], [-w, 1]]."""
    return _family(gamma_antisymmetric, BranchKind.ANTISYMMETRIC_L, tau, k, w)


def make_transform(branch: str, tau: int, k: float, vel: float) -> Transform:
    """Family transform from a spec: branch "lambda" or "l", tau, k and velocity.

    A velocity of +inf selects make_lambda_infinite_limit; every other
    velocity goes to make_lambda or make_l, which reject non-finite values.
    This is the one place the velocity rules live.  Accepted spellings:

    * CLI (``--vel`` and compose specs): anything ``float()`` parses, so
      ``inf``, ``+inf``, ``Infinity`` and ``infinity`` all mean +inf.
    * Scenario JSON (``transform.vel``): a finite number or the string
      ``"infinity"``; the non-standard literals ``Infinity``, ``-Infinity``
      and ``NaN`` are rejected.
    """
    if branch == "lambda":
        if vel == math.inf:
            return make_lambda_infinite_limit(tau, k)
        return make_lambda(tau, k, vel)
    if branch == "l":
        return make_l(tau, k, vel)
    raise DomainError(f'branch must be "lambda" or "l", got {branch!r}')


# ---------------------------------------------------------------------------
# 2x2 matrix plumbing
# ---------------------------------------------------------------------------

def _mat_mul(a: Mat, b: Mat) -> Mat:
    (a00, a01), (a10, a11) = a
    (b00, b01), (b10, b11) = b
    return ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))


def _mat_inv(m: Mat) -> Mat:
    """Inverse of a 2x2 matrix; singular when |det| <= DEFAULT_TOL * |row 1| * |row 2|,
    a scale-free test since |det| never exceeds that product of row norms."""
    (a, b), (c, d) = m
    det = mat_det(m)
    if abs(det) <= DEFAULT_TOL * math.hypot(a, b) * math.hypot(c, d):
        raise SingularMatrixError(f"matrix determinant {det} is at most {DEFAULT_TOL} "
                                  "times the product of its row norms")
    return ((d / det, -b / det), (-c / det, a / det))


def _mat_transpose(m: Mat) -> Mat:
    (a, b), (c, d) = m
    return ((a, c), (b, d))


# ---------------------------------------------------------------------------
# operations on transforms
# ---------------------------------------------------------------------------

def mat_vec(m: Mat, c1, c2):
    """Components of m @ (c1, c2); c1 and c2 may be floats or ndarrays.

    Like quad_form and form_size, it adds into the product it made first: numpy
    reuses the temporary of a*b + c in place only for arrays of at least 256 KiB,
    and verify's blocks are 128 KiB.  The operations and their order are those of
    a * c1 + b * c2, so the values are too, and no input is written.
    """
    (a, b), (c, d) = m
    e1 = a * c1
    e1 += b * c2
    e2 = c * c1
    e2 += d * c2
    return e1, e2


def apply(t: Transform, x: TwoVector) -> TwoVector:
    """Matrix-vector product t.m @ (x.c1, x.c2)."""
    return TwoVector(*mat_vec(t.m, x.c1, x.c2))


def compose(a: Transform, b: Transform) -> Transform:
    """Matrix product a.m @ b.m: the composite applies b first, then a."""
    return Transform(_mat_mul(a.m, b.m), BranchKind.DERIVED)


def inverse(t: Transform) -> Transform:
    """Inverse transform; family metadata is not carried over."""
    return Transform(_mat_inv(t.m), BranchKind.DERIVED)


def parity_conjugate(t: Transform) -> Transform:
    """Conjugate by the spatial reflection P = diag(1, -1), i.e. P @ t.m @ P.

    Velocity reversal for the symmetric family; the antisymmetric family
    picks up an overall sign on top of the reversal, which is exactly why it
    cannot arise from the parity-covariant construction.
    """
    m = _mat_mul(PARITY_MAT, _mat_mul(t.m, PARITY_MAT))
    return Transform(m, BranchKind.DERIVED)


def k_constant(gamma_plus: float, gamma_minus: float, v: float) -> float:
    """Family invariant (g(v)*g(-v) - 1) / (v**2 * g(v)*g(-v))."""
    if v == 0.0:
        raise DomainError("k_constant undefined at v = 0")
    prod = gamma_plus * gamma_minus
    if prod == 0.0:
        raise DomainError("k_constant undefined for a vanishing gamma product")
    return (prod - 1.0) / (v * v * prod)


def swap_decompose(t: Transform) -> Transform:
    """Split a (tau=-1, k=1) antisymmetric-family transform into swap and boost.

    Returns the boost lam = make_lambda(1, 1, 1/w) such that
    SWAP_MAT @ lam.m reproduces t.m.  Raises NotDecomposableError for any
    transform not constructed as make_l(-1, 1, w).
    """
    if (t.branch is not BranchKind.ANTISYMMETRIC_L
            or t.tau != -1 or t.k != 1.0 or t.vel is None):
        raise NotDecomposableError(
            "swap decomposition needs an antisymmetric-family transform "
            "with tau = -1 and k = 1")
    return make_lambda(1, 1.0, 1.0 / t.vel)


def refit(t: Transform, k: float = 1.0) -> Transform:
    """Match a matrix back onto a family form with the given k.

    [[a, b], [c, d]] needs d = a and c = b within DEFAULT_TOL * (|a| + |b|); the
    invariant a**2 - k*b**2 is then +1 on the symmetric family and -1 on the
    antisymmetric one, within DEFAULT_TOL * (a**2 + |k|*b**2), and vel = -b/a.
    Raises NotDecomposableError when the matrix fits neither family at this k,
    or when vel rounds onto the edge of the family's domain.
    """
    (a, b), (c, d) = t.m
    size = abs(a) + abs(b)
    if a == 0.0 or abs(a - d) > DEFAULT_TOL * size or abs(b - c) > DEFAULT_TOL * size:
        raise NotDecomposableError("matrix is not of the form [[p, q], [q, p]]")
    vel = -b / a
    tau = 1 if a > 0 else -1
    q = a * a - k * b * b
    tol = DEFAULT_TOL * (a * a + abs(k) * b * b)
    try:
        if abs(q - 1.0) <= tol:
            return make_lambda(tau, k, vel)
        if abs(q + 1.0) <= tol:
            return make_l(tau if vel > 0 else -tau, k, vel)
    except DomainError:
        pass
    raise NotDecomposableError(f"matrix does not fit either family at k = {k}")


# ---------------------------------------------------------------------------
# intervals, metrics and causal classification
# ---------------------------------------------------------------------------

def quad_form(g: Mat, c1, c2):
    """(c1, c2)^T g (c1, c2); c1 and c2 may be floats or ndarrays (see mat_vec)."""
    (g11, g12), (g21, g22) = g
    p = g11 * c1
    p += g12 * c2
    p *= c1
    q = g21 * c1
    q += g22 * c2
    q *= c2
    p += q
    return p


def form_size(g: Mat, c1, c2):
    """(|g11| + |g12| + |g21| + |g22|) * (c1**2 + c2**2), an upper bound on the
    summed magnitudes of the terms quad_form adds; c1 and c2 may be floats or ndarrays."""
    (g11, g12), (g21, g22) = g
    s = c1 * c1
    s += c2 * c2
    # Not s *= ...: with a NaN on both sides, x * y and y * x keep different NaN signs.
    return (abs(g11) + abs(g12) + abs(g21) + abs(g22)) * s


def interval_squared(d: TwoVector, g: Metric) -> float:
    """Quadratic form d^T g d; with STANDARD_METRIC this is c1**2 - c2**2."""
    return quad_form(g.g, d.c1, d.c2)


def transform_metric(t: Transform, g: Metric) -> Metric:
    """Metric in the image coordinates: (m^-1)^T g m^-1.

    Chosen so that interval_squared(apply(t, d), transform_metric(t, g))
    always equals interval_squared(d, g); the off-diagonal entries are
    averaged to keep the result exactly symmetric under roundoff.
    """
    inv = _mat_inv(t.m)
    h = _mat_mul(_mat_transpose(inv), _mat_mul(g.g, inv))
    off = 0.5 * (h[0][1] + h[1][0])
    return Metric(((h[0][0], off), (off, h[1][1])))


def classify_coordinate(d: TwoVector) -> CoordinateSpeed:
    """Coordinate speed |c2/c1|, or inf when the displacement is vertical."""
    if d.c1 == 0.0 and d.c2 == 0.0:
        raise DegenerateDisplacementError("zero displacement has no coordinate speed")
    if d.c1 == 0.0:
        return CoordinateSpeed(math.inf)
    return CoordinateSpeed(abs(d.c2 / d.c1))


def causal_sign(s2, size):
    """Interval-sign class: 0 (lightlike) when |s2| <= DEFAULT_TOL * size, else 1
    (timelike) or -1 (spacelike) by the sign of s2.  size bounds the terms s2 was
    summed from (see form_size); s2 and size may be floats or ndarrays."""
    tol = DEFAULT_TOL * size
    return (s2 > tol) * 1 - (s2 < -tol)


#: CausalClass by causal_sign value; index -1 is the spacelike entry.
_CLASS_BY_SIGN = (CausalClass.LIGHTLIKE, CausalClass.TIMELIKE, CausalClass.SPACELIKE)


def classify_geometric(d: TwoVector, g: Metric) -> CausalReport:
    """Classify a displacement by coordinate speed and by interval sign.

    The interval sign is the coordinate-independent notion (see causal_sign).
    """
    s2 = quad_form(g.g, d.c1, d.c2)
    sign = causal_sign(s2, form_size(g.g, d.c1, d.c2))
    return CausalReport(classify_coordinate(d), s2, _CLASS_BY_SIGN[sign])


def measured_displacement(d_eta: TwoVector) -> TwoVector:
    """Reinterpret a raw transformed displacement by swapping its components.

    The first component of the result is read as c*dt and the second as dx
    by the observer attached to the transformed frame.
    """
    return TwoVector(d_eta.c2, d_eta.c1)
