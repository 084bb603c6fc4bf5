"""Slot indexing for iterated derivative coordinates.

A derivative coordinate of order k over n independent variables is
addressed by a slot h with 1 <= h <= n**k.  Slots refine the usual
multi-index notation: the base-n digits of h-1 (most significant digit
first, k digits) name the axes of the individual first order
derivatives, the first axis being the one applied first.  Applying one
more derivative along axis i to slot h of order k lands in slot
n*(h-1)+i of order k+1, which appends i to the axis word.

Slots that share a multi-index represent the same mixed partial for
smooth functions; the canonical representative is the smallest such
slot, i.e. the one whose axis word is sorted ascending.

A `Jet` is the other way to address derivatives: a truncated Taylor
polynomial at a point, in floats, with coefficients indexed by
multi-index.  `expr.evaluate` accepts jets wherever it accepts floats,
which is how the numeric probe of a factorization differentiates
without symbolic work.
"""

from functools import lru_cache
from itertools import product
from math import comb, factorial

from .errors import CapacityExceeded
from .records import record

MAX_SLOTS = 2**63 - 1

MultiIndex = tuple[int, ...]


def slot_count(n: int, k: int) -> int:
    """Number of order-k derivative slots, n**k, guarded against overflow."""
    if n < 1 or k < 0:
        raise ValueError(f"need n >= 1 and k >= 0, got n={n}, k={k}")
    count = 1
    for _ in range(k):
        count *= n
        if count > MAX_SLOTS:
            raise CapacityExceeded(f"slot count n**k with n={n}, k={k} exceeds 2**63-1")
    return count


def jet_size(n: int, m: int, s: int) -> int:
    """Dimension of the order-s jet fiber: m*(1 + n + ... + n**s)."""
    if m < 1:
        raise ValueError(f"need m >= 1, got m={m}")
    total = sum(slot_count(n, k) for k in range(s + 1))
    if m * total > MAX_SLOTS:
        raise CapacityExceeded(f"jet size for n={n}, m={m}, s={s} exceeds 2**63-1")
    return m * total


@record
class DerivIndex:
    """Order k and slot h of a derivative coordinate over n variables."""

    k: int
    h: int
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.k < 0:
            raise ValueError(f"need k >= 0, got {self.k}")
        if not 1 <= self.h <= slot_count(self.n, self.k):
            raise ValueError(
                f"slot {self.h} out of range 1..{slot_count(self.n, self.k)} "
                f"for order {self.k} over {self.n} variables"
            )

    def __repr__(self):
        return f"DerivIndex({self.k}, {self.h}, n={self.n})"


def index_to_axes(d: DerivIndex) -> tuple[int, ...]:
    """Axis word of a slot: k axes in application order, innermost first."""
    digits = []
    rem = d.h - 1
    for _ in range(d.k):
        digits.append(rem % d.n + 1)
        rem //= d.n
    digits.reverse()
    return tuple(digits)


def axes_to_index(axes, n: int) -> DerivIndex:
    """Slot addressed by an axis word (inverse of index_to_axes)."""
    h = 0
    for a in axes:
        if not 1 <= a <= n:
            raise ValueError(f"axis {a} out of range 1..{n}")
        h = h * n + (a - 1)
        if h + 1 > MAX_SLOTS:
            raise CapacityExceeded(f"slot for axis word of length {len(axes)} over n={n}")
    return DerivIndex(len(axes), h + 1, n)


def compose_index(axis: int, d: DerivIndex) -> DerivIndex:
    """Slot of the axis-i derivative applied on top of slot d."""
    if not 1 <= axis <= d.n:
        raise ValueError(f"axis {axis} out of range 1..{d.n}")
    slot_count(d.n, d.k + 1)
    return DerivIndex(d.k + 1, d.n * (d.h - 1) + axis, d.n)


def decompose_index(d: DerivIndex) -> tuple[int, DerivIndex]:
    """Peel the outermost derivative: returns (axis, inner slot)."""
    if d.k == 0:
        raise ValueError("order-0 slot has no outermost derivative")
    axis = (d.h - 1) % d.n + 1
    inner = DerivIndex(d.k - 1, (d.h - 1) // d.n + 1, d.n)
    return axis, inner


def index_to_multiindex(d: DerivIndex) -> MultiIndex:
    """Counts per axis; the order of application is forgotten."""
    counts = [0] * d.n
    for a in index_to_axes(d):
        counts[a - 1] += 1
    return tuple(counts)


def multiindex_to_index(mu, n: int) -> DerivIndex:
    """Canonical slot of a multi-index (axis word sorted ascending)."""
    if len(mu) != n:
        raise ValueError(f"multi-index length {len(mu)} does not match n={n}")
    axes = []
    for a, count in enumerate(mu, start=1):
        if count < 0:
            raise ValueError(f"negative count in multi-index {mu}")
        axes.extend([a] * count)
    return axes_to_index(axes, n)


def canonical_slot(d: DerivIndex) -> DerivIndex:
    """Smallest slot with the same multi-index as d."""
    return axes_to_index(sorted(index_to_axes(d)), d.n)


# ---------------------------------------------------------------------------
# truncated Taylor jets

@lru_cache(maxsize=None)
def multi_indices(n: int, order: int) -> tuple:
    """Multi-indices of total degree <= order, by degree and, within a
    degree, x1-heavy first.  The list for a lower order is a prefix of
    the list for a higher one, so truncating a jet slices its
    coefficients."""
    return tuple(sorted((mu for mu in product(range(order + 1), repeat=n)
                         if sum(mu) <= order),
                        key=lambda mu: (sum(mu), tuple(-a for a in mu))))


@lru_cache(maxsize=None)
def _products(n: int, order: int) -> tuple:
    """For each position k of multi_indices(n, order), the position
    pairs (i, j) whose multi-indices add up to the one at k."""
    monos = multi_indices(n, order)
    where = {mu: i for i, mu in enumerate(monos)}
    return tuple(tuple((where[a], where[tuple(x - y for x, y in zip(mu, a))])
                       for a in monos if all(y <= x for x, y in zip(mu, a)))
                 for mu in monos)


@lru_cache(maxsize=None)
def _shift(n: int, order: int, alpha: MultiIndex, out_order: int) -> tuple:
    """(position in an order-`order` jet, factor) per coefficient of the
    order-`out_order` jet of the alpha-th partial derivative."""
    where = {mu: i for i, mu in enumerate(multi_indices(n, order))}
    out = []
    for beta in multi_indices(n, out_order):
        factor = 1
        for a, b in zip(alpha, beta):
            factor *= factorial(a + b) // factorial(b)
        out.append((where[tuple(a + b for a, b in zip(alpha, beta))], float(factor)))
    return tuple(out)


class Jet:
    """Truncated Taylor polynomial of a function of n variables at a point.

    `c[i]` is the coefficient of (x - x0)^mu for the i-th multi-index mu
    of `multi_indices(n, order)`; `c[0]` is the value at the point.
    `+`, `*` and `/` with another jet or a number truncate to the lower
    order; they, `compose` and the domain rules of `expr` are all that
    `expr.evaluate` needs.  Every operation computes its constant term with the same
    float operation as on plain floats (a product's is a0 * b0, a
    quotient's a0 / b0), so that term keeps the bits of a float
    evaluation.
    """

    __slots__ = ("n", "order", "c")

    def __init__(self, n: int, order: int, c: list):
        self.n, self.order, self.c = n, order, c

    @classmethod
    def polynomial(cls, terms, x0, order: int) -> "Jet":
        """Jet at x0 of the polynomial sum c * x^a over (c, a) terms."""
        monos = multi_indices(len(x0), order)
        coeffs = [0.0] * len(monos)
        for c, a in terms:
            # Taylor coefficients of each factor x_i^a_i, then their products
            rows = [[comb(e, b) * x ** (e - b) for b in range(min(e, order) + 1)]
                    for e, x in zip(a, x0)]
            for k, beta in enumerate(monos):
                t = c
                for row, b in zip(rows, beta):
                    if b >= len(row):
                        break
                    t *= row[b]
                else:
                    coeffs[k] += t
        return cls(len(x0), order, coeffs)

    @classmethod
    def constant(cls, value: float, n: int, order: int) -> "Jet":
        return cls(n, order, [value] + [0.0] * (len(multi_indices(n, order)) - 1))

    @classmethod
    def variable(cls, value: float, axis: int, n: int, order: int) -> "Jet":
        """Jet of the coordinate x_axis at a point where it equals value
        (positions 1..n of the coefficients are the degree-one terms)."""
        jet = cls.constant(value, n, order)
        if order:
            jet.c[axis] = 1.0
        return jet

    def truncate(self, order: int) -> "Jet":
        return Jet(self.n, order, self.c[:len(multi_indices(self.n, order))])

    def derivative(self, alpha: MultiIndex, order: int) -> "Jet":
        """Order-`order` jet of the alpha-th partial derivative; needs
        sum(alpha) + order <= self.order."""
        c = self.c
        return Jet(self.n, order, [f * c[i] for i, f in _shift(self.n, self.order, alpha, order)])

    def compose(self, series) -> "Jet":
        """f(self) for f with Taylor coefficients series[k] at the
        constant term (series[0] = f(c[0]), series[k] = f^(k)(c[0]) / k!)."""
        h = Jet(self.n, self.order, [0.0] + self.c[1:])
        out = [series[1] * x for x in h.c] if self.order else [0.0]
        power = h
        for k in range(2, self.order + 1):
            power = power * h
            out = [o + series[k] * x for o, x in zip(out, power.c)]
        out[0] = series[0]
        return Jet(self.n, self.order, out)

    def is_constant(self) -> bool:
        return not any(self.c[1:])

    def __repr__(self):
        return f"Jet(n={self.n}, order={self.order}, {self.c})"

    def __add__(self, other):
        if type(other) is Jet:
            return Jet(self.n, min(self.order, other.order),
                       [a + b for a, b in zip(self.c, other.c)])
        return Jet(self.n, self.order, [self.c[0] + other] + self.c[1:])

    def __radd__(self, other):
        return Jet(self.n, self.order, [other + self.c[0]] + self.c[1:])

    def __mul__(self, other):
        if type(other) is not Jet:
            return Jet(self.n, self.order, [a * other for a in self.c])
        a, b = self.c, other.c
        order = min(self.order, other.order)
        out = [a[0] * b[0]]
        for pairs in _products(self.n, order)[1:]:
            t = 0.0
            for i, j in pairs:
                t += a[i] * b[j]
            out.append(t)
        return Jet(self.n, order, out)

    def __rmul__(self, other):
        return Jet(self.n, self.order, [other * a for a in self.c])

    def __truediv__(self, other):
        if type(other) is not Jet:
            return Jet(self.n, self.order, [a / other for a in self.c])
        return other._divide(self.c, min(self.order, other.order))

    def __rtruediv__(self, other):
        return self._divide(Jet.constant(other, self.n, self.order).c, self.order)

    def _divide(self, a, order):
        """Jet of a / self, for the coefficients a of a numerator."""
        b = self.c
        q = [a[0] / b[0]]
        for k, pairs in enumerate(_products(self.n, order)[1:], start=1):
            t = a[k]
            for i, j in pairs:
                if j:
                    t -= q[i] * b[j]
            q.append(t / b[0])
        return Jet(self.n, order, q)
