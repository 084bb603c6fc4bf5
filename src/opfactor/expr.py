"""Exact symbolic expressions over jet coordinates.

An expression is an immutable tree of Const, Var, Sum, Product, Power,
Div and Fun nodes with Fraction constants; other modules build trees
with the arithmetic operators and never name the four compound nodes.
`simplify` rewrites any tree into a canonical form: a fully distributed
sum of terms Const * product of atom powers, an atom being a variable
or an opaque function application.  Quotients are combined over a
common denominator and surface as a single Div at the root, so the zero
test of a quotient is that of its numerator.  A quotient's numerator
and denominator are coprime over Z[atoms], each atom an indeterminate,
whenever the heuristic gcd of Char, Geddes and Gonnet succeeds in
`cancel`, which verifies every candidate by exact division.  Past
MAX_GCD_BITS per evaluation image or MAX_GCD_POINTS evaluation points,
the pair keeps only the cancellation of common monomials, constant
content and constant multiples.  The denominator is primitive with a
positive leading term.

A simplified tree carries the polynomial pair it was built from, so a
canonical subtree inside a larger expression is not expanded again, and
`expr_to_poly` of a simplified tree is a lookup.  The carried dicts are
shared between trees and callers: they are read-only.  Derivatives and
substitutions are taken on the pair, never on a tree: `diff`,
`total_derivative` and `pair_total_derivative` differentiate the pair of
the canonical form term by term, with the quotient rule for its
denominator, and `pair_substitute` replaces atoms all at once, inside
function arguments too.

Variables come in four kinds: independent coordinates x^i, dependent
components u^j, jet coordinates u^j_(k)[h] for derivative slot (k, h),
and named coefficient symbols that are opaque functions of a declared
set of base coordinates.  Differentiation of an opaque symbol tags it
with the coordinate it was differentiated against, so symbolic
condition systems can be written without committing to concrete
coefficient functions.
"""

import math
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import count

from .errors import (ArityMismatch, CapacityExceeded, DomainError, NotQuasiLinear,
                     UnboundVariable)
from .jet import DerivIndex, Jet, canonical_slot, compose_index, index_to_axes
from .records import record


# ---------------------------------------------------------------------------
# variable identities

@record
class IndepVar:
    """Independent coordinate x^index (1-based)."""

    index: int


@record
class DepVar:
    """Dependent component u^component (1-based)."""

    component: int


@record
class JetVar:
    """Jet coordinate: derivative slot `index` of component u^component.

    Order zero is represented by DepVar, never by a JetVar.
    """

    component: int
    index: DerivIndex

    def __post_init__(self):
        if self.index.k < 1:
            raise ValueError("order-0 jet coordinate must be a DepVar")


Coord = tuple[str, int]  # ('x', i) or ('u', j)


@record
class FuncSym:
    """Opaque named function of the coordinates listed in `deps`.

    `derivs` is the multiset (stored sorted) of coordinates the symbol
    has been differentiated against.  The family plus integer indices
    identify the symbol, e.g. ('b', (2, 0, 1)) for a factor coefficient.
    """

    family: str
    indices: tuple[int, ...]
    derivs: tuple[Coord, ...] = ()
    deps: tuple[Coord, ...] = ()

    def partial(self, coord: Coord) -> "FuncSym":
        return FuncSym(self.family, self.indices,
                       tuple(sorted(self.derivs + (coord,))), self.deps)


VarId = IndepVar | DepVar | JetVar | FuncSym


def _vid_key(v):
    if isinstance(v, IndepVar):
        return (0, v.index)
    if isinstance(v, DepVar):
        return (1, v.component, 0, 1)
    if isinstance(v, JetVar):
        return (1, v.component, v.index.k, v.index.h)
    return (3, v.family, v.indices, v.derivs, v.deps)


# ---------------------------------------------------------------------------
# expression nodes

class Expr:
    """Base class; arithmetic operators build unsimplified trees.

    A tree returned by `simplify` (other than a Const or Var) carries in
    `_polys` the exact (num, den) polynomial pair it was built from.
    The pair is not a field, so equality and hashing ignore it.
    """

    __slots__ = ("_polys",)

    def __add__(self, other):
        other = _coerce(other)
        a = self.terms if isinstance(self, Sum) else (self,)
        b = other.terms if isinstance(other, Sum) else (other,)
        return Sum(a + b)

    def __radd__(self, other):
        return _coerce(other) + self

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __neg__(self):
        return Const(Fraction(-1)) * self

    def __mul__(self, other):
        other = _coerce(other)
        a = self.factors if isinstance(self, Product) else (self,)
        b = other.factors if isinstance(other, Product) else (other,)
        return Product(a + b)

    def __rmul__(self, other):
        return _coerce(other) * self

    def __truediv__(self, other):
        return Div(self, _coerce(other))

    def __rtruediv__(self, other):
        return Div(_coerce(other), self)

    def __pow__(self, k):
        return Power(self, k)


@record(slots=True)
class Const(Expr):
    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))


@record(slots=True)
class Var(Expr):
    vid: VarId
    _hash: int = None  # cache: not a parameter, compared, hashed or shown

    def __hash__(self):  # the record hash, computed once: atoms key monomials
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.vid,)))
        return self._hash


@record(slots=True)
class Sum(Expr):
    terms: tuple

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ValueError("Sum needs at least two terms")


@record(slots=True)
class Product(Expr):
    factors: tuple

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ValueError("Product needs at least two factors")


@record(slots=True)
class Power(Expr):
    base: Expr
    exp: int

    def __post_init__(self):
        if not isinstance(self.exp, int):
            raise ValueError("Power exponent must be an int")


@record(slots=True)
class Div(Expr):
    num: Expr
    den: Expr


FUN_NAMES = ("exp", "log", "sin", "cos", "sqrt")


@record(slots=True)
class Fun(Expr):
    name: str
    arg: Expr
    _hash: int = None  # cache: not a parameter, compared, hashed or shown

    def __post_init__(self):
        if self.name not in FUN_NAMES:
            raise ValueError(f"unknown function {self.name!r}")

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.name, self.arg)))
        return self._hash


ZERO = Const(Fraction(0))
ONE = Const(Fraction(1))


def _coerce(x) -> Expr:
    if isinstance(x, Expr):
        return x
    if isinstance(x, (int, Fraction)):
        return Const(Fraction(x))
    raise TypeError(f"cannot coerce {x!r} to Expr")


def const(x) -> Const:
    return Const(Fraction(x))


def x_(i: int) -> Var:
    return Var(IndepVar(i))


def u_(j: int = 1) -> Var:
    return Var(DepVar(j))


# ---------------------------------------------------------------------------
# ordering

@lru_cache(maxsize=1 << 16)
def sort_key(e: Expr):
    if isinstance(e, Const):
        return (0, e.value)
    if isinstance(e, Var):
        return (1, _vid_key(e.vid))
    if isinstance(e, Fun):
        return (2, e.name, sort_key(e.arg))
    if isinstance(e, Power):
        return (3, sort_key(e.base), e.exp)
    if isinstance(e, Product):
        return (4, len(e.factors)) + tuple(sort_key(f) for f in e.factors)
    if isinstance(e, Div):
        return (5, sort_key(e.num), sort_key(e.den))
    return (6, len(e.terms)) + tuple(sort_key(t) for t in e.terms)


# ---------------------------------------------------------------------------
# polynomial normal form
#
# A poly is a dict {monomial: Fraction}; a monomial is a tuple of (atom,
# exponent) pairs in `sort_key` order of the atoms, with atom a canonical
# Var or Fun expression and exponent >= 1.  The empty monomial is the
# constant term.  Monomials multiply only in `_poly_mul`, whose `_normal`
# keeps the rules atoms obey, so a monomial holds an exp atom or a
# constant surd at most once.  Polys are shared: never change one.
#
# Inside `_poly_mul` a monomial is an int packed once per process: the
# atom table gives each atom a 64-bit field, `_PACKED` maps a monomial to
# its int and `_UNPACKED` an int back.  An exponent of 2^63 or more is a
# CapacityExceeded, so two fields add without a carry.  A product that
# finds more than MAX_PACKED_MONOMIALS first empties the three tables.

# term pairs one product may form (CapacityExceeded above); no test,
# fixture, script or bench workload forms more than 8,464 (92 by 92)
MAX_PRODUCT_PAIRS = 1_000_000
# Tier-1 packs at most about 17,500 monomials, a 20 s bench run about 1,700
MAX_PACKED_MONOMIALS = 1 << 16

_FIELDS, _ATOMS = {}, []  # the atom table: {atom: field index} and atom by index
_NORMAL_FIELDS = 0  # the bits of the fields of exp atoms and constant surds
_FIELD, _TOP = 64, 1 << 63  # bits per field, and the least exponent refused

_ONE_POLY = {(): Fraction(1)}


def _mono_key(mono):
    return (sum(e for _, e in mono), tuple((sort_key(a), e) for a, e in mono))


def _poly_add(p1, p2):
    if len(p1) < len(p2):
        p1, p2 = p2, p1
    out = dict(p1)
    for m, c in p2.items():
        s = out[m] = out.get(m, 0) + c
        if not s:
            del out[m]
    return out


class _Packing(dict):
    """{monomial: int}, whose field i, bits 64 i up, holds the exponent of
    `_ATOMS[i]`; a missing monomial is packed once."""

    def __missing__(self, mono):
        global _NORMAL_FIELDS
        v = 0
        for a, e in mono:
            if e >= _TOP:
                raise CapacityExceeded(f"an exponent of {e} does not fit below 2^63")
            if a not in _FIELDS:
                _FIELDS[a] = len(_ATOMS)
                _ATOMS.append(a)
                if isinstance(a, Fun) and (a.name == "exp" or _is_surd(a)):
                    _NORMAL_FIELDS |= ((1 << _FIELD) - 1) << _FIELD * _FIELDS[a]
            v += e << _FIELD * _FIELDS[a]
        self[mono] = v
        return v


class _Unpacking(dict):
    """{int: monomial in `sort_key` order}; a missing int is read back
    once, and its monomial enters `_PACKED` too."""

    def __missing__(self, v):
        items, rest = [], v
        while rest:
            i = ((rest & -rest).bit_length() - 1) // _FIELD
            e = rest >> _FIELD * i & (1 << _FIELD) - 1
            if e >= _TOP:
                raise CapacityExceeded(f"an exponent of {e} does not fit below 2^63")
            items.append((_ATOMS[i], e))
            rest -= e << _FIELD * i
        mono = self[v] = tuple(sorted(items, key=lambda t: sort_key(t[0])))
        _PACKED[mono] = v
        return mono


_PACKED, _UNPACKED = _Packing(), _Unpacking()


def _poly_mul(p1, p2):
    """Product of two polys, the only place where monomials multiply.

    Integer products, over one common denominator per operand, add up
    per packed monomial in the order of the double loop: `_PACKED` gives
    an operand's monomial its int, one 64-bit field per atom of the atom
    table, and `_UNPACKED` reads a result back; either raises
    CapacityExceeded at an exponent of 2^63.  When a field of an exp
    atom or a constant surd takes part, each result goes through
    `_normal`.  Past MAX_PACKED_MONOMIALS the tables are emptied first:
    no packed int outlives the call that made it."""
    global _NORMAL_FIELDS
    if len(p1) * len(p2) > MAX_PRODUCT_PAIRS:
        raise CapacityExceeded(f"a product of {len(p1)} by {len(p2)} terms "
                               f"exceeds {MAX_PRODUCT_PAIRS} term pairs")
    if p1 is _ONE_POLY or p2 is _ONE_POLY:
        return p2 if p1 is _ONE_POLY else p1
    if len(_PACKED) > MAX_PACKED_MONOMIALS:
        for table in (_FIELDS, _ATOMS, _PACKED, _UNPACKED):
            table.clear()
        _NORMAL_FIELDS = 0
    rows = []
    for p in (p1, p2):
        d = math.lcm(*(c.denominator for c in p.values()))
        rows.append(([(_PACKED[m], c.numerator * (d // c.denominator)) for m, c in p.items()], d))
    (r1, d1), (r2, d2) = rows
    acc = {}
    for v1, c1 in r1:
        for v2, c2 in r2:
            v = v1 + v2
            if v in acc:
                acc[v] += c1 * c2
            else:
                acc[v] = c1 * c2
    d, normal = d1 * d2, _NORMAL_FIELDS
    if not (normal and any(v & normal for r in (r1, r2) for v, _ in r)):
        return {_UNPACKED[v]: Fraction(c, d) for v, c in acc.items() if c}
    # read every int back first: `_normal` may multiply, and so empty the tables
    terms = [(_UNPACKED[v], c) for v, c in acc.items()]
    out = {}
    for m, c in terms:
        m, c = _normal(m, c)
        out[m] = out.get(m, 0) + c
    return {m: Fraction(c, d) for m, c in out.items() if c}


def _is_surd(a):
    return isinstance(a, Fun) and a.name == "sqrt" and isinstance(a.arg, Const)


def _normal(mono, c):
    """(monomial, coefficient) of c * mono, sorted, under the rules atoms
    obey: exp factors merge into exp(sum of k * argument), and a constant
    surd's square moves into c, sqrt(q)^2 = q."""
    exps = [(a, e) for a, e in mono if isinstance(a, Fun) and a.name == "exp"]
    if len(exps) > 1 or exps and exps[0][1] > 1:
        total = pair_total([pair_product(({(): Fraction(e)}, _ONE_POLY), ratio(a.arg))
                            for a, e in exps])
        (merged, _), = _fun_atom("exp", from_pair(total))[0].items()
        mono = sorted([t for t in mono if t not in exps] + list(merged),
                      key=lambda t: sort_key(t[0]))
    out = []
    for a, e in mono:
        if e >= 2 and _is_surd(a):
            c *= a.arg.value ** (e // 2)
            e %= 2
        if e:
            out.append((a, e))
    return tuple(out), c


def _poly_pow(p, k):
    """p^k by squaring, from the leading bit of k down."""
    if k == 0:
        return _ONE_POLY
    out = p
    for bit in bin(k)[3:]:
        out = _poly_mul(out, out)
        if bit == "1":
            out = _poly_mul(out, p)
    return out


def _poly_scale(p, c: Fraction):
    if not c:
        return {}
    return {m: v * c for m, v in p.items()}


# a constant surd sheds the square factor p^2 of each prime p below this
# bound; a larger square factor stays under the root
SURD_TRIAL_PRIMES = 1000


def _fun_atom(name: str, arg: Expr):
    """The pair of a function application, and the only place that
    builds a function atom: a constant for exp(0), cos(0), log(1), sin(0)
    and the square root of a rational square; r * sqrt(s) for any other
    sqrt(q) of a rational q > 0, s an integer rid of its square factors
    by trial division up to SURD_TRIAL_PRIMES; else the atom itself.  A
    log(q), q <= 0, or sqrt(q), q < 0, raises DomainError."""
    arg = simplify(arg)
    q = arg.value if isinstance(arg, Const) else None
    if q is not None and (name == "log" and q <= 0 or name == "sqrt" and q < 0):
        raise DomainError(f"{name}({q}) is not a real number")
    if q == 0 and name != "log" or q == 1 and name == "log":
        return ratio(ONE if name in ("exp", "cos") else ZERO)
    c = Fraction(1)
    if name == "sqrt" and q is not None and q > 0:
        root = fraction_sqrt(q)
        if root is not None:
            return ratio(Const(root))
        s, c = q.numerator * q.denominator, Fraction(1, q.denominator)
        for p in range(2, min(SURD_TRIAL_PRIMES, math.isqrt(s) + 1)):
            while s % (p * p) == 0:
                s, c = s // (p * p), c * p
        arg = Const(Fraction(s))
    return {((Fun(name, arg), 1),): c}, _ONE_POLY


def fraction_sqrt(q: Fraction):
    """The rational square root of q, or None."""
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# A pair (num, den) of polys stands for the quotient num/den.  Pair
# arithmetic is exact and does not cancel; `cancel` normalizes a pair.

def pair_sum(a, b):
    """Pair of a + b; equal denominators are kept, others multiplied, and
    a zero operand leaves the other as it is."""
    (an, ad), (bn, bd) = a, b
    if not an or not bn:
        return b if not an else a
    if ad == bd:
        return _poly_add(an, bn), ad
    return _poly_add(_poly_mul(an, bd), _poly_mul(bn, ad)), _poly_mul(ad, bd)


def pair_product(a, b):
    """Pair of a * b."""
    return _poly_mul(a[0], b[0]), _poly_mul(a[1], b[1])


def pair_total(pairs):
    """Pair of the sum of a list of pairs, left to right."""
    return reduce(pair_sum, pairs) if pairs else ({}, _ONE_POLY)


def ratio(e: Expr):
    """Rewrite e as a pair of polys (num, den); a simplified tree returns
    the pair it carries."""
    if isinstance(e, Const):
        return ({(): e.value} if e.value else {}), _ONE_POLY
    if isinstance(e, Var):
        return {((e, 1),): Fraction(1)}, _ONE_POLY
    polys = getattr(e, "_polys", None)
    if polys is not None:
        return polys
    if isinstance(e, Fun):
        return _fun_atom(e.name, e.arg)
    if isinstance(e, Sum):
        return reduce(pair_sum, map(ratio, e.terms))
    if isinstance(e, Product):
        return reduce(pair_product, map(ratio, e.factors))
    if isinstance(e, Power):
        bn, bd = ratio(e.base) if e.exp >= 0 else _inverse(ratio(e.base))
        return _poly_pow(bn, abs(e.exp)), _poly_pow(bd, abs(e.exp))
    if isinstance(e, Div):
        return pair_product(ratio(e.num), _inverse(ratio(e.den)))
    raise TypeError(f"not an Expr: {e!r}")


def _inverse(pair):
    """Pair of 1 / (num/den); a zero divisor raises DomainError."""
    if not pair[0]:
        raise DomainError("division by a zero expression")
    return pair[1], pair[0]


def poly_content(p):
    """gcd of the coefficients, carrying the sign of the leading term."""
    it = iter(p.values())
    g = abs(next(it))
    for c in it:
        g = Fraction(math.gcd(g.numerator, c.numerator),
                     math.lcm(g.denominator, c.denominator))
    lead = p[max(p, key=_mono_key)]
    return -g if lead < 0 else g


def cancel(pair):
    """The canonical pair of num/den: coprime whenever the gcd is found,
    the denominator primitive with a positive leading term.

    Each side is read once into an integer poly over exponent vectors,
    where the common monomial, a constant multiple, the gcd and the
    content are found; the pair is built back once, or handed back when
    nothing changed.  The atom relations sqrt(2)^2 = 2 and exp(a) exp(b)
    = exp(a + b) live in `_normal`, which only `_poly_mul` applies: a
    canonical monomial holds an exp atom or a constant surd at most once
    and degrees add under products, so neither the gcd nor a cofactor
    needs them.
    """
    num, den = pair
    if not den:
        raise DomainError("division by a zero expression")
    if not num:
        return {}, _ONE_POLY
    if den == _ONE_POLY:
        return num, den
    atoms = sorted({a for p in pair for m in p for a, _ in m}, key=sort_key)
    slot = {a: i for i, a in enumerate(atoms)}
    forms = []
    for p in pair:
        d, out = math.lcm(*(c.denominator for c in p.values())), {}
        for m, c in p.items():
            v = [0] * len(atoms)
            for a, e in m:
                v[slot[a]] = e
            out[tuple(v)] = c.numerator * (d // c.denominator)
        forms.append((out, d))
    (f, df), (g, dg) = forms
    # the common monomial is the column minimum; columns it empties go
    low = [min(col) for col in zip(*f, *g)]
    changed = any(low)
    if changed:  # every atom occurs, so only the shift can empty a column
        keep = [i for i, col in enumerate(zip(*f, *g)) if max(col) > low[i]]
        atoms = [atoms[i] for i in keep]
        f, g = ({tuple(v[i] - low[i] for i in keep): c for v, c in r.items()} for r in (f, g))
    if len(f) > 1 and len(g) > 1:
        # a constant multiple of the denominator
        k = next(iter(g))
        if f.keys() == g.keys() and all(f[v] * g[k] == c * f[k] for v, c in g.items()):
            return {(): Fraction(f[k] * dg, g[k] * df)}, _ONE_POLY
        found = _heu_gcd(f, g, [MAX_GCD_POINTS])
        if found is not None and (len(found[0]) > 1 or any(next(iter(found[0])))):
            _, f, g = found
            changed = True
    # divide by the content, signed as the leading term `_mono_key` picks
    lead = max(g, key=lambda v: (sum(v), [(i, e) for i, e in enumerate(v) if e]))
    unit = math.gcd(*g.values()) * (-1 if g[lead] < 0 else 1)
    if changed or unit != 1 or dg != 1:
        monomial = lambda v: tuple((atoms[i], e) for i, e in enumerate(v) if e)
        num = {monomial(v): Fraction(c * dg, df * unit) for v, c in f.items()}
        den = (_ONE_POLY if len(g) == 1 and not any(lead) else
               {monomial(v): Fraction(c // unit) for v, c in g.items()})
    # pull the exp atom, at most one, out of a single-term denominator
    if len(den) == 1:
        (mono, c), = den.items()
        for a, e in mono:
            if isinstance(a, Fun) and a.name == "exp":  # exp(-e arg) is an atom, not 1
                num = _poly_mul(num, _fun_atom("exp", Const(Fraction(-e)) * a.arg)[0])
                rest = tuple(t for t in mono if t[0] is not a)
                den = {rest: c} if rest else _ONE_POLY
    return num, den


# ---------------------------------------------------------------------------
# polynomial gcd, on the integer polys of `cancel`: dicts {(e_1, ..., e_k):
# int} with one position per atom, the atoms in `sort_key` order, so that
# the vectors order terms lexicographically

# bits an evaluation image may take before the gcd gives up and the pair
# stays uncancelled; factor-search images reach about 580 bits
MAX_GCD_BITS = 1 << 14
# evaluation points one gcd may try, over all its variables
MAX_GCD_POINTS = 64


def _heu_gcd(f, g, budget):
    """(h, f / h, g / h) for h = gcd(f, g) of two nonzero integer polys,
    or None.

    The heuristic of Char, Geddes and Gonnet (J. Symb. Comp. 1989), as
    sympy's `dmp_zz_heu_gcd` runs it: evaluate the first variable at an
    integer xi, take the gcd of the two images recursively (down to an
    integer gcd), rebuild h from the symmetric base-xi digits of the
    image gcd and make it primitive.  The candidate stands only if it
    divides f and g exactly (`_exact_quotient`).  Since every xi here
    exceeds 2 min(|f|, |g|) + 2 in max-norm, CGG's theorem makes such a
    candidate the gcd.  A failed candidate is retried at a larger xi,
    six times at most.  It gives up, returning None, when `budget[0]`
    evaluation points are spent or an image would exceed MAX_GCD_BITS,
    a bound taken from the degrees and norms before any image is built.
    """
    cf, cg = math.gcd(*f.values()), math.gcd(*g.values())
    c = math.gcd(cf, cg)
    f = {m: v // cf for m, v in f.items()}
    g = {m: v // cg for m, v in g.items()}
    if not next(iter(f)):  # integers
        return {(): c}, {(): f[()] * (cf // c)}, {(): g[()] * (cg // c)}
    nf, ng = max(map(abs, f.values())), max(map(abs, g.values()))
    xi = 2 * min(nf, ng) + 29
    deg = max(m[0] for r in (f, g) for m in r)
    norm_bits = (max(nf, ng) * (len(f) + len(g))).bit_length()
    for _ in range(6):
        if not budget[0] or deg * xi.bit_length() + norm_bits > MAX_GCD_BITS:
            return None
        budget[0] -= 1
        ff, gg = _evaluate_first(f, xi), _evaluate_first(g, xi)
        if ff and gg:
            inner = _heu_gcd(ff, gg, budget)
            if inner is None:
                return None
            h = _interpolate_first(inner[0], xi)
            hc = math.gcd(*h.values())
            h = {m: v // hc for m, v in h.items()}
            qf = _exact_quotient(f, h)
            qg = None if qf is None else _exact_quotient(g, h)
            if qg is not None:
                return ({m: v * c for m, v in h.items()},
                        {m: v * (cf // c) for m, v in qf.items()},
                        {m: v * (cg // c) for m, v in qg.items()})
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _evaluate_first(f, xi):
    """f with its first variable set to xi."""
    powers = [1]
    out = {}
    for m, c in f.items():
        while len(powers) <= m[0]:
            powers.append(powers[-1] * xi)
        out[m[1:]] = out.get(m[1:], 0) + c * powers[m[0]]
    return {m: c for m, c in out.items() if c}


def _interpolate_first(h, xi):
    """The poly whose first variable at xi gives h, read off the
    symmetric base-xi digits of h's coefficients."""
    out = {}
    k = 0
    while h:
        rest = {}
        for m, c in h.items():
            d = c % xi
            if d > xi // 2:
                d -= xi
            if d:
                out[(k,) + m] = d
            if c != d:
                rest[m] = (c - d) // xi
        h, k = rest, k + 1
    return out


def _exact_quotient(f, h):
    """f / h over the integers, or None when h does not divide f.

    Long division on lexicographic leading terms.  If f = q h, the
    leading term of any remainder r = (q - q') h is the leading term of
    q - q' times that of h, so each step either finds the next term of
    q or proves that h does not divide f.  A term of q has degrees at
    most deg f - deg h in every variable, which bounds the steps.
    """
    lead = max(h)
    lc = h[lead]
    if not any(lead):  # a constant divides term by term
        q = {m: divmod(v, lc) for m, v in f.items()}
        return None if any(rem for _, rem in q.values()) else {m: t for m, (t, _) in q.items()}
    box = [max(col) for col in zip(*f)]
    box = [b - max(col) for b, col in zip(box, zip(*h))]
    r, q = dict(f), {}
    while r:
        m = max(r)
        e = tuple(a - b for a, b in zip(m, lead))
        t, rem = divmod(r[m], lc)
        if rem or any(x < 0 or x > b for x, b in zip(e, box)):
            return None
        q[e] = t
        for mh, ch in h.items():
            mm = tuple(a + b for a, b in zip(e, mh))
            v = r.get(mm, 0) - t * ch
            if v:
                r[mm] = v
            else:
                del r[mm]
    return q


def _term_expr(mono, c: Fraction) -> Expr:
    factors = []
    if c != 1 or not mono:
        factors.append(Const(c))
    for a, e in mono:
        factors.append(a if e == 1 else Power(a, e))
    if len(factors) == 1:
        return factors[0]
    return Product(tuple(factors))


def poly_to_expr(p) -> Expr:
    if not p:
        return ZERO
    monos = sorted(p, key=_mono_key, reverse=True)
    terms = tuple(_term_expr(m, p[m]) for m in monos)
    return terms[0] if len(terms) == 1 else Sum(terms)


def cancelled_tree(pair) -> Expr:
    """The tree of a pair that `cancel` returned, carrying the pair
    unless it is a Const or a Var."""
    num, den = pair
    if den == _ONE_POLY:
        out = poly_to_expr(num)
        if isinstance(out, (Const, Var)):
            return out
    else:
        out = Div(poly_to_expr(num), poly_to_expr(den))
    object.__setattr__(out, "_polys", (num, den))
    return out


def from_pair(pair) -> Expr:
    """The canonical tree of the quotient num/den."""
    return cancelled_tree(cancel(pair))


@lru_cache(maxsize=1 << 18)
def simplify(e: Expr) -> Expr:
    """Canonical form: distributed polynomial, or Div of two of them,
    coprime whenever the gcd succeeds (see the module docstring for the
    fallback past MAX_GCD_BITS or MAX_GCD_POINTS).  A tree that carries
    its pair is canonical already and comes back as it is."""
    if getattr(e, "_polys", None) is not None:
        return e
    return from_pair(ratio(e))


def is_zero(e: Expr) -> bool:
    return simplify(e) == ZERO


def expr_to_poly(e: Expr):
    """Poly dict of a simplified polynomial expression; None if it has
    a denominator.  The dict may be the one the tree carries: read it,
    never change it."""
    num, den = ratio(simplify(e))
    return num if den == _ONE_POLY else None


def split_jet(pair, m: int) -> dict:
    """Split num/den into {jet monomial: canonical coefficient}.

    Polynomial occurrences of dependent components and jet coordinates
    in the numerator move into the monomial, a sorted tuple of
    ((component, order, slot), exponent) with Schwarz-canonical slots
    and (j, 0, 1) for u^j; everything else, and the whole denominator,
    stays in the coefficient.  A denominator that depends on u or its
    jet has no such split and raises NotQuasiLinear.
    """
    num, den = cancel(pair)
    den_vars = set()
    for mono in den:
        for a, _ in mono:
            _collect_vars(a, den_vars)
    if any(isinstance(v, JetVar) for v in den_vars):
        raise NotQuasiLinear("jet coordinate in a denominator")
    deps = sorted(v.component for v in den_vars if isinstance(v, DepVar))
    if deps:
        raise NotQuasiLinear(f"u{deps[0]} in a denominator")
    groups = {}
    for mono, c in num.items():
        jet, rest = {}, []
        for a, e in mono:
            v = a.vid if isinstance(a, Var) else None
            if isinstance(v, DepVar):
                key = (v.component, 0, 1)
            elif isinstance(v, JetVar):
                d = canonical_slot(v.index)
                key = (v.component, d.k, d.h)
            else:
                rest.append((a, e))
                continue
            if key[0] > m:
                raise ArityMismatch(f"component u{key[0]} out of range for m={m}")
            jet[key] = jet.get(key, 0) + e
        coeff = groups.setdefault(tuple(sorted(jet.items())), {})
        coeff[tuple(rest)] = coeff.get(tuple(rest), 0) + c
    out = {}
    for mono, p in groups.items():
        p = {rest: c for rest, c in p.items() if c}
        if p:
            out[mono] = from_pair((p, den))
    return out


# ---------------------------------------------------------------------------
# differentiation

def diff(e: Expr, vid: VarId) -> Expr:
    """Partial derivative against one variable.

    Opaque symbols differentiate to tagged derivative symbols when the
    variable is among their declared base coordinates, else to zero.
    """
    coord = (("x", vid.index) if isinstance(vid, IndepVar)
             else ("u", vid.component) if isinstance(vid, DepVar) else None)

    def leaf(v):
        if v == vid:
            return ONE
        if isinstance(v, FuncSym) and coord in v.deps:
            return Var(v.partial(coord))
        return ZERO
    return _derive(e, leaf)


def total_derivative(e: Expr, axis: int, n: int) -> Expr:
    """Total derivative along x^axis, prolonging through jet coordinates."""
    return _derive(e, _total_leaf(axis, n))


def pair_total_derivative(pair, axis: int, n: int):
    """Cancelled pair of the total derivative along x^axis of num/den."""
    return cancel(_poly_derivative(pair, _total_leaf(axis, n)))


def _total_leaf(axis: int, n: int):
    def leaf(v):
        if isinstance(v, IndepVar):
            return ONE if v.index == axis else ZERO
        if isinstance(v, DepVar):
            return Var(JetVar(v.component, DerivIndex(1, axis, n)))
        if isinstance(v, JetVar):
            return Var(JetVar(v.component, compose_index(axis, v.index)))
        parts = []
        if ("x", axis) in v.deps:
            parts.append(Var(v.partial(("x", axis))))
        for kind, j in v.deps:
            if kind == "u":
                parts.append(Var(v.partial(("u", j)))
                             * Var(JetVar(j, DerivIndex(1, axis, n))))
        return sum(parts, ZERO)
    return leaf


def _derive(e: Expr, leaf) -> Expr:
    """The derivative of e, taken on the pair of its canonical form (the
    pair a simplified tree carries); `leaf(vid)` differentiates a variable."""
    return from_pair(_poly_derivative(getattr(e, "_polys", None) or ratio(simplify(e)), leaf))


def _poly_derivative(pair, leaf):
    """Uncancelled pair of the derivative of num/den: the numerator term
    by term, a denominator by the quotient rule (n'd - nd') / d^2."""
    num, den = pair
    if den == _ONE_POLY:
        return _terms_derivative(num, leaf)
    top = pair_sum(pair_product(_terms_derivative(num, leaf), (den, _ONE_POLY)),
                   pair_product((_poly_scale(num, Fraction(-1)), _ONE_POLY),
                                _terms_derivative(den, leaf)))
    return pair_product(top, (_ONE_POLY, _poly_mul(den, den)))


def _terms_derivative(p, leaf):
    """Pair of the derivative of the poly p: the sum over its atoms a of
    the partial derivative dp/da times a'."""
    partials = {}  # atom: dp/da; c * a^k * rest gives the term c * k * a^(k-1) * rest
    for mono, c in p.items():
        for i, (a, k) in enumerate(mono):
            rest = mono[:i] + (((a, k - 1),) if k > 1 else ()) + mono[i + 1:]
            partials.setdefault(a, {})[rest] = c * k
    return _total_by_denominator((_poly_mul(partial, dn), dd)
                                 for a, partial in partials.items()
                                 for dn, dd in (_atom_derivative(a, leaf),))


def _total_by_denominator(pieces):
    """Pair of the sum of (numerator, denominator) pieces: numerators over
    equal denominators add in place, and those sums add as pairs in the
    order their denominators first appear."""
    sums = {}  # denominator's items: (numerator, denominator)
    for num, den in pieces:
        acc = sums.setdefault(frozenset(den.items()), ({}, den))[0]
        for m, t in num.items():
            s = acc[m] = acc.get(m, 0) + t
            if not s:
                del acc[m]
    return pair_total([s for s in sums.values() if s[0]])


def _atom_derivative(a, leaf):
    """Uncancelled pair of the derivative of an atom: `leaf` of a
    variable, or df(y)/dy times the derivative of the argument y."""
    if isinstance(a, Var):
        return ratio(leaf(a.vid))
    y = ratio(a.arg)
    if a.name == "log":
        outer = _inverse(y)
    elif a.name == "sqrt":
        outer = {(): Fraction(1)}, {((a, 1),): Fraction(2)}
    else:  # exp' = exp, sin' = cos, cos' = -sin
        num, den = _fun_atom({"sin": "cos", "cos": "sin"}.get(a.name, "exp"), a.arg)
        outer = _poly_scale(num, Fraction(-1 if a.name == "cos" else 1)), den
    return pair_product(_poly_derivative(y, leaf), outer)


# ---------------------------------------------------------------------------
# substitution, variables, evaluation

def substitute(e: Expr, mapping: dict) -> Expr:
    """e with the variables `mapping` maps replaced at once (see `pair_substitute`)."""
    return from_pair(pair_substitute(ratio(e), {Var(v): ratio(x) for v, x in mapping.items()}))


def pair_substitute(pair, values: dict):
    """Uncancelled pair of num/den with each atom that `values` maps to a
    pair replaced by it, all at once.  A function atom whose argument
    holds a mapped atom is rebuilt around the substituted argument.  A
    constant value multiplies into the coefficient, and terms over equal
    denominators add in place."""
    images = {}  # atom: None, a constant, or the pair replacing it

    def image(a):
        v = values.get(a)
        if v is None and isinstance(a, Fun) and \
                any(Var(x) in values for x in expr_variables(a.arg)):
            v = _fun_atom(a.name, from_pair(pair_substitute(ratio(a.arg), values)))
        if v is not None and v[1] == _ONE_POLY and v[0].keys() <= {()}:
            v = v[0].get((), 0)
        images[a] = v
        return v

    def terms(p):
        for mono, c in p.items():
            rest, tn, td = [], _ONE_POLY, _ONE_POLY
            for a, e in mono:
                v = images[a] if a in images else image(a)
                if v is None:
                    rest.append((a, e))
                elif type(v) is not tuple:
                    c *= v ** e
                else:
                    tn, td = _poly_mul(tn, _poly_pow(v[0], e)), _poly_mul(td, _poly_pow(v[1], e))
            if c:
                yield _poly_mul({tuple(rest): c}, tn), td

    num, den = pair
    top = _total_by_denominator(terms(num))
    if den == _ONE_POLY:
        return top
    return pair_product(top, _inverse(_total_by_denominator(terms(den))))


def expr_variables(e: Expr) -> set:
    out = set()
    _collect_vars(e, out)
    return out


def _collect_vars(e, out):
    if isinstance(e, Var):
        out.add(e.vid)
    elif isinstance(e, Sum):
        for t in e.terms:
            _collect_vars(t, out)
    elif isinstance(e, Product):
        for f in e.factors:
            _collect_vars(f, out)
    elif isinstance(e, Power):
        _collect_vars(e.base, out)
    elif isinstance(e, Div):
        _collect_vars(e.num, out)
        _collect_vars(e.den, out)
    elif isinstance(e, Fun):
        _collect_vars(e.arg, out)


def is_constant(e: Expr) -> bool:
    return not expr_variables(e)


# Float domain rules, shared by `evaluate` and `compile_float`.  Each
# maps evaluated operands to the float result or raises DomainError, so
# that a fully bound evaluation fails with nothing else.  Each also
# takes a Jet: it applies its float rule to the jet's constant term,
# which raises where a float evaluation there would, and extends the
# result by the function's Taylor series at that term.

def _const_float(q: Fraction) -> float:
    try:
        return q.numerator / q.denominator  # float(q), without its indirection
    except OverflowError:
        raise DomainError("constant too large for a float") from None


def _divisor(den):
    if type(den) is Jet:
        _divisor(den.c[0])
        return den
    if den == 0.0:
        raise DomainError("division by zero")
    return den


def _binomial(p, j: int) -> float:
    """p (p - 1) ... (p - j + 1) / j! for any real p."""
    out = 1.0
    for i in range(j):
        out *= (p - i) / (i + 1)
    return out


def _pow(base, k: int):
    if type(base) is Jet:
        a = base.c[0]
        series = [_pow(a, k)]
        for j in range(1, base.order + 1):
            b = _binomial(k, j)
            series.append(b * _pow(a, k - j) if b else 0.0)
        return base.compose(series)
    if k < 0 and base == 0.0:
        raise DomainError("zero raised to a negative power")
    try:
        return base ** k
    except OverflowError:
        raise DomainError("power overflows a float") from None


def _exp(a):
    if type(a) is Jet:
        e = _exp(a.c[0])
        return a.compose([e / math.factorial(k) for k in range(a.order + 1)])
    if a > 700:
        raise DomainError("exp overflow")
    return math.exp(a)


def _log(a):
    if type(a) is Jet:
        log = _log(a.c[0])
        inv = 1.0 / a.c[0]
        return a.compose([log] + [(-1) ** (k + 1) / k * _pow(inv, k)
                                  for k in range(1, a.order + 1)])
    if a <= 0:
        raise DomainError("log of a non-positive number")
    return math.log(a)


def _sin(a):
    if type(a) is Jet:
        return _periodic(a, _sin(a.c[0]), math.cos(a.c[0]))
    if math.isinf(a):
        raise DomainError("sin of an infinite number")
    return math.sin(a)


def _cos(a):
    if type(a) is Jet:
        return _periodic(a, _cos(a.c[0]), -math.sin(a.c[0]))
    if math.isinf(a):
        raise DomainError("cos of an infinite number")
    return math.cos(a)


def _periodic(a, f: float, slope: float):
    """f(a) for f'' = -f (sin, cos), from f and f' at a's constant term."""
    cycle = (f, slope, -f, -slope)
    return a.compose([cycle[k % 4] / math.factorial(k) for k in range(a.order + 1)])


def _sqrt(a):
    if type(a) is Jet:
        a0 = a.c[0]
        r = _sqrt(a0)
        if a.is_constant():
            return a.compose([r] + [0.0] * a.order)
        if a0 == 0.0:
            raise DomainError("square root of zero has no derivative")
        return a.compose([r] + [_binomial(0.5, k) * r / _pow(a0, k)
                                for k in range(1, a.order + 1)])
    if a < 0:
        raise DomainError("square root of a negative number")
    return math.sqrt(a)


_FUN_RULES = {"exp": _exp, "log": _log, "sin": _sin, "cos": _cos, "sqrt": _sqrt}


def evaluate(e: Expr, bindings: dict):
    """Evaluate to a float (or a Jet); every variable must be bound.

    A Sum adds its terms left to right starting from 0, a Product
    multiplies its factors into 1.0, and a Div evaluates its
    denominator first.  A variable bound to a `Jet` evaluates to that
    jet, and so does every node above it: the result is then the
    truncated Taylor polynomial of e, whose constant term has the bits
    of the float evaluation at the jets' constant terms.
    """
    if isinstance(e, Const):
        return _const_float(e.value)
    if isinstance(e, Var):
        try:
            v = bindings[e.vid]
        except KeyError:
            raise UnboundVariable(f"no binding for {render(e)}") from None
        return v if type(v) is Jet else float(v)
    if isinstance(e, Sum):
        out = 0
        for t in e.terms:
            out = out + evaluate(t, bindings)
        return out
    if isinstance(e, Product):
        out = 1.0
        for f in e.factors:
            out *= evaluate(f, bindings)
        return out
    if isinstance(e, Power):
        return _pow(evaluate(e.base, bindings), e.exp)
    if isinstance(e, Div):
        den = _divisor(evaluate(e.den, bindings))
        return evaluate(e.num, bindings) / den
    if isinstance(e, Fun):
        return _FUN_RULES[e.name](evaluate(e.arg, bindings))
    raise TypeError(f"not an Expr: {e!r}")


# operands per generated statement of a long Sum or Product, which keeps
# each statement shallow for Python's compiler
_CHAIN = 32
_COMPILED = count(1)  # numbers the file names, which a profile keeps apart


def compile_float(e: Expr, vids: tuple):
    """Compile e once into a function of floats bound in order to vids.

    `compile_float(e, vids)(*xs)` equals `evaluate(e, dict(zip(vids, xs)))`
    bit for bit, and raises the same exception type where evaluate does
    (an unbound variable raises UnboundVariable only when reached).  The
    generated code is straight-line, one local per node, performing
    evaluate's float operations in evaluate's order with the same domain
    rules; constants are converted once and bound by name, never
    printed into the source.  Compiling costs about as much as 15-20
    `evaluate` walks of the same tree, so single-point callers keep
    `evaluate`.
    """
    params = {v: f"a{i}" for i, v in enumerate(vids)}
    ns = {"_divisor": _divisor, "_pow": _pow}
    ns.update((f"_{name}", rule) for name, rule in _FUN_RULES.items())
    leaves = {}
    body = []

    def local(expr_text):
        name = f"t{len(body)}"
        body.append(f"    {name} = {expr_text}")
        return name

    def chain(start, op, names):
        out = local(f"{start} {op} " + f" {op} ".join(names[:_CHAIN]))
        for i in range(_CHAIN, len(names), _CHAIN):
            body.append(f"    {out} = {out} {op} " + f" {op} ".join(names[i:i + _CHAIN]))
        return out

    def leaf(node):
        """Name bound to a constant or unbound leaf, and whether it is a
        function that raises the leaf's evaluation error."""
        key = node.value if isinstance(node, Const) else node
        if key not in leaves:
            name = f"c{len(leaves)}"
            try:
                ns[name] = evaluate(node, {})
                leaves[key] = (name, False)
            except (DomainError, UnboundVariable) as err:
                ns[name] = _raiser(err)
                leaves[key] = (name, True)
        return leaves[key]

    # plain loops, not comprehensions, keep one frame per tree level
    def emit(node):
        if isinstance(node, Var) and node.vid in params:
            return params[node.vid]
        if isinstance(node, (Const, Var)):
            name, fails = leaf(node)
            return local(f"{name}()") if fails else name
        if isinstance(node, Sum):
            names = []
            for t in node.terms:
                names.append(emit(t))
            return chain("0", "+", names)
        if isinstance(node, Product):
            names = []
            for f in node.factors:
                names.append(emit(f))
            return chain("1.0", "*", names)
        if isinstance(node, Power):
            return local(f"_pow({emit(node.base)}, {node.exp})")
        if isinstance(node, Div):
            den = local(f"_divisor({emit(node.den)})")
            return local(f"{emit(node.num)} / {den}")
        if isinstance(node, Fun):
            return local(f"_{node.name}({emit(node.arg)})")
        raise TypeError(f"not an Expr: {node!r}")

    result = emit(e)
    src = "\n".join([f"def compiled({', '.join(params.values())}):", *body,
                     f"    return {result}"])
    exec(compile(src, f"<compile_float {next(_COMPILED)}>", "exec"), ns)
    return ns["compiled"]


def _raiser(err: Exception):
    """A function raising a fresh copy of err, for a leaf that always fails."""
    kind, args = type(err), err.args

    def fail():
        raise kind(*args)
    return fail


# ---------------------------------------------------------------------------
# polynomial square root

def poly_sqrt(e: Expr):
    """Exact square root of a polynomial expression, or None; of a
    quotient, the root of its numerator over the root of its denominator.

    Works by peeling: take the square root of the leading term under
    graded lexicographic order, then repeatedly divide the residual's
    leading term by twice the partial root.  exp atoms multiply by
    adding their arguments, so exp(A) with A = sum a_k mu_k is peeled as
    prod E_k^(s a_k - shift_k) over stand-in symbols E_k: the scale s
    makes every half exponent an integer and the even shift_k makes
    every exponent nonnegative.
    """
    roots = [_poly_root(p) for p in ratio(simplify(e))]
    return None if None in roots else from_pair(tuple(roots))


def _poly_root(p):
    """Square root of a poly, or None (see `poly_sqrt`)."""
    if not p or p == _ONE_POLY:
        return p
    exps = {a for m in p for a, _ in m if isinstance(a, Fun) and a.name == "exp"}
    if not exps:
        return _peel(p)
    args = {a: expr_to_poly(a.arg) for a in exps}
    if any(q is None for q in args.values()):
        return None
    mus = sorted({mu for q in args.values() for mu in q}, key=_mono_key)
    scale = 2 * math.lcm(*(c.denominator for q in args.values() for c in q.values()))

    def weights(mono):
        arg = next((args[a] for a, _ in mono if a in args), {})
        return [scale * arg.get(mu, 0) for mu in mus]

    shift = [min(col) for col in zip(*(weights(m) for m in p))]
    # no template or search symbol has the family "exp"
    stand = [Var(FuncSym("exp", (k,))) for k in range(len(mus))]
    q = {}
    for mono, c in p.items():
        items = [(a, k) for a, k in mono if a not in args]
        items += [(stand[i], int(w - s)) for i, (w, s) in enumerate(zip(weights(mono), shift))
                  if w != s]
        q[tuple(sorted(items, key=lambda t: (sort_key(t[0]), t[1])))] = c
    root = _peel(q)
    if root is None:
        return None
    terms = []
    for mono, c in root.items():
        power = dict(mono)
        arg = {mu: Fraction(power.pop(stand[i], 0) + shift[i] // 2, scale)
               for i, mu in enumerate(mus)}
        exp = _fun_atom("exp", poly_to_expr({mu: a for mu, a in arg.items() if a}))
        terms.append(pair_product(exp, ({tuple(power.items()): c}, _ONE_POLY)))
    return pair_total(terms)[0]


def _peel(p):
    """Square root of a nonzero poly by peeling, or None."""
    atoms = sorted({a for m in p for a, _ in m}, key=sort_key)
    slot = {a: i for i, a in enumerate(atoms)}

    def vec(mono):
        v = [0] * len(atoms)
        for a, exp in mono:
            v[slot[a]] = exp
        return (sum(v), tuple(v))

    lead = max(p, key=vec)
    c0 = p[lead]
    if c0 < 0:
        return None
    root_c = fraction_sqrt(c0)
    if root_c is None or any(exp % 2 for _, exp in lead):
        return None
    root_mono = tuple((a, exp // 2) for a, exp in lead)
    root = {root_mono: root_c}
    rem = _poly_add(p, _poly_scale(_poly_mul(root, root), Fraction(-1)))
    for _ in range(10000):
        if not rem:
            return root
        lead_r = max(rem, key=vec)
        t_mono = dict(lead_r)
        for a, exp in root_mono:
            t_mono[a] = t_mono.get(a, 0) - exp
            if t_mono[a] < 0:
                return None
        # the keys of lead_r, in its sorted order
        t_mono = tuple((a, exp) for a, exp in t_mono.items() if exp)
        if vec(t_mono) >= vec(root_mono):
            return None
        t = {t_mono: rem[lead_r] / (2 * root_c)}
        #   rem -= t * (2*root + t)
        twice = _poly_add(_poly_scale(root, Fraction(2)), t)
        rem = _poly_add(rem, _poly_scale(_poly_mul(t, twice), Fraction(-1)))
        root = _poly_add(root, t)
    return None


# ---------------------------------------------------------------------------
# rendering

def _coord_text(c: Coord) -> str:
    return f"{c[0]}{c[1]}"


def render_vid(v: VarId) -> str:
    if isinstance(v, IndepVar):
        return f"x{v.index}"
    if isinstance(v, DepVar):
        return f"u{v.component}"
    if isinstance(v, JetVar):
        axes = index_to_axes(v.index)
        return f"u{v.component}_" + "".join(f"x{a}" for a in axes)
    name = v.family
    if v.indices:
        name += "[" + ",".join(str(i) for i in v.indices) + "]"
    if v.derivs:
        name += "_{" + ",".join(_coord_text(c) for c in v.derivs) + "}"
    return name


def render(e: Expr) -> str:
    """Human-readable text; grammar expressions parse back unchanged."""
    return _render(e, 0)


def _render(e: Expr, prec: int) -> str:
    # levels: 0 sum, 1 product/quotient, 2 power operand, 3 atom
    if isinstance(e, Const):
        v = e.value
        body = str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"
        if v < 0 and prec > 0:
            return f"({body})"
        if v.denominator != 1 and prec > 1:
            return f"({body})"
        return body
    if isinstance(e, Var):
        return render_vid(e.vid)
    if isinstance(e, Fun):
        return f"{e.name}({_render(e.arg, 0)})"
    if isinstance(e, Sum):
        parts = []
        for t in e.terms:
            txt = _render(t, 0)
            if parts:
                parts.append(" - " + txt[1:] if txt.startswith("-") else " + " + txt)
            else:
                parts.append(txt)
        body = "".join(parts)
        return f"({body})" if prec > 0 else body
    if isinstance(e, Product):
        neg = False
        factors = list(e.factors)
        if isinstance(factors[0], Const) and factors[0].value < 0:
            neg = True
            first = Const(-factors[0].value)
            factors = factors[1:] if first.value == 1 else [first] + factors[1:]
        body = "*".join(_render(f, 2) for f in factors) if factors else "1"
        if neg:
            body = "-" + body
        return f"({body})" if (prec > 1 or (neg and prec > 0)) else body
    if isinstance(e, Power):
        exp = str(e.exp) if e.exp >= 0 else f"({e.exp})"
        body = f"{_render(e.base, 3)}^{exp}"
        return body
    if isinstance(e, Div):
        body = f"{_render(e.num, 1)}/{_render(e.den, 2)}"
        return f"({body})" if prec > 1 else body
    raise TypeError(f"not an Expr: {e!r}")
