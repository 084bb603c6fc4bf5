"""The frozen value records behave as the frozen dataclasses they replace.

Each record class is compared with a twin: the same class body, without
what the decorator added, handed to `dataclasses.dataclass(frozen=True)`,
with `slots=True` for the expression nodes and `field(init=False,
compare=False, hash=False, repr=False)` for the `_hash` cache slot.  A
few twins are written out by hand below, one per option set, and pin
the generic twin builder.  Instances of every record class come from
running the engine on the fixture corpus; `repr`, `==`, `!=` (across
classes too), `hash`, frozenness, `__post_init__` validation and the
absence of `__dict__` on slotted classes must agree with the twin, and
copies and pickles must give equal values.
"""

import copy
import itertools
import pathlib
import pickle
import types
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from opfactor import (cascade, cascade_ode, check_candidate, conditions,
                      derive_conditions, expand_product, expr, factor,
                      factor_ode, factor_pde_second_order, jet, operator, parse,
                      parse_problem, problemfile, riccati_from_operator,
                      verify_solution)
from opfactor.cascade import CascadeOptions
from opfactor.conditions import CheckOptions, FactorizationCandidate
from opfactor.errors import CapacityExceeded, ShapeMismatch, ValidationError
from opfactor.expr import (Const, DepVar, Expr, Fun, FuncSym, IndepVar, JetVar,
                           Product, Sum, Var, Power, const, u_, x_)
from opfactor.factor import SearchConfig
from opfactor.jet import DerivIndex, slot_count
from opfactor.operator import DiffOperator, MatrixOperator
from opfactor.parse import Token

PROBLEMS = pathlib.Path(__file__).parent / "problems"
MODULES = (cascade, conditions, expr, factor, jet, operator, parse, problemfile)
RECORDS = {
    expr: ("IndepVar", "DepVar", "JetVar", "FuncSym", "Const", "Var", "Sum",
           "Product", "Power", "Div", "Fun"),
    factor: ("SearchConfig", "RiccatiProblem", "PdeBranch", "ObligationCheck",
             "PdeObligation", "PdeFactorResult"),
    cascade: ("CascadeOptions", "Trajectory", "SolutionPiece", "CascadeSolution",
              "ResidualReport"),
    conditions: ("Equation", "ConditionSystem", "FactorizationCandidate",
                 "CheckOptions", "CheckReport"),
    operator: ("DiffOperator", "MatrixOperator", "JetPolynomial"),
    jet: ("DerivIndex",),
    parse: ("Token",),
    problemfile: ("ProblemFile",),
}
CLASSES = [getattr(module, name) for module, names in RECORDS.items() for name in names]
SLOTTED = {Const, Var, Sum, Product, Power, expr.Div, Fun}


def _generated(value) -> bool:
    """Made by the decorator: generated source, or a shared record method."""
    code = getattr(value, "__code__", None)
    return code is not None and (code.co_filename == "<string>"
                                 or getattr(value, "__module__", "") == "opfactor.records")


def _init_fields(cls) -> tuple:
    code = cls.__init__.__code__
    return code.co_varnames[1:code.co_argcount]


def _twin(cls):
    """`cls`'s own body (its methods, annotations and defaults, nothing
    generated) decorated with `dataclass(frozen=True)`."""
    names = _init_fields(cls)
    defaults = dict(zip(names[len(names) - len(cls.__init__.__defaults__ or ()):],
                        cls.__init__.__defaults__ or ()))
    body = {k: v for k, v in cls.__dict__.items()
            if not _generated(v) and not isinstance(v, types.MemberDescriptorType)
            and k not in ("__slots__", "__dict__", "__weakref__", "__match_args__",
                          "__dataclass_fields__", "__dataclass_params__",
                          "__getstate__", "__setstate__")}
    body.update(defaults)
    for name in cls.__annotations__:
        if name.startswith("_"):
            body[name] = field(default=None, init=False, compare=False, hash=False,
                               repr=False)
    twin = type(cls.__name__, cls.__bases__, body)
    twin.__qualname__ = cls.__qualname__
    return dataclass(frozen=True, slots=cls in SLOTTED)(twin)


TWINS = {cls: _twin(cls) for cls in CLASSES}


def _rebuilt(obj, cls=None):
    """A new instance of `cls` (default: obj's class) from obj's fields."""
    return (cls or type(obj))(*(getattr(obj, n) for n in _init_fields(type(obj))))


def _as_twin(obj):
    return _rebuilt(obj, TWINS[type(obj)])


# ---------------------------------------------------------------------------
# hand-written twins, one per option set, as the parent declared them

@dataclass(frozen=True)
class _Token:  # no defaults, no hooks
    kind: str
    text: str
    line: int
    column: int


@dataclass(frozen=True)
class _CascadeOptions:  # defaults and a validating __post_init__
    interval: tuple = (-1.0, 1.0)
    steps: int = 1024
    constant: Fraction = Fraction(1)

    def __post_init__(self):
        if self.steps <= 0:
            raise ValidationError(f"step count {self.steps} is not positive")


@dataclass(frozen=True, slots=True)
class _Sum(Expr):  # slots and __post_init__
    terms: tuple

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ValueError("Sum needs at least two terms")


@dataclass(frozen=True, slots=True)
class _Var(Expr):  # slots, a cache field and an explicit __hash__
    vid: object
    _hash: int = field(default=None, init=False, compare=False, hash=False, repr=False)

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.vid,)))
        return self._hash


@dataclass(frozen=True)
class _DerivIndex:  # an explicit __repr__ and __post_init__
    k: int
    h: int
    n: int

    def __post_init__(self):
        if not 1 <= self.h <= slot_count(self.n, self.k):
            raise ValueError("slot out of range")

    def __repr__(self):
        return f"DerivIndex({self.k}, {self.h}, n={self.n})"


HAND = [(Token, _Token, [("num", "12", 1, 4), ("ident", "x1", 2, 1)]),
        (CascadeOptions, _CascadeOptions, [(), ((0.0, 2.0),), ((-2.0, -1.0), 64, Fraction(3))]),
        (Sum, _Sum, [((x_(1), const(2)),), ((u_(1), x_(2), x_(1)),)]),
        (Var, _Var, [(IndepVar(1),), (DepVar(2),), (JetVar(1, DerivIndex(2, 3, 2)),)]),
        (DerivIndex, _DerivIndex, [(1, 1, 1), (2, 3, 2), (0, 1, 2)])]


for _cls, _hand, _ in HAND:
    _hand.__qualname__ = _cls.__qualname__  # repr prints the qualified name


@pytest.mark.parametrize("cls, hand, args", HAND, ids=[c.__name__ for c, *_ in HAND])
def test_hand_written_twins_agree_with_the_records_and_the_generic_twin(cls, hand, args):
    assert hasattr(hand(*args[0]), "__dict__") == (cls not in SLOTTED)
    for a, b in itertools.product(args, repeat=2):
        objs = [(cls(*a), cls(*b)), (hand(*a), hand(*b)), (TWINS[cls](*a), TWINS[cls](*b))]
        assert len({repr(x) for x, _ in objs}) == 1
        assert len({hash(x) for x, _ in objs}) == 1
        assert len({(x == y, x != y) for x, y in objs}) == 1


# ---------------------------------------------------------------------------
# instances of every record, from the engine run on the fixtures

def _walk(obj, out: dict, seen: set):
    if id(obj) in seen:
        return
    seen.add(id(obj))
    if type(obj) in TWINS:
        bucket = out.setdefault(type(obj), [])
        if len(bucket) < 12:
            bucket.append(obj)
        children = [getattr(obj, n) for n in _init_fields(type(obj))]
    elif isinstance(obj, (tuple, list)):
        children = obj
    elif isinstance(obj, dict):
        children = [*obj.keys(), *obj.values()]
    else:
        return
    for child in children:
        _walk(child, out, seen)


def _problem(name):
    return parse_problem((PROBLEMS / name).read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def samples() -> dict:
    roots = [_problem(p.name) for p in sorted(PROBLEMS.glob("*.ini"))]
    const_ode, riccati = _problem("ode-const-factorable.ini"), _problem("ode-riccati-poly.ini")
    quad = _problem("ode-var-candidate.ini")
    wave, parabolic = _problem("pde2-wave.ini"), _problem("pde2-parabolic.ini")
    short = CascadeOptions(steps=32)
    obligation = factor_pde_second_order(parabolic.operator).obligation
    quotient = x_(1) ** 2 / (x_(1) + 3)
    roots += [derive_conditions("linear-ode"), derive_conditions("nonlinear-pde2-system", 2),
              check_candidate(const_ode.operator, const_ode.candidate), CheckOptions(),
              expand_product(quad.candidate.factors), factor_ode(riccati.operator),
              riccati_from_operator(riccati.operator), SearchConfig(),
              factor_pde_second_order(wave.operator), obligation, obligation.check(x_(1)),
              cascade_ode(const_ode.candidate, short), cascade_ode(quad.candidate, short),
              verify_solution(const_ode.operator, quotient),
              [quotient, Token("num", "3", 1, 2), Fun("exp", -x_(1)), Fun("sqrt", const(2)),
               Var(JetVar(1, DerivIndex(1, 1, 1))), FuncSym("b", (2, 1), (("x", 1),))]]
    out = {}
    _walk(roots, out, set())
    return out


def test_every_record_class_is_listed_and_sampled(samples):
    made = {cls for module in MODULES for cls in vars(module).values()
            if isinstance(cls, type) and cls.__module__ == module.__name__
            and _generated(cls.__init__)}
    assert made == set(CLASSES)
    assert set(samples) == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_hash_and_equality_match_the_dataclass_twin(samples, cls):
    objs = samples[cls] + [_rebuilt(obj) for obj in samples[cls]]
    for obj in objs:
        twin = _as_twin(obj)
        assert repr(obj) == repr(twin)
        assert hash(obj) == hash(twin)
    for a, b in itertools.product(objs, repeat=2):
        ta, tb = _as_twin(a), _as_twin(b)
        assert (a == b, a != b) == (ta == tb, ta != tb)


def test_equality_across_classes_matches_the_dataclass_twins(samples):
    firsts = [objs[0] for objs in samples.values()]
    for a, b in itertools.product(firsts, repeat=2):
        ta, tb = _as_twin(a), _as_twin(b)
        assert (a == b, a != b) == (ta == tb, ta != tb)
        assert (a.__eq__(b) is NotImplemented) == (ta.__eq__(tb) is NotImplemented)
    assert IndepVar(1).__eq__(DepVar(1)) is NotImplemented
    assert DepVar(1).__eq__(IndepVar(1)) is NotImplemented
    assert IndepVar(1) != DepVar(1) and not IndepVar(1) == DepVar(1)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(samples, cls):
    obj = samples[cls][0]
    for name in _init_fields(cls):
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, None)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_slotted_records_have_no_instance_dict(samples, cls):
    obj = samples[cls][0]
    assert hasattr(obj, "__dict__") == (cls not in SLOTTED)
    assert hasattr(_as_twin(obj), "__dict__") == (cls not in SLOTTED)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_copies_and_pickles_are_equal_values(samples, cls):
    for obj in samples[cls][:3]:
        for again in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert type(again) is cls and again == obj and hash(again) == hash(obj)
            assert repr(again) == repr(obj)


_X = x_(1)
INVALID = [
    (CascadeOptions, (), {"steps": 0}, ValidationError),
    (SearchConfig, (-1,), {}, ValidationError),
    (SearchConfig, (10 ** 6,), {}, CapacityExceeded),
    (Sum, ((_X,),), {}, ValueError),
    (Product, ((_X,),), {}, ValueError),
    (Power, (_X, 1.5), {}, ValueError),
    (Fun, ("tan", _X), {}, ValueError),
    (JetVar, (1, DerivIndex(0, 1, 1)), {}, ValueError),
    (DerivIndex, (1, 2, 1), {}, ValueError),
    (FactorizationCandidate, ((None,),), {}, ValueError),
    (DiffOperator, (1, 1, ((DerivIndex(1, 1, 2), _X),)), {}, ShapeMismatch),
    (MatrixOperator, (1, 2, ()), {}, ShapeMismatch),
]


@pytest.mark.parametrize("cls, args, kwargs, error", INVALID,
                         ids=[f"{c.__name__}-{i}" for i, (c, *_) in enumerate(INVALID)])
def test_post_init_still_validates(cls, args, kwargs, error):
    for make in (cls, TWINS[cls]):
        with pytest.raises(error):
            make(*args, **kwargs)


def test_const_coerces_its_value_and_caches_start_empty():
    c = Const(3)
    assert c.value == Fraction(3) and type(c.value) is Fraction
    a = Var(IndepVar(2))
    assert a._hash is None and hash(a) == hash((IndepVar(2),)) == a._hash
    assert "_hash" not in repr(a) and Var(IndepVar(2)) == a

