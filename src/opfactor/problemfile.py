"""INI-style problem files: an operator, an optional candidate, and
optional solver settings.

Format by example:

    [problem]
    kind = linear-ode

    [operator]
    g[2,1] = "1"
    g[1,1] = "-3"
    g[0,1] = "2"

    [Q1]
    b[0,1] = "-1"
    b[1,1] = "1"

    [Q2]
    b[0,1] = "-2"
    b[1,1] = "1"

    [solve]
    interval = 0,1
    steps = 1024
    constant = 1

Scalar kinds describe the operator with g[k,h] keys and candidates
with b[k,h] under [Q1]/[Q2]; system kinds use f[p,q,k,h] and
a[p,q,k,h] under [N1]/[N2].  Expression values are double quoted.
A scalar operator is read as the 1x1 system whose cell (1,1) holds
its g[k,h] (or b[k,h]) keys.  Missing coefficients default to zero,
but each diagonal cell of the operator needs a nonzero second order
coefficient so the operator really has order two.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

from .cascade import CascadeOptions
from .conditions import TEMPLATES, FactorizationCandidate, template_traits
from .errors import EngineError, ParseError, ValidationError
from .expr import DepVar, Expr, ZERO, expr_variables, render, simplify
from .operator import DiffOperator, MatrixOperator, as_matrix, make_operator
from .parse import parse_expr

_SECTIONS = ("problem", "operator", "Q1", "Q2", "N1", "N2", "solve")
_KEY_RE = re.compile(r"^([a-z])\[(\d+(?:,\d+)*)\]$")


@dataclass(frozen=True)
class ProblemFile:
    kind: str
    n: int
    m: int
    operator: object  # DiffOperator | MatrixOperator
    candidate: "FactorizationCandidate | None" = None
    solve: "CascadeOptions | None" = None

    @property
    def is_system(self) -> bool:
        return template_traits(self.kind)[1]


# ---------------------------------------------------------------------------
# raw INI reading

def _read_sections(text: str) -> dict:
    """{section: {key: (value, line, column_of_value)}} with positions."""
    sections = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith(";"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("unterminated section header", lineno, 1)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ValidationError(f"unknown section [{name}] on line {lineno}")
            if name in sections:
                raise ValidationError(f"duplicate section [{name}] on line {lineno}")
            sections[name] = {}
            current = name
            continue
        if "=" not in line:
            raise ParseError("expected key = value", lineno, 1)
        if current is None:
            raise ParseError("key outside any section", lineno, 1)
        key_part, _, val_part = raw.partition("=")
        column = len(key_part) + 2 + (len(val_part) - len(val_part.lstrip()))
        key = key_part.strip()
        value = val_part.strip()
        if key in sections[current]:
            raise ValidationError(
                f"duplicate key {key} in [{current}] on line {lineno}")
        sections[current][key] = (value, lineno, column)
    return sections


def _unquote(value: str, line: int, column: int):
    if value.startswith('"'):
        if len(value) < 2 or not value.endswith('"'):
            raise ParseError("unterminated quoted value", line, column)
        return value[1:-1], column + 1
    return value, column


def _parse_value_expr(value: str, line: int, column: int) -> Expr:
    body, column = _unquote(value, line, column)
    return simplify(parse_expr(body, line, column))


# ---------------------------------------------------------------------------
# coefficient keys

def _coeff_key(key: str, family: str, line: int):
    mt = _KEY_RE.match(key)
    if not mt or mt.group(1) != family:
        raise ValidationError(
            f"key {key} on line {line} is not a {family}[...] coefficient")
    return tuple(int(t) for t in mt.group(2).split(","))


def _check_slot(k: int, h: int, n: int, key: str, line: int):
    if k > 2:
        raise ValidationError(f"{key} on line {line}: order {k} exceeds 2")
    if not 1 <= h <= n ** k:
        raise ValidationError(
            f"{key} on line {line}: slot {h} out of range 1..{n ** k}")


def _read_operator(items: dict, kind: str, n: int, m: int, family: str,
                   max_order: int, need_lead: bool):
    """One operator section.  System kinds key cells as family[p,q,k,h];
    scalar kinds key family[k,h], read as cell (1,1) of a 1x1 system and
    returned as its scalar entry."""
    linear, system, _ = template_traits(kind)
    shape, arity = ("p,q,k,h", 4) if system else ("k,h", 2)
    cells = {}
    for key, (value, line, column) in items.items():
        idx = _coeff_key(key, family, line)
        if len(idx) != arity:
            raise ValidationError(f"{key} on line {line}: expected {family}[{shape}]")
        p, q, k, h = idx if system else (1, 1) + idx
        if not (1 <= p <= m and 1 <= q <= m):
            raise ValidationError(
                f"{key} on line {line}: component out of range 1..{m}")
        _check_slot(k, h, n, key, line)
        if k > max_order:
            raise ValidationError(
                f"{key} on line {line}: order {k} exceeds {max_order}")
        e = _parse_value_expr(value, line, column)
        if linear and any(isinstance(v, DepVar) for v in expr_variables(e)):
            raise ValidationError(
                f"{key} on line {line}: dependent variable in a linear coefficient")
        cells.setdefault((p, q), {})[(k, h)] = e
    if need_lead:
        for p in range(1, m + 1):
            block = cells.get((p, p), {})
            if not any(k == 2 and e != ZERO for (k, _), e in block.items()):
                raise ValidationError(
                    f"diagonal entry ({p},{p}) needs a second order coefficient"
                    if system else "operator needs a nonzero second order coefficient")
    try:
        rows = tuple(
            tuple(make_operator(n, m, cells.get((p, q), {}), linear)
                  for q in range(1, m + 1))
            for p in range(1, m + 1))
        mop = MatrixOperator(n, m, rows)
    except EngineError as err:
        raise ValidationError(str(err)) from err
    return mop if system else mop.entries[0][0]


# ---------------------------------------------------------------------------
# whole files

def parse_problem(text: str) -> ProblemFile:
    sections = _read_sections(text)
    if "problem" not in sections:
        raise ValidationError("missing [problem] section")
    if "operator" not in sections:
        raise ValidationError("missing [operator] section")
    header = {k: v for k, (v, _, _) in sections["problem"].items()}
    for key in header:
        if key not in ("kind", "n", "m"):
            raise ValidationError(f"unknown [problem] key {key}")
    kind = header.get("kind")
    if kind not in TEMPLATES:
        raise ValidationError(
            f"kind must be one of {', '.join(TEMPLATES)}; got {kind!r}")
    linear, system, n = template_traits(kind)

    def _int(name, value):
        try:
            return int(value)
        except ValueError:
            raise ValidationError(f"[problem] {name} must be an integer, got {value!r}")

    if "n" in header and _int("n", header["n"]) != n:
        raise ValidationError(f"kind {kind} fixes n = {n}, file says {header['n']}")
    if system:
        if "m" not in header:
            raise ValidationError(f"kind {kind} needs an explicit m >= 2")
        m = _int("m", header["m"])
        if m < 2:
            raise ValidationError(f"system kinds need m >= 2, got {m}")
    else:
        m = _int("m", header.get("m", 1))
        if m != 1:
            raise ValidationError(f"scalar kinds fix m = 1, file says {m}")

    operator = _read_operator(sections["operator"], kind, n, m,
                              "f" if system else "g", max_order=2, need_lead=True)

    names = ("N1", "N2") if system else ("Q1", "Q2")
    wrong = ("Q1", "Q2") if system else ("N1", "N2")
    for w in wrong:
        if w in sections:
            raise ValidationError(f"section [{w}] is illegal for kind {kind}")
    present = [nm for nm in names if nm in sections]
    candidate = None
    if len(present) == 1:
        raise ValidationError(f"candidate needs both [{names[0]}] and [{names[1]}]")
    if len(present) == 2:
        # a scalar factor of order 2 is caught below, by name
        factors = tuple(
            _read_operator(sections[nm], kind, n, m, "a" if system else "b",
                           max_order=1 if system else 2, need_lead=False)
            for nm in names)
        for nm, f in zip(names, factors):
            if f.order != 1:
                raise ValidationError(f"factor [{nm}] must have order exactly 1")
        candidate = FactorizationCandidate(factors)

    solve = None
    if "solve" in sections:
        solve = _parse_solve(sections["solve"])
    return ProblemFile(kind, n, m, operator, candidate, solve)


def _parse_solve(items: dict) -> CascadeOptions:
    fields = {}
    for key, (value, line, column) in items.items():
        value, _ = _unquote(value, line, column)
        if key == "interval":
            parts = value.split(",")
            if len(parts) != 2:
                raise ValidationError(
                    f"interval on line {line} must be two comma separated numbers")
            try:
                a, b = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValidationError(f"bad interval number on line {line}")
            if not b > a:
                raise ValidationError(f"empty interval on line {line}")
            fields["interval"] = (a, b)
        elif key == "steps":
            try:
                steps = int(value)
            except ValueError:
                raise ValidationError(f"steps on line {line} must be an integer")
            if steps <= 0:
                raise ValidationError(f"steps on line {line} must be positive")
            fields["steps"] = steps
        elif key == "constant":
            try:
                fields["constant"] = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise ValidationError(f"bad constant on line {line}")
        else:
            raise ValidationError(f"unknown [solve] key {key} on line {line}")
    return CascadeOptions(**fields)


# ---------------------------------------------------------------------------
# printing

def _coeff_lines(op: DiffOperator, family: str, prefix=()) -> list:
    out = []
    for d, e in sorted(op.coeffs, key=lambda p: (p[0].k, p[0].h)):
        idx = ",".join(str(i) for i in prefix + (d.k, d.h))
        out.append(f'{family}[{idx}] = "{render(e)}"')
    return out


def _operator_lines(op, family: str, system: bool) -> list:
    mop = as_matrix(op)
    out = []
    for p in range(mop.m):
        for q in range(mop.m):
            out.extend(_coeff_lines(mop.entries[p][q], family,
                                    (p + 1, q + 1) if system else ()))
    return out


def print_problem(problem: ProblemFile) -> str:
    """Canonical text form; parse_problem round-trips it."""
    lines = ["[problem]", f"kind = {problem.kind}",
             f"n = {problem.n}", f"m = {problem.m}", "", "[operator]"]
    system = problem.is_system
    lines.extend(_operator_lines(problem.operator, "f" if system else "g", system))
    if problem.candidate is not None:
        names = ("N1", "N2") if system else ("Q1", "Q2")
        for nm, f in zip(names, problem.candidate.factors):
            lines.extend(["", f"[{nm}]"])
            lines.extend(_operator_lines(f, "a" if system else "b", system))
    if problem.solve is not None:
        s = problem.solve
        lines.extend(["", "[solve]",
                      f"interval = {s.interval[0]:g},{s.interval[1]:g}",
                      f"steps = {s.steps}",
                      f"constant = {s.constant}"])
    return "\n".join(lines) + "\n"
