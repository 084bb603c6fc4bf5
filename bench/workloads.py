"""The four workloads: seeded rounds of requests, the timed call, and
the check of each answer against one known by construction.

A workload object has
- `round(rng, index, warm)`: the next round of requests.  A round holds
  each draw type of the workload a fixed number of times, so every run
  sees the same mix whatever its seed;
- `run(request)`: the timed call into opfactor.  Expected domain
  outcomes (`EngineError`) are returned, not raised;
- `verify(request, outcome)`: `(verdict, ok, detail)`.  It runs outside
  the timed region;
- `oracle_item(request, outcome)`: what the sympy oracle re-expands, or
  None.

How a workload is measured is set here too, by the attributes and
methods of `Workload` that a class overrides, and nowhere else.
"""

import hashlib
import json
import math
import os
import resource
import subprocess
import sys

from opfactor.cascade import CascadeOptions, cascade_ode, cascade_system_numeric
from opfactor.conditions import (CheckOptions, FactorizationCandidate, TEMPLATES,
                                 check_candidate, condition_residuals,
                                 derive_conditions)
from opfactor.errors import EngineError, NoRealFactorization
from opfactor.expr import (ONE, ZERO, DepVar, Expr, IndepVar, evaluate, render,
                           simplify)
from opfactor.factor import factor_ode, factor_pde_second_order
from opfactor.operator import (DiffOperator, MatrixOperator, expand_product,
                               make_operator, matrix_expand_product,
                               operator_from_jet)

import plants

# A numeric cascade piece is correct when its residual converges at
# second order: halving the step count must raise the residual by at
# least this factor.  O(h^2) gives 4 in the limit (acceptance criterion
# 6 asks 3.5 of its one smooth system) and a first order method gives 2.
# 2.5, an observed order of log2(2.5) = 1.32, fails a first order method
# with margin and leaves room for draws that are not yet in the O(h^2)
# limit at the benchmark's step counts ...
CONVERGENCE_RATIO = 2.5
# ... unless the residual is already at the rounding floor of a second
# difference (about 1e-16 / h^2 = 1e-10 on 1024 steps).
CONVERGENCE_FLOOR = 1e-9


class Request:
    __slots__ = ("index", "kind", "payload")

    def __init__(self, index, kind, payload):
        self.index = index
        self.kind = kind
        self.payload = payload


def _text(obj) -> str:
    """Deterministic text of a request payload, for fingerprints."""
    if isinstance(obj, DiffOperator):
        body = ";".join(f"{d.k},{d.h}:{render(c)}" for d, c in obj.coeffs)
        return f"op(n={obj.n},m={obj.m},lin={obj.linear};{body})"
    if isinstance(obj, MatrixOperator):
        return "mat(" + "|".join(_text(op) for row in obj.entries for op in row) + ")"
    if isinstance(obj, FactorizationCandidate):
        return _text(obj.factors)
    if isinstance(obj, (tuple, list)):
        return "(" + ",".join(_text(x) for x in obj) + ")"
    if isinstance(obj, Expr):
        return render(obj)
    return repr(obj)


def fingerprint(req: Request) -> str:
    digest = hashlib.sha256(f"{req.kind}|{_text(req.payload)}".encode()).hexdigest()
    return digest[:16]


def same_expansion(P, factors) -> bool:
    """Exact re-expansion: P equals the product of the factors."""
    if isinstance(P, MatrixOperator):
        gp = matrix_expand_product([P])
        gc = matrix_expand_product(list(factors))
        pairs = [(gp[p][q], gc[p][q]) for p in range(P.m) for q in range(P.m)]
    else:
        pairs = [(expand_product([P]), expand_product(list(factors)))]
    for jp, jc in pairs:
        dp, dc = jp.as_dict(), jc.as_dict()
        for mono in set(dp) | set(dc):
            if simplify(dp.get(mono, ZERO) - dc.get(mono, ZERO)) != ZERO:
                return False
    return True


def _bump_zero_order(op: DiffOperator) -> DiffOperator:
    coeffs = {(d.k, d.h): c for d, c in op.coeffs}
    coeffs[(0, 1)] = simplify(coeffs.get((0, 1), ZERO) + ONE)
    return make_operator(op.n, op.m, coeffs, op.linear)


def _system_operator(N1, N2) -> MatrixOperator:
    grid = matrix_expand_product([N1, N2])
    m = N1.m
    return MatrixOperator(1, m, tuple(
        tuple(operator_from_jet(grid[p][q], q + 1) for q in range(m))
        for p in range(m)))


class Workload:
    """Defaults of how a workload is measured; a class overrides them."""

    # rounds are short: the loop stops at the end of a round, and
    # throughput_rps is the median of the per-round rates.  Otherwise it
    # stops at the request, and the whole run is one block.
    whole_rounds = True
    # the round after which the worker reads peak_rss_mb, or None for
    # the end of the run.  The caches grow with every request, so reading
    # it after a fixed amount of work keeps it independent of how fast
    # the machine ran; every workload reaches it well inside a 20 s run.
    rss_rounds = None
    # share of verified outputs sampled for the sympy oracle
    oracle_rate = 0.0
    # the percentile reported as latency_tail_ms, fixed so that runs stay
    # comparable: a high percentile that leaves at least ten samples
    # beyond it in a 20 s run and falls inside one draw type's band of
    # latencies, not on the edge between two
    tail_pct = 95
    # requests run in child processes that trace themselves
    traces_children = False

    def __init__(self, root, seed):
        pass

    def setup_samples(self):
        """Set-up times measured by the workload itself, each with the
        kernel times taken just after it, or None: then set-up is timed
        from starting a worker to its first request."""
        return None

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def oracle_item(self, req, outcome):
        return None


# ---------------------------------------------------------------------------
# identity-plants


class IdentityPlants(Workload):
    """Planted two-factor splits through expand -> from_jet -> check.

    A round is one plant of each scalar template, a second one of
    nonlinear-ode and of nonlinear-pde2, two 2x2 linear-ode-system
    plants, and one negative control: a plant of the kind `round index
    mod 5` whose P gets 1 added to its zero order coefficient, for which
    the correct verdict is FAIL.  nonlinear-ode and the systems are
    doubled because their latencies sit at the median, so latency_p50_ms
    falls inside one band of similar requests.  nonlinear-pde2 is doubled
    because it sets the tail: its latencies spread over a wide band (the
    probe's random polynomial as much as the plant), and two per round
    give 70 to 90 samples of that band in a 20 s run instead of about
    50.  The tail is p90, in the middle of that band, where its quantile
    moves least between seeds: over seeds 401-410 the spread (IQR over
    median) of p95 was 0.120 and that of p90 0.076.
    """

    name = "identity-plants"
    rss_rounds = 24
    oracle_rate = 0.05
    tail_pct = 90
    KINDS = plants.SCALAR_TEMPLATES + ("linear-ode-system",)

    ROUND = ("linear-ode", "linear-ode-system", "linear-ode-system", "nonlinear-ode",
             "nonlinear-ode", "linear-pde2", "nonlinear-pde2", "nonlinear-pde2")

    def round(self, rng, index, warm=False):
        out = [(template, False) for template in self.ROUND]
        out.append((self.KINDS[index % len(self.KINDS)], True))
        reqs = []
        for template, perturb in out:
            if template == "linear-ode-system":
                Q1, Q2 = plants.plant_system(rng, 2)
            else:
                Q1, Q2 = plants.plant_scalar(rng, template)
            kind = f"perturbed:{template}" if perturb else template
            reqs.append((kind, (Q1, Q2, perturb, rng.randrange(1 << 30))))
        return reqs

    def run(self, req):
        Q1, Q2, perturb, seed = req.payload
        if isinstance(Q1, MatrixOperator):
            P = _system_operator(Q1, Q2)
            if perturb:
                rows = [list(r) for r in P.entries]
                rows[0][0] = _bump_zero_order(rows[0][0])
                P = MatrixOperator(P.n, P.m, tuple(tuple(r) for r in rows))
        else:
            P = operator_from_jet(expand_product([Q1, Q2]))
            if perturb:
                P = _bump_zero_order(P)
        rep = check_candidate(P, FactorizationCandidate((Q1, Q2)),
                              CheckOptions(samples=8, tol=1e-9, seed=seed))
        return P, rep

    def verify(self, req, outcome):
        perturb = req.payload[2]
        _, rep = outcome
        verdict = "PASS" if rep.passed else "FAIL"
        if perturb:
            ok = not rep.passed and bool(rep.residuals)
        else:
            ok = rep.passed and not rep.residuals and rep.numeric_max < 1e-9
        return verdict, ok, "" if ok else f"numeric_max={rep.numeric_max:.3g}"

    def oracle_item(self, req, outcome):
        Q1, Q2, perturb, _ = req.payload
        P, _ = outcome
        return {"kind": req.kind, "P": P, "factors": (Q1, Q2), "equal": not perturb}


# ---------------------------------------------------------------------------
# factor-search


class FactorSearch(Workload):
    """Operators whose planted split is hidden, through factor_ode or
    factor_pde_second_order.  Found candidates are checked by exact
    re-expansion; the +1 Riccati perturbations (empty result) and the
    Laplace-type operators (NoRealFactorization) are negative controls.
    """

    name = "factor-search"
    rss_rounds = 24
    oracle_rate = 0.05
    ROUND = ("const-roots", "const-surd", "const-complex", "riccati", "riccati",
             "riccati+1:const-d", "riccati+1:linear-d", "pde2-const", "pde2-const",
             "pde2-var", "pde2-var", "pde2-var", "pde2-repeated", "laplace")

    def round(self, rng, index, warm=False):
        return [(kind, self._draw(rng, kind)) for kind in self.ROUND]

    def _draw(self, rng, kind):
        if kind == "const-roots":
            P = plants.const_ode_roots(rng)
            return (P, None)
        if kind == "const-surd":
            return (plants.const_ode_surd(rng), None)
        if kind == "const-complex":
            return (plants.const_ode_complex(rng), None)
        if kind.startswith("riccati"):
            if kind == "riccati":
                X, Y = plants.riccati_plant(rng)
            else:
                X, Y = plants.riccati_perturbed(rng, kind.endswith("linear-d"))
            Q1 = make_operator(1, 1, {(1, 1): ONE, (0, 1): X})
            Q2 = make_operator(1, 1, {(1, 1): ONE, (0, 1): Y})
            P = operator_from_jet(expand_product([Q1, Q2]))
            if kind != "riccati":
                return (_bump_zero_order(P), None)
            return (P, Y)
        if kind in ("pde2-const", "pde2-var"):
            Q1, Q2 = plants.pde2_plant(rng, kind == "pde2-var")
            return (operator_from_jet(expand_product([Q1, Q2])), (Q1, Q2))
        if kind == "pde2-repeated":
            Q1, Q2 = plants.pde2_repeated(rng)
            return (operator_from_jet(expand_product([Q1, Q2])), Q2.coeff(0, 1))
        return (plants.pde2_laplace(rng), None)

    def run(self, req):
        P, _ = req.payload
        try:
            if P.n == 1:
                return factor_ode(P)
            return factor_pde_second_order(P)
        except EngineError as err:
            return err

    def verify(self, req, out):
        P, planted = req.payload
        kind = req.kind
        if isinstance(out, EngineError):
            verdict = type(out).__name__
            return verdict, kind in ("const-complex", "laplace") and isinstance(
                out, NoRealFactorization), str(out)
        if kind in ("const-complex", "laplace"):
            return "no-error", False, "expected NoRealFactorization"
        if P.n == 1:
            cands = out
            verdict = f"FACTORED:{len(cands)}" if cands else "EMPTY"
            if kind.startswith("riccati+1"):
                return verdict, not cands, ""
            if not cands:
                return verdict, False, "no candidate found"
            if kind == "const-roots":
                g2, g1, g0 = (P.coeff(k, 1).value for k in (2, 1, 0))
                distinct = g1 * g1 - 4 * g2 * g0 != 0
                if len(cands) != (2 if distinct else 1):
                    return verdict, False, "wrong number of root splits"
            if kind == "const-surd" and len(cands) != 2:
                return verdict, False, "wrong number of surd splits"
            if kind == "riccati" and planted not in [c.factors[1].coeff(0, 1) for c in cands]:
                return verdict, False, f"planted Y = {render(planted)} not found"
            ok = all(same_expansion(P, c.factors) for c in cands)
            return verdict, ok, "" if ok else "candidate does not re-expand to P"
        res = out
        if kind == "pde2-repeated":
            if res.obligation is None:
                return "NO-OBLIGATION", False, "expected a PdeObligation"
            chk = res.obligation.check(planted)
            ok = chk.ok and same_expansion(P, chk.candidate.factors)
            return "OBLIGATION", ok, "" if ok else "planted Z does not complete it"
        cands = res.candidates
        verdict = f"FACTORED:{len(cands)}" if cands else "ResidualObstruction"
        if res.obligation is not None or not cands:
            return verdict, False, "planted split not recovered"
        # The search leaves rational coefficients unreduced, and
        # re-expanding those is very slow.  A candidate equal to the
        # planted split, slot by slot and exactly, is re-expanded in the
        # planted (reduced) form; any other candidate is checked against
        # the condition equations, the program's other exact route.
        cs = None
        found = False
        for c in cands:
            if all(_same_operator(a, b) for a, b in zip(c.factors, planted)):
                found = True
                ok = same_expansion(P, planted)
            else:
                cs = cs or derive_conditions("linear-pde2")
                ok = all(r == ZERO for _, r in condition_residuals(cs, P, c))
            if not ok:
                return verdict, False, "a candidate does not reproduce P"
        return verdict, found, "" if found else "planted split missing"

    def oracle_item(self, req, out):
        P, planted = req.payload
        if isinstance(out, EngineError):
            if req.kind == "laplace":
                return {"kind": req.kind, "P": P, "negative_discriminant": True}
            return None
        if P.n == 1:
            if not out:
                return None
            return {"kind": req.kind, "P": P, "factors": out[0].factors, "equal": True}
        if out.obligation is not None:
            cand = out.obligation.check(planted).candidate
            return {"kind": req.kind, "P": P, "factors": cand.factors, "equal": True}
        return {"kind": req.kind, "P": P, "factors": out.candidates[0].factors,
                "equal": True}


def _same_operator(a: DiffOperator, b: DiffOperator) -> bool:
    slots = {(d.k, d.h) for d, _ in a.coeffs} | {(d.k, d.h) for d, _ in b.coeffs}
    return all(simplify(a.coeff(*s) - b.coeff(*s)) == ZERO for s in slots)


# ---------------------------------------------------------------------------
# cascade-solve


class CascadeSolve(Workload):
    """Planted splits cascaded into particular solutions.

    Closed-form pieces must have residual exactly 0.0.  Numeric pieces
    are re-run at half the step count outside the timed region and must
    show O(h^2) convergence (CONVERGENCE_RATIO / CONVERGENCE_FLOOR):
    system pieces by opfactor's residual over every grid point, scalar
    pieces by `fixed_point_residual`.
    """

    name = "cascade-solve"
    rss_rounds = 8
    tail_pct = 85
    STEPS = 1024
    # systems run at fewer steps: at 1024 a 3x3 system takes about 2 s,
    # and a 20 s run would hold only four or five rounds
    SYSTEM_STEPS = 256
    WARM_SYSTEM_STEPS = 64
    # Sorted by latency a round is 4 fast scalar requests (const,
    # quasilinear-closed), 6 slower ones, 2 system-2x2, 1 system-3x3:
    # latency_p50_ms lands inside the slower scalar band and the p85 tail
    # in the middle of the system-2x2 band.
    ROUND = ("const", "const") + ("variable", "variable-lead") * 2 + (
        "quasilinear-closed", "quasilinear-rk4") * 2 + ("system-2x2", "system-2x2",
                                                         "system-3x3")

    def round(self, rng, index, warm=False):
        out = []
        for kind in self.ROUND:
            if kind == "const":
                Q1, Q2 = plants.cascade_const(rng)
                expect = ("closed-form",) * 3
                interval = (-1.0, 1.0)
            elif kind.startswith("variable"):
                lead_x = kind == "variable-lead"
                Q1, Q2 = plants.cascade_variable(rng, lead_x)
                u0 = "closed-form"
                if lead_x:
                    # u0 = exp(-int Y / (x1 + 2)) has a polynomial exponent
                    # only when x1 + 2 divides Y; the engine may or may not
                    # reduce that quotient, so both answers are right
                    u0 = "quadrature"
                    if evaluate(Q2.coeff(0, 1), {IndepVar(1): -2.0}) == 0.0:
                        u0 = "closed-form|quadrature"
                expect = (u0, "closed-form", "quadrature")
                interval = (-1.0, 1.0)
            elif kind.startswith("quasilinear"):
                separable = kind == "quasilinear-closed"
                Q1, Q2 = plants.cascade_quasilinear(rng, separable)
                expect = ("closed-form" if separable else "rk4",)
                interval = (0.0, 1.0)
            else:
                m = 2 if kind == "system-2x2" else 3
                Q1, Q2 = plants.plant_system(rng, m, full=True)
                expect = ("rk4",) * (3 * m)
                interval = (0.0, 1.0)
            steps = self.STEPS
            if kind.startswith("system"):
                steps = self.WARM_SYSTEM_STEPS if warm else self.SYSTEM_STEPS
            out.append((kind, (FactorizationCandidate((Q1, Q2)), interval, steps, expect)))
        return out

    @staticmethod
    def _solve(cand, interval, steps):
        opts = CascadeOptions(interval=interval, steps=steps)
        if cand.is_matrix:
            return cascade_system_numeric(cand, interval, opts)
        return cascade_ode(cand, opts)

    def run(self, req):
        cand, interval, steps, _ = req.payload
        return self._solve(cand, interval, steps)

    def verify(self, req, sol):
        cand, interval, steps, expect = req.payload
        pieces = sol.pieces
        verdict = ",".join(p.provenance for p in pieces)
        if len(pieces) != len(expect) or any(
                p.provenance not in e.split("|") for p, e in zip(pieces, expect)):
            return verdict, False, f"expected provenance {','.join(expect)}"
        numeric = [p for p in pieces if p.provenance != "closed-form"]
        for p in pieces:
            if p.provenance == "closed-form" and (p.form is None or p.residual != 0.0):
                return verdict, False, f"{p.label} closed form residual {p.residual!r}"
        if not numeric:
            return verdict, True, ""
        coarse = {p.label: p for p in self._solve(cand, interval, steps // 2).pieces}
        if not cand.is_matrix:
            Q1, Q2 = cand.factors
            P = operator_from_jet(expand_product([Q1, Q2]))
        for p in numeric:
            if cand.is_matrix:
                r, rc = p.residual, coarse[p.label].residual
            else:
                op = Q1 if p.label == "v1" else P
                r = fixed_point_residual(op, p.trajectory)
                rc = fixed_point_residual(op, coarse[p.label].trajectory)
            if not (math.isfinite(r) and math.isfinite(rc)):
                return verdict, False, f"{p.label} residual not finite"
            if r > CONVERGENCE_FLOOR and rc < CONVERGENCE_RATIO * r:
                return verdict, False, (f"{p.label} residual {r:.3g} at {steps} steps, "
                                        f"{rc:.3g} at {steps // 2}")
        return verdict, True, ""


def fixed_point_residual(op, traj, parts=32) -> float:
    """max |op u| / max(1, sup |u|) by central differences at the 31
    interior points a + j (b - a) / 32.

    opfactor's own trajectory residual samples 32 grid indices that
    shift when the step count changes, so its maximum jitters by up to
    about 1.8x between step counts; at fixed points the O(h^2) ratio is
    clean.  Needs a step count divisible by `parts`.
    """
    grid, vals = traj.grid, traj.values
    n = len(grid) - 1
    h = grid[1] - grid[0]
    sup = max(1.0, max(abs(v) for v in vals))
    worst = 0.0
    for j in range(1, parts):
        i = j * n // parts
        d = (vals[i], (vals[i + 1] - vals[i - 1]) / (2 * h),
             (vals[i + 1] - 2 * vals[i] + vals[i - 1]) / (h * h))
        bind = {IndepVar(1): grid[i], DepVar(1): vals[i]}
        r = sum(evaluate(c, bind) * d[dv.k] for dv, c in op.coeffs)
        worst = max(worst, abs(r) / sup)
    return worst


# ---------------------------------------------------------------------------
# cli-corpus

COMMANDS = ("expand", "conditions", "check", "factor", "cascade")

# Exit code and JSON error type of every (fixture, command) pair, checked
# by hand against each fixture's comment and the exit codes named by
# acceptance criterion 8: 0 success or PASS, 1 FAIL or a domain outcome,
# 2 parse or validation errors.  Every fixture expands and derives its
# conditions (0).  `check` needs a candidate section (else
# ValidationError, 2); ode-check-fail's candidate is wrong (FAIL, 1).
# `factor` searches scalar linear kinds only (else UnsupportedTemplate);
# u'' + u and the Laplace operator have negative discriminants, and so
# does ode-check-fail's u'' - 3u' + 3u; u'' - x u has no polynomial
# Riccati solution (NoSolutionInAnsatz, 1, no error object).
# `cascade` integrates along one variable (PDE kinds are
# UnsupportedTemplate), supports linear systems only, and without a
# candidate first runs the factor search.
EXPECTED_EXIT = {
    #                            expand      conditions  check                factor                        cascade
    "nonlinear-ode-friction.ini": ((0, None), (0, None), (0, None), (1, "UnsupportedTemplate"), (0, None)),
    "nonlinear-system.ini": ((0, None), (0, None), (0, None), (1, "UnsupportedTemplate"), (1, "UnsupportedTemplate")),
    "ode-check-fail.ini": ((0, None), (0, None), (1, None), (1, "NoRealFactorization"), (0, None)),
    "ode-const-factorable.ini": ((0, None), (0, None), (0, None), (0, None), (0, None)),
    "ode-const-norealroots.ini": ((0, None), (0, None), (2, "ValidationError"), (1, "NoRealFactorization"), (1, "NoRealFactorization")),
    "ode-riccati-nosolution.ini": ((0, None), (0, None), (2, "ValidationError"), (1, None), (1, "UnsupportedTemplate")),
    "ode-riccati-poly.ini": ((0, None), (0, None), (2, "ValidationError"), (0, None), (0, None)),
    "ode-var-candidate.ini": ((0, None), (0, None), (0, None), (0, None), (0, None)),
    "pde2-laplace.ini": ((0, None), (0, None), (2, "ValidationError"), (1, "NoRealFactorization"), (1, "UnsupportedTemplate")),
    "pde2-parabolic.ini": ((0, None), (0, None), (2, "ValidationError"), (0, None), (1, "UnsupportedTemplate")),
    "pde2-system.ini": ((0, None), (0, None), (0, None), (1, "UnsupportedTemplate"), (1, "UnsupportedTemplate")),
    "pde2-variable.ini": ((0, None), (0, None), (2, "ValidationError"), (0, None), (1, "UnsupportedTemplate")),
    "pde2-wave.ini": ((0, None), (0, None), (0, None), (0, None), (1, "UnsupportedTemplate")),
    "system-coupled.ini": ((0, None), (0, None), (0, None), (1, "UnsupportedTemplate"), (0, None)),
    "system-diag.ini": ((0, None), (0, None), (0, None), (1, "UnsupportedTemplate"), (0, None)),
}

# verdict field of the JSON document for commands that state one
VERDICTS = {"check": {0: ("PASS",), 1: ("FAIL",)},
            "factor": {0: ("FACTORED",), 1: ("NoSolutionInAnsatz", "ResidualObstruction")}}


class CliCorpus(Workload):
    """Each request is a fresh interpreter running opfactor.cli.main.

    A round is every command over every fixture with --json, plus
    `conditions --kind` in text mode for the eight templates, in an
    order shuffled by the seed.  One child runs at a time.
    """

    name = "cli-corpus"
    # a round is 83 requests, one or two per run
    whole_rounds = False
    tail_pct = 85
    traces_children = True
    # set-up is the `import opfactor` time of this many fresh
    # interpreters, after a spare one that may compile bytecode
    IMPORT_SAMPLES = 7
    # warm-up children only bring the files into the page cache
    WARM_REQUESTS = 5

    def __init__(self, root, seed):
        self.root = root
        self.child = os.path.join(root, "bench", "cli_child.py")
        self.problems = os.path.join(root, "tests", "problems")
        golden = os.path.join(root, "tests", "golden", "condition_systems.txt")
        with open(golden, encoding="utf-8") as fh:
            text = fh.read()
        chunks = text.split("\nconditions for ")
        chunks = [chunks[0]] + ["conditions for " + c for c in chunks[1:]]
        self.golden = {t: c.rstrip("\n") + "\n" for t, c in zip(TEMPLATES, chunks)}
        self.probe_seed = str(seed % 1000)
        self.trace_dir = None
        self.first_output = {}

    def round(self, rng, index, warm=False):
        reqs = []
        for fixture in sorted(EXPECTED_EXIT):
            for cmd in COMMANDS:
                argv = [cmd, "--json", os.path.join("tests", "problems", fixture)]
                if cmd in ("check", "factor"):
                    argv[2:2] = ["--seed", self.probe_seed]
                reqs.append((cmd, tuple(argv)))
        for template in TEMPLATES:
            reqs.append(("conditions", ("conditions", "--kind", template)))
        rng.shuffle(reqs)
        return reqs[:self.WARM_REQUESTS] if warm else reqs

    def setup_samples(self):
        samples = []
        for i in range(self.IMPORT_SAMPLES + 1):
            out = subprocess.run([sys.executable, self.child, "--import-only"],
                                 cwd=self.root, capture_output=True, text=True,
                                 timeout=60, check=True)
            if i:
                samples.append(json.loads(out.stdout))
        return samples

    def peak_rss_mb(self) -> float:
        """The largest child."""
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    def run(self, req):
        cmd = [sys.executable, self.child]
        trace_file = None
        if self.trace_dir is not None:
            trace_file = os.path.join(self.trace_dir, f"req-{req.index}.json")
            cmd += ["--trace-out", trace_file]
        cmd += ["--", *req.payload]
        proc = subprocess.run(cmd, cwd=self.root, capture_output=True, text=True,
                              timeout=120)
        return proc.returncode, proc.stdout, proc.stderr, trace_file

    def verify(self, req, out):
        code, stdout, stderr, _ = out
        argv = req.payload
        cmd = argv[0]
        if "--kind" in argv:
            expected = self.golden[argv[-1]]
            ok = code == 0 and stdout == expected and not stderr
            return f"exit:{code}", ok, "" if ok else "differs from the golden condition system"
        fixture = os.path.basename(argv[-1])
        want_code, want_error = EXPECTED_EXIT[fixture][COMMANDS.index(cmd)]
        verdict = f"exit:{code}"
        if code != want_code:
            return verdict, False, f"exit {code}, expected {want_code}: {stderr[-300:]}"
        try:
            doc = json.loads(stdout)
        except ValueError:
            return verdict, False, "stdout is not JSON"
        if doc.get("schema") != 1 or doc.get("command") != cmd:
            return verdict, False, "missing schema 1 or command name"
        if stdout != json.dumps(doc, sort_keys=True, indent=2) + "\n" or stderr:
            return verdict, False, "JSON not canonical or stderr not empty"
        error = doc.get("error", {}).get("type")
        if error != want_error:
            return verdict, False, f"error type {error}, expected {want_error}"
        if want_error is None and cmd in VERDICTS:
            verdict += ":" + str(doc.get("verdict"))
            if doc.get("verdict") not in VERDICTS[cmd][code]:
                return verdict, False, f"verdict {doc.get('verdict')} with exit {code}"
        first = self.first_output.setdefault(argv, stdout)
        if first != stdout:
            return verdict, False, "output differs from an earlier identical request"
        return verdict, True, ""


# by name, as BENCHMARK.json lists them
REGISTRY = {cls.name: cls for cls in (IdentityPlants, FactorSearch, CascadeSolve,
                                      CliCorpus)}


def make(name, root, seed) -> Workload:
    return REGISTRY[name](root, seed)
