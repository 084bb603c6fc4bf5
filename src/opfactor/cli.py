"""Command line front end.

Five commands over INI problem files: expand, conditions, check,
factor, cascade.  Text reports go to stdout; --json switches to a
versioned machine-readable document (schema 1, sorted keys) that is
byte-identical for identical inputs and seed.

Exit codes: 0 success or PASS, 1 FAIL or domain errors such as
NoRealFactorization, 2 parse and validation errors, 3 capacity
limits, and BROKEN_PIPE_EXIT when the reader of stdout has gone.
"""

import argparse
import json
import os
import sys

from .cascade import (CascadeOptions, CascadeSolution, cascade_ode,
                      cascade_system_numeric, piece_values, uniform_grid)
from .conditions import (TEMPLATES, CheckOptions, check_m, condition_residuals,
                         check_candidate, derive_conditions,
                         render_condition_system, template_traits)
from .errors import (CapacityExceeded, EngineError, OrderOverflow, ParseError,
                     UnsupportedTemplate, ValidationError)
from .expr import ZERO, render
from .factor import SearchConfig, factor_ode, factor_pde_second_order
from .operator import expand_product, matrix_expand_product, render_jet
from .problemfile import ProblemFile, ascii_number, parse_interval, parse_problem


COMMANDS = ("expand", "conditions", "check", "factor", "cascade")
# exit when stdout's reader has gone: a shell's code for death by SIGPIPE
BROKEN_PIPE_EXIT = 141


class _JsonParser(argparse.ArgumentParser):
    """Raises a usage error as ValidationError, which main reports as a
    JSON error document; the default parser prints usage and exits 2."""

    def error(self, message):
        raise ValidationError(message)


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout to devnull, as Python's `signal` docs advise: no final flush error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE_EXIT
    return code


def _run(argv) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # --json, or an abbreviation of it that argparse accepts
    as_json = any(len(a) > 2 and "--json".startswith(a) for a in argv)
    args = argparse.Namespace(
        command=argv[0] if argv and argv[0] in COMMANDS else None, as_json=as_json)
    try:
        args = _build_parser(as_json).parse_args(_join_interval(argv))
        return _dispatch(args)
    except (ParseError, ValidationError) as err:
        _emit_error(args, err)
        return 2
    except (CapacityExceeded, OrderOverflow) as err:
        _emit_error(args, err)
        return 3
    except EngineError as err:
        _emit_error(args, err)
        return 1


def _join_interval(argv: list) -> list:
    """`cascade --interval -2,-1` as `--interval=-2,-1`: argparse reads a
    value that starts with '-' and is no plain number as an option."""
    out, i = list(argv), 1
    while argv[:1] == ["cascade"] and i < len(out) - 1 and out[i] != "--":
        if len(out[i]) > 2 and "--interval".startswith(out[i]):
            out[i:i + 2] = [f"{out[i]}={out[i + 1]}"]
        i += 1
    return out


def _build_parser(as_json: bool) -> argparse.ArgumentParser:
    ap = (_JsonParser if as_json else argparse.ArgumentParser)(
        prog="opfactor",
        description="factorization engine for second order differential operators")
    sub = ap.add_subparsers(dest="command", required=True)
    cmd = {name: sub.add_parser(name) for name in COMMANDS}
    for name, p in cmd.items():
        if name == "conditions":
            p.add_argument("problem", nargs="?", help="problem file path")
            p.add_argument("--kind", help="template kind instead of a file")
            p.add_argument("--m", type=ascii_number(int), default=None,
                           help="number of components for system kinds")
        else:
            p.add_argument("problem", help="problem file path")
        p.add_argument("--json", action="store_true", dest="as_json")
    for name in ("check", "factor"):
        cmd[name].add_argument("--seed", type=ascii_number(int), default=0)
    cmd["check"].add_argument("--samples", type=ascii_number(int), default=8)
    cmd["check"].add_argument("--tol", type=ascii_number(float), default=1e-9)
    cmd["factor"].add_argument("--ansatz-degree", type=ascii_number(int), default=3)
    cmd["cascade"].add_argument("--interval", default=None, help="a,b working interval")
    cmd["cascade"].add_argument("--steps", type=ascii_number(int), default=None)
    cmd["cascade"].add_argument("--csv", default=None, metavar="PATH",
                                help="export cascade trajectories as CSV")
    return ap


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "conditions":
        return _cmd_conditions(args)
    problem = _load(args.problem)
    if cmd == "expand":
        return _cmd_expand(args, problem)
    if cmd == "check":
        return _cmd_check(args, problem)
    if cmd == "factor":
        return _cmd_factor(args, problem)
    return _cmd_cascade(args, problem)


def _load(path: str) -> ProblemFile:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_problem(fh.read())
    except (OSError, UnicodeDecodeError) as err:
        raise ValidationError(f"cannot read {path}: {err}") from err


def _emit(args, doc: dict, text: str):
    if args.as_json:
        doc = {"schema": 1, "command": args.command, **doc}
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        print(text)


def _emit_error(args, err: EngineError):
    name = type(err).__name__
    if args.as_json:
        _emit(args, {"error": {"type": name, "message": str(err)}}, "")
    else:
        print(f"error: {name}: {err}", file=sys.stderr)


# ---------------------------------------------------------------------------
# expand

def _jet_doc(jp) -> dict:
    from .operator import render_mono
    return {"jet": render_jet(jp),
            "terms": [{"mono": render_mono(mono, jp.n), "coeff": render(coeff)}
                      for mono, coeff in jp.terms]}


def _cmd_expand(args, problem: ProblemFile) -> int:
    factors = (list(problem.candidate.factors)
               if problem.candidate is not None else [problem.operator])
    what = "candidate product" if problem.candidate is not None else "operator"
    if problem.is_system:
        cells = matrix_expand_product(factors)
        lines = [f"jet polynomial of the {what} ({problem.kind}):"]
        rows = []
        for p in range(problem.m):
            for q in range(problem.m):
                jp = cells[p][q]
                if not jp.terms:
                    continue
                lines.append(f"  row {p + 1}, from u{q + 1}: {render_jet(jp)}")
                rows.append({"row": p + 1, "col": q + 1, **_jet_doc(jp)})
        _emit(args, {"kind": problem.kind, "source": what, "cells": rows},
              "\n".join(lines))
    else:
        jp = expand_product(factors)
        _emit(args, {"kind": problem.kind, "source": what, **_jet_doc(jp)},
              f"jet polynomial of the {what} ({problem.kind}):\n  {render_jet(jp)}")
    return 0


# ---------------------------------------------------------------------------
# conditions

def _cmd_conditions(args) -> int:
    if args.problem is not None:
        if args.kind is not None or args.m is not None:
            raise ValidationError("conditions takes a problem file or --kind [--m], not both")
        problem = _load(args.problem)
        kind, m = problem.kind, problem.m
    elif args.kind is not None:
        kind = args.kind
        if kind not in TEMPLATES:
            raise ValidationError(
                f"--kind must be one of {', '.join(TEMPLATES)}")
        system = template_traits(kind)[1]
        m = args.m if args.m is not None else (2 if system else 1)
        check_m(kind, m)
    else:
        raise ValidationError("conditions needs a problem file or --kind")
    cs = derive_conditions(kind, m)
    doc = {"kind": kind, "m": m, "count": len(cs.equations),
           "equations": [{"lhs": render(eq.lhs), "rhs": render(eq.rhs),
                          "block": list(eq.block) if eq.block else None,
                          "zero_condition": eq.is_zero_condition}
                         for eq in cs.equations]}
    _emit(args, doc, render_condition_system(cs))
    return 0


# ---------------------------------------------------------------------------
# check

def _cmd_check(args, problem: ProblemFile) -> int:
    if problem.candidate is None:
        raise ValidationError("check needs [Q1]/[Q2] (or [N1]/[N2]) sections")
    opts = CheckOptions(samples=args.samples, tol=args.tol, seed=args.seed)
    rep = check_candidate(problem.operator, problem.candidate, opts)
    cs = derive_conditions(problem.kind, problem.m)
    cres = condition_residuals(cs, problem.operator, problem.candidate)
    zero = sum(1 for _, r in cres if r == ZERO)
    total = len(cres)
    passed = rep.passed and zero == total
    verdict = "PASS" if passed else "FAIL"
    lines = [f"{verdict}, {zero}/{total} conditions residual 0",
             f"numeric probe: max relative gap {rep.numeric_max:.3e} over "
             f"{rep.samples} samples (tol {rep.tol:g}, seed {rep.seed})"]
    for label, resid in rep.residuals:
        lines.append(f"  expansion mismatch at {label}: {render(resid)}")
    for idx, resid in cres:
        if resid != ZERO:
            lines.append(f"  condition {idx + 1} residual: {render(resid)}")
    doc = {"verdict": verdict,
           "conditions": {"total": total, "zero": zero},
           "residuals": [{"where": label, "value": render(r)}
                         for label, r in rep.residuals],
           "condition_residuals": [{"index": i + 1, "value": render(r)}
                                   for i, r in cres if r != ZERO],
           "numeric_max": rep.numeric_max, "samples": rep.samples,
           "tol": rep.tol, "seed": rep.seed}
    _emit(args, doc, "\n".join(lines))
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# factor

def _factor_doc(cand) -> dict:
    """Coefficient table of a scalar candidate; factor searches no systems."""
    return {name: {f"b[{d.k},{d.h}]": render(e) for d, e in f.coeffs}
            for name, f in zip(("Q1", "Q2"), cand.factors)}


def _factor_lines(cand) -> list:
    lines = []
    for name, table in _factor_doc(cand).items():
        body = ", ".join(f"{k} = {v}" for k, v in sorted(table.items()))
        lines.append(f"  {name}: {body}")
    return lines


def _cmd_factor(args, problem: ProblemFile) -> int:
    if problem.is_system:
        raise UnsupportedTemplate(
            "factor searches cover scalar templates; system kinds are check-only")
    if not template_traits(problem.kind)[0]:
        raise UnsupportedTemplate(
            "no search strategy for nonlinear kinds; supply a candidate and use check")
    cfg = SearchConfig(ansatz_degree=args.ansatz_degree, seed=args.seed)
    if problem.n == 1:
        cands = factor_ode(problem.operator, cfg)
        if not cands:
            _emit(args, {"candidates": [], "verdict": "NoSolutionInAnsatz"},
                  f"NoSolutionInAnsatz: no polynomial Riccati solution with rational "
                  f"coefficients of degree <= {cfg.ansatz_degree}")
            return 1
        lines = [f"{len(cands)} candidate(s):"]
        for c in cands:
            lines.extend(_factor_lines(c))
        _emit(args, {"candidates": [_factor_doc(c) for c in cands],
                     "verdict": "FACTORED"}, "\n".join(lines))
        return 0
    res = factor_pde_second_order(problem.operator, cfg)
    doc = {"delta": render(res.delta),
           "sqrt_delta": None if res.sqrt_delta is None else render(res.sqrt_delta),
           "swapped": res.swapped,
           "branches": [{"sign": b.sign, "ok": b.ok,
                         "residual": render(b.residual)} for b in res.branches],
           "candidates": [_factor_doc(b.candidate) for b in res.branches if b.ok],
           "obligation": None if res.obligation is None
           else render(res.obligation.equation) + " = 0"}
    lines = [f"discriminant: {render(res.delta)}"]
    if res.swapped:
        lines.append("axes were swapped internally (no u_x1x1 slot)")
    if res.obligation is not None:
        lines.append("repeated principal root; factorization reduces to any Z with")
        lines.append(f"  {render(res.obligation.equation)} = 0")
        ok = True
    else:
        lines.append(f"sqrt(delta) = {render(res.sqrt_delta)}")
        ok = False
        for b in res.branches:
            if b.ok:
                ok = True
                lines.append(f"branch sign {b.sign:+d}: candidate")
                lines.extend(_factor_lines(b.candidate))
            else:
                lines.append(f"branch sign {b.sign:+d}: zero order residual "
                             f"{render(b.residual)}")
    doc["verdict"] = "FACTORED" if ok else "ResidualObstruction"
    _emit(args, doc, "\n".join(lines))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# cascade

def _solve_options(args, problem: ProblemFile) -> CascadeOptions:
    opts = problem.solve if problem.solve is not None else CascadeOptions()
    interval = (opts.interval if args.interval is None
                else parse_interval(args.interval, "--interval"))
    steps = opts.steps if args.steps is None else args.steps
    return CascadeOptions(interval, steps, opts.constant)


def _cmd_cascade(args, problem: ProblemFile) -> int:
    if problem.n != 1:
        raise UnsupportedTemplate(
            "cascade solving integrates along one variable; PDE kinds are "
            "verification-only")
    cand = problem.candidate
    if cand is None:
        if problem.is_system:
            raise UnsupportedTemplate(
                "system cascades need explicit [N1]/[N2] sections")
        found = factor_ode(problem.operator, SearchConfig())
        if not found:
            raise UnsupportedTemplate(
                "no candidate in the file and the factor search found none")
        cand = found[0]
    opts = _solve_options(args, problem)
    if problem.is_system:
        sol = cascade_system_numeric(cand, opts.interval, opts)
    else:
        sol = cascade_ode(cand, opts)
    paths = _export_csv(args.csv, sol) if args.csv else []
    lines = [f"cascade over [{sol.interval[0]:g}, {sol.interval[1]:g}] "
             f"with {sol.steps} steps:"]
    docs = []
    for p in sol.pieces:
        if p.form is not None:
            lines.append(f"  {p.label} [{p.provenance}] = {render(p.form)}, "
                         f"max residual {p.residual:.3e}")
        else:
            lines.append(f"  {p.label} [{p.provenance}] trajectory "
                         f"({len(p.trajectory.grid)} points), "
                         f"max residual {p.residual:.3e}")
        docs.append({"label": p.label, "provenance": p.provenance,
                     "form": None if p.form is None else render(p.form),
                     "residual": p.residual})
    for path in paths:
        lines.append(f"  wrote {path}")
    _emit(args, {"interval": list(sol.interval), "steps": sol.steps,
                 "solutions": docs, "csv": paths}, "\n".join(lines))
    return 0


def _export_csv(base: str, sol: CascadeSolution) -> list:
    stem, ext = os.path.splitext(base)
    ext = ext or ".csv"
    grid, _ = uniform_grid(sol.interval, sol.steps)
    paths = []
    for p in sol.pieces:
        label = p.label.replace("[", "-").replace("]", "")
        path = f"{stem}-{label}{ext}"
        rows = [(x, *(v if isinstance(v, tuple) else (v,)))
                for x, v in zip(grid, piece_values(p, grid))]
        m = len(rows[0]) - 1
        head = ",".join(["x"] + [f"u{j + 1}" for j in range(m)])
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(head + "\n")
                for row in rows:
                    fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
        except OSError as err:
            raise ValidationError(f"cannot write {path}: {err}") from err
        paths.append(path)
    return paths


if __name__ == "__main__":
    sys.exit(main())
