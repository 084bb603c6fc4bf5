"""Print the factorization condition systems for every template.

Usage:
    python3 scripts/condition_catalog.py [--m M] [--json] [template ...]

Without arguments all eight templates are printed with m = 2 for the
system kinds and m = 1 otherwise; --m sets m for the system kinds only.
A value of m that a system kind refuses prints `error: Type: message`
on stderr and exits 2 (out of range) or 3 (above the component cap).
"""

import argparse
import json
import sys

from opfactor.conditions import (TEMPLATES, check_m, derive_conditions,
                                 render_condition_system, template_traits)
from opfactor.errors import CapacityExceeded, ValidationError
from opfactor.expr import render
from opfactor.problemfile import ascii_number


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("templates", nargs="*", default=None,
                    help="template ids (default: all)")
    ap.add_argument("--m", type=ascii_number(int), default=None,
                    help="components for system templates (default 2)")
    ap.add_argument("--json", action="store_true", dest="as_json")
    args = ap.parse_args(argv)

    names = args.templates or list(TEMPLATES)
    for name in names:
        if name not in TEMPLATES:
            print(f"unknown template {name!r}; choose from {', '.join(TEMPLATES)}",
                  file=sys.stderr)
            return 2

    ms = []
    for name in names:
        m = (2 if args.m is None else args.m) if template_traits(name)[1] else 1
        try:
            check_m(name, m)
        except (ValidationError, CapacityExceeded) as err:
            print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
            return 3 if isinstance(err, CapacityExceeded) else 2
        ms.append(m)

    docs = []
    for name, m in zip(names, ms):
        system = derive_conditions(name, m=m)
        if args.as_json:
            docs.append({
                "template": name,
                "n": system.n,
                "m": system.m,
                "equations": [
                    {"lhs": render(eq.lhs), "rhs": render(eq.rhs),
                     "zero_condition": eq.is_zero_condition,
                     **({"block": eq.block} if eq.block else {})}
                    for eq in system.equations
                ],
            })
        else:
            print(render_condition_system(system))
            print()
    if args.as_json:
        print(json.dumps({"schema": 1, "systems": docs}, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
