"""Command-line surface: generation, evaluation, enumeration, verification.

Exit codes: 0 on success, 1 on usage or i/o errors, 2 when a verification
subcommand rejects its certificate (or a property check finds a
counterexample).  Output is deterministic for fixed flags and seed; exact
scalars print as reduced fractions, floats with nine significant digits.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
from fractions import Fraction

# the other modules, and numpy with them, load inside the handlers that use them
from . import behavior, functionals


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here wants 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_FAMILIES = {
    "chsh": functionals.make_chsh,
    "i": functionals.make_inn22,
    "m": functionals.make_mnn22,
    "c1": functionals.make_c1,
    "c2": functionals.make_c2,
}


def parse_ineq_token(token: str) -> functionals.BellFunctional:
    """Tokens like CHSH, CHSH3, I3322, M4422, C1-5."""
    t = token.lower()
    if t == "chsh":
        return functionals.make_chsh(2)
    m = re.fullmatch(r"chsh(\d+)", t)
    if m:
        return functionals.make_chsh(int(m.group(1)))
    m = re.fullmatch(r"(i|m|c1|c2)(\d)(\d)22", t)
    if m and m.group(2) == m.group(3):
        return _FAMILIES[m.group(1)](int(m.group(2)))
    m = re.fullmatch(r"(c1|c2)-(\d+)", t)
    if m:
        return _FAMILIES[m.group(1)](int(m.group(2)))
    raise ValueError(
        f"unknown inequality {token!r}; use CHSH[N], INN22, MNN22, C1-N or C2-N"
    )


def parse_strategy_class(token: str):
    from . import machines

    t = token.lower()
    if t == "local":
        return "local"
    if t == "box:pr":
        return machines.pr_box()
    m = re.fullmatch(r"box:pr:(\d+)", t)
    if m:
        return machines.pr_machine(int(m.group(1)))
    raise ValueError(f"unknown strategy class {token!r}; use local, box:pr or box:pr:N")


def format_scalar(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return format(v, ".9g")
    return str(v)


def render_grid(alice_header, rows) -> str:
    """Coefficient-table layout: Alice entries as the column header, one row per Bob setting."""
    cells = [[""] + [format_scalar(v) for v in alice_header]]
    for row in rows:
        cells.append([format_scalar(v) for v in row])
    width = max(len(c) for line in cells for c in line)
    out = []
    for k, line in enumerate(cells):
        text = line[0].rjust(width) + " | " + "  ".join(c.rjust(width) for c in line[1:])
        out.append(text)
        if k == 0:
            out.append("-" * (width + 1) + "+" + "-" * (len(text) - width - 2))
    return "\n".join(out)


def functional_table(f: functionals.BellFunctional) -> str:
    rows = functionals.display_rows(f)
    text = render_grid(f.alice, rows)
    bound = f" <= {-f.constant}" if f.constant else " <= 0"
    return text + "\n" + bound.strip()


def behavior_table(p: behavior.BehaviorPoint) -> str:
    n = p.scenario.n_settings
    rows = [[p.bob[j]] + [p.joint[i][j] for i in range(n)] for j in range(n)]
    return render_grid(p.alice, rows)


functional_to_json_dict = functionals.functional_to_json_dict
functional_from_json_dict = functionals.functional_from_json_dict


def _emit(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _emit_list(docs, path):
    """Write the JSON list `_dump(list(docs))` would, one document at a time.

    Documents with one outline (keys, list lengths and nesting) share their
    text but for the scalars, so `_dump` renders each outline once, as a
    %-template with a slot per scalar, and json's C encoder writes each
    document's scalars in one call.
    """
    templates = {}
    with open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout) as fh:
        head = "[\n  "
        for doc in docs:
            scalars = []
            outline = _outline(doc, scalars)
            if outline not in templates:
                text = _dump(_skeleton(outline)).replace("\n", "\n  ")
                templates[outline] = text.replace("%", "%%").replace(_dump(_SLOT), "%s")
            encoded = _SCALARS.encode(scalars)[1:-1].split(_SLOT) if scalars else ()
            fh.write(head + templates[outline] % tuple(encoded))
            head = ",\n  "
        fh.write("[]\n" if head == "[\n  " else "\n]\n")


# json escapes control characters inside strings, so a bare "\0" in its
# output can only be a separator
_SLOT = "\0"
_SCALARS = json.JSONEncoder(separators=(_SLOT, ":"))
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def _outline(value, scalars: list):
    """A hashable outline of a JSON value; its scalars go to `scalars` in the order json writes them.

    A list of plain scalars, the common case, is outlined by its length alone.
    """
    if isinstance(value, dict):
        return dict, tuple(value), tuple([_outline(v, scalars) for v in value.values()])
    if isinstance(value, (list, tuple)):
        if _SCALAR_TYPES.issuperset(map(type, value)):
            scalars.extend(value)
            return list, len(value)
        return list, tuple([_outline(v, scalars) for v in value])
    scalars.append(value)
    return None


def _skeleton(outline):
    """The JSON value an outline describes, with `_SLOT` for every scalar."""
    if outline is None:
        return _SLOT
    if outline[0] is dict:
        return dict(zip(outline[1], map(_skeleton, outline[2])))
    if isinstance(outline[1], int):
        return [_SLOT] * outline[1]
    return [_skeleton(v) for v in outline[1]]


def _load_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _dump(doc) -> str:
    return json.dumps(doc, indent=2)


def _load_functional(args) -> functionals.BellFunctional:
    if getattr(args, "functional", None):
        return functional_from_json_dict(_load_json(args.functional))
    if not getattr(args, "ineq", None):
        raise ValueError("pass --ineq TOKEN or --functional PATH")
    return parse_ineq_token(args.ineq)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_gen(args) -> int:
    f = _FAMILIES[args.family](args.n)
    if args.format == "table":
        _emit(functional_table(f), args.output)
    else:
        _emit(_dump(functional_to_json_dict(f)), args.output)
    return 0


def _cmd_eval(args) -> int:
    f = functional_from_json_dict(_load_json(args.functional))
    p = behavior.from_json_dict(_load_json(args.behavior))
    _emit(format_scalar(f.evaluate(p)), args.output)
    return 0


def _cmd_machine(args) -> int:
    from . import machines

    if args.action == "recipe":
        machine = machines.recipe(_load_functional(args))
    elif args.action == "wire":
        if args.prn is not None:
            wiring = machines.make_prn_wiring(args.prn)
        elif args.wiring:
            wiring = machines.wiring_from_json_dict(_load_json(args.wiring))
        else:
            raise ValueError("machine wire needs --wiring or --prn")
        machine = machines.wire_pr_boxes(wiring)
    else:  # "check"; argparse allows no other action
        if not args.machine:
            raise ValueError("machine check needs --machine PATH")
        machine = machines.machine_from_json_dict(_load_json(args.machine))
        _emit(_dump({"pr3_formula": machines.pr3_formula_check(machine)}), args.output)
        return 0
    if args.format == "table":
        _emit(behavior_table(machines.machine_behavior(machine)), args.output)
    else:
        _emit(_dump(machines.machine_to_json_dict(machine)), args.output)
    return 0


def _cmd_enum_local(args) -> int:
    from . import strategies

    scenario = behavior.Scenario(args.n)
    if args.count:
        strategies.check_cap(args.n, args.cap)
        _emit(str(4**args.n), args.output)
    else:
        points = strategies.enumerate_local(scenario, cap=args.cap)
        _emit_list(map(behavior.to_json_dict, points), args.output)
    return 0


# every coordinate of a no-signaling vertex is 0, 1/2 or 1
_HALF_TEXT = ("0", "1/2", "1")


def _cmd_enum_ns(args) -> int:
    from . import polytope

    if args.n not in (2, 3, 4):
        raise ValueError("non-local vertex enumeration is available for n = 2, 3 or 4")
    if args.classify and args.n == 4:
        raise ValueError("vertex classes are defined for n = 2 (PR) and n = 3 (S1..S4) only")
    rows = polytope.ns_vertex_rows(args.n)
    if args.count:
        _emit(str(len(rows)), args.output)
        return 0
    n = args.n

    def docs():  # what `behavior.to_json_dict` writes for the exact point `row` / 2
        for row in rows.tolist():
            cells = [_HALF_TEXT[h] for h in row]
            doc = {"backend": "exact", "n": n, "alice": cells[:n], "bob": cells[n : 2 * n],
                   "joint": [cells[(i + 2) * n : (i + 3) * n] for i in range(n)]}
            if args.classify:
                doc["class"] = polytope.classify_vertex_n3(row) if n == 3 else "PR"
            yield doc

    _emit_list(docs(), args.output)
    return 0


def _cmd_census(args) -> int:
    from . import polytope

    # the counts do not depend on facet order
    chsh_orbit = functionals.orbit(functionals.make_chsh(3))
    i_orbit = functionals.orbit(functionals.make_inn22(3))
    rows = polytope.ns_vertex_rows(3)
    labels = [polytope.classify_vertex_n3(row) for row in rows.tolist()]
    result = polytope.census_rows(behavior.Scenario(3), rows, labels, chsh_orbit, i_orbit)
    if args.format == "json":
        _emit(_dump(result.to_json_dict()), args.output)
    else:
        _emit(result.to_text(), args.output)
    return 0


def _cmd_verify_facet(args) -> int:
    from . import polytope, strategies

    f = _load_functional(args)
    cls = parse_strategy_class(args.strategy_class)
    cert = polytope.verify_facet(f, cls, max_strategies=args.max_strategies)
    doc = {
        "inequality": functional_to_json_dict(f),
        "class": args.strategy_class,
        "max_value": format_scalar(cert.max_value),
        "affine_rank": cert.affine_rank,
        "rank_needed": f.scenario.dimension - 1,
        "saturating": cert.n_saturating,
        "deterministic_saturating": cert.n_deterministic,
        "truncated": cert.truncated,
        "accepted": cert.accepted,
    }
    if cert.max_value > 0:
        doc["witness"] = strategies.strategy_to_json_dict(cert.witness)
    _emit(_dump(doc), args.output)
    return 0 if cert.accepted else 2


def _cmd_lemma1(args) -> int:
    from . import polytope

    report = polytope.check_lemma1(
        args.n, samples=args.samples, seed=args.seed, raise_on_counterexample=False
    )
    doc = {
        "n": report.n_settings,
        "samples": report.samples,
        "checked": report.checked,
        "counterexamples": [
            behavior.to_json_dict(p) for p in report.counterexamples
        ],
    }
    _emit(_dump(doc), args.output)
    return 0 if not report.counterexamples else 2


def _cmd_quantum(args) -> int:
    from . import quantum

    f = _load_functional(args)
    if args.action == "seesaw":
        result = quantum.seesaw_maximize(
            f,
            quantum.TwoQubitState.schmidt(args.theta),
            restarts=args.restarts,
            seed=args.seed,
            plane=args.plane,
        )
        doc = {
            "theta": args.theta,
            "value": float(format(result.value, ".9g")),
            "converged": result.converged,
            "alice_bloch": [[float(format(x, ".9g")) for x in v] for v in result.measurements.alice],
            "bob_bloch": [[float(format(x, ".9g")) for x in v] for v in result.measurements.bob],
        }
        _emit(_dump(doc), args.output)
        return 0
    sweep = quantum.theta_sweep(
        f,
        grid=args.grid,
        restarts=args.restarts,
        seed=args.seed,
        plane=args.plane,
        threads=args.threads,
    )
    if args.format == "json":
        doc = {
            "grid": args.grid,
            "restarts": args.restarts,
            "seed": args.seed,
            "curve": [
                {"theta": float(format(t, ".9g")), "value": float(format(v, ".9g"))}
                for t, v in sweep.curve()
            ],
            "best_theta": float(format(sweep.best_theta, ".9g")),
            "best_value": float(format(sweep.best_value, ".9g")),
        }
        _emit(_dump(doc), args.output)
    else:
        lines = ["theta,value"]
        lines += [
            f"{format(t, '.9g')},{format(v, '.9g')}" for t, v in sweep.curve()
        ]
        _emit("\n".join(lines), args.output)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="bellbox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add_output(p):
        p.add_argument("-o", "--output", help="write to a file instead of stdout")

    p = sub.add_parser("gen", help="generate a named inequality family member")
    p.add_argument("--family", choices=sorted(_FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=["json", "table"], default="json")
    add_output(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("eval", help="evaluate a functional on a behavior")
    p.add_argument("--functional", required=True)
    p.add_argument("--behavior", required=True)
    add_output(p)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("machine", help="derive, wire or check a non-local machine")
    p.add_argument("action", choices=["recipe", "wire", "check"])
    p.add_argument("--ineq", help="inequality token, e.g. I3322")
    p.add_argument("--functional", help="functional JSON path")
    p.add_argument("--wiring", help="wiring JSON path")
    p.add_argument("--prn", type=int, help="build the standard n-input wiring")
    p.add_argument("--machine", help="machine JSON path (for check)")
    p.add_argument("--format", choices=["json", "table"], default="json")
    add_output(p)
    p.set_defaults(func=_cmd_machine)

    p = sub.add_parser("enum-local", help="enumerate deterministic behaviors")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--count", action="store_true")
    add_output(p)
    p.set_defaults(func=_cmd_enum_local)

    p = sub.add_parser("enum-ns", help="enumerate non-local no-signaling vertices")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--classify", action="store_true")
    p.add_argument("--count", action="store_true")
    add_output(p)
    p.set_defaults(func=_cmd_enum_ns)

    p = sub.add_parser("census", help="class sizes and violation counts at n=3")
    p.add_argument("--format", choices=["table", "json"], default="table")
    add_output(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser("verify-facet", help="certify tightness and rank of an inequality")
    p.add_argument("--ineq", help="inequality token, e.g. M3322")
    p.add_argument("--functional", help="functional JSON path")
    p.add_argument("--class", dest="strategy_class", required=True)
    p.add_argument("--max-strategies", type=int, default=500_000,
                   help="distinct saturating behaviors examined for the rank, at most")
    add_output(p)
    p.set_defaults(func=_cmd_verify_facet)

    p = sub.add_parser("lemma1", help="seeded property check of the majorization lemma")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=10_000)
    p.add_argument("--seed", type=int, default=0)
    add_output(p)
    p.set_defaults(func=_cmd_lemma1)

    p = sub.add_parser("quantum", help="see-saw optimization over two-qubit states")
    p.add_argument("action", choices=["seesaw", "sweep"])
    p.add_argument("--ineq", help="inequality token")
    p.add_argument("--functional", help="functional JSON path")
    p.add_argument("--theta", type=float, default=0.7853981633974483)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--plane", choices=["full", "xz"], default="full")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    add_output(p)
    p.set_defaults(func=_cmd_quantum)

    return parser


def main(argv=None) -> int:
    # bellbox's arrays are int64 (no BLAS path) or small float stacks, so the
    # worker threads OpenBLAS starts per core when numpy loads only spin; the
    # handlers load numpy, so this runs first.  A value the user set wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"bellbox: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
