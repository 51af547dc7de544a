"""Command-line interface.

Subcommands: apery, member, factorizations, betti, minpres, invariant,
survey, bench, verify.  Exit codes: 0 success, 1 invalid input, 2
computation budget exceeded, 3 verification failure, 141 (128 + SIGPIPE)
when the reader of stdout closes it early.  All output is deterministic
for fixed inputs.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import os
import statistics
import sys
import time

from . import clear_caches
from .core import DEFAULT_CAP, NumericalMonoid, apery, contains, frobenius
from .errors import (
    BudgetExceeded,
    InvalidInput,
    MonoidError,
    VerificationFailed,
)
from .factorizations import factorizations
from .invariants import (
    catenary_of_element,
    catenary_of_monoid,
    delta_set,
    delta_set_of_element,
    monoid_catenary_report,
    monotone_equal_catenary,
    tame_degree,
    tame_degree_windowed,
)
from .oracle import congruence_closure_check
from .presentations import (
    _canonical_presentation,
    all_minimal_presentations,
    make_relation,
    minimal_presentation,
)
from .shifted import (
    ShiftedFamily,
    _betti_graphs,
    accelerated_minimal_presentation,
    monoid_at,
)


class _Parser(argparse.ArgumentParser):
    """argparse exits with its own status 2 on bad flags; that status is
    reserved here for exceeded budgets, so parse errors are rethrown as
    invalid input instead."""

    def error(self, message):
        raise InvalidInput(message)


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise InvalidInput(f"expected comma-separated integers, got {text!r}")


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _timeout_secs(text: str) -> float:
    value = float(text)
    if not value >= 0:  # also refuses nan, which never expires
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _add_timeout(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout-secs", type=_timeout_secs, default=60.0)


def _is_int(x) -> bool:
    # JSON true and 6.0 compare equal to 1 and 6, but are not integers
    return isinstance(x, int) and not isinstance(x, bool)


def _coords(z) -> str:
    return ",".join(str(c) for c in z)


def _print_presentation(pres, fmt: str, out):
    if fmt == "json":
        json.dump(pres.to_json_dict(), out, indent=2)
        out.write("\n")
    else:
        for r in pres.relations:
            out.write(f"{r.betti}: {_coords(r.left)} ~ {_coords(r.right)}\n")


def _closure_check(M: NumericalMonoid, relations, bound, out) -> int:
    """Closure-check relations up to bound (frobenius(M) + 2 m_t when None)
    and return the bound.  At the first gap, write it to out and raise
    VerificationFailed."""
    if bound is None:
        bound = frobenius(M) + 2 * M.generators[-1]
    report = congruence_closure_check(M, relations, bound)
    if not report.ok:
        a, (z, zp) = report.failures[0]
        out.write(f"fail at {a}: {_coords(z)} !~ {_coords(zp)} (window {bound})\n")
        raise VerificationFailed(f"closure gap at element {a}")
    return bound


def _cmd_apery(args, out) -> int:
    M = NumericalMonoid(_int_list(args.gens))
    out.write(" ".join(str(v) for v in apery(M)) + "\n")
    return 0


def _cmd_member(args, out) -> int:
    M = NumericalMonoid(_int_list(args.gens))
    out.write("yes\n" if contains(M, args.element) else "no\n")
    return 0


def _cmd_factorizations(args, out) -> int:
    M = NumericalMonoid(_int_list(args.gens))
    for z in factorizations(M, args.element, cap=args.cap):
        out.write(_coords(z) + "\n")
    return 0


def _cmd_betti(args, out) -> int:
    M = NumericalMonoid(_int_list(args.gens))
    for graph in _betti_graphs(M, time.monotonic() + args.timeout_secs):
        out.write(f"{graph.element}\n")
    return 0


def _cmd_minpres(args, out) -> int:
    M = NumericalMonoid(_int_list(args.gens))
    if args.all:
        count, items = all_minimal_presentations(M)
        if args.paranoid:
            for p in items:
                _closure_check(M, p.relations, None, out)
        if args.format == "json":
            payload = {
                "generators": list(M.generators),
                "count": count,
                "presentations": [
                    p.to_json_dict()["relations"] for p in items
                ],
            }
            json.dump(payload, out, indent=2)
            out.write("\n")
        else:
            out.write(f"count {count}\n")
            for p in items:
                out.write("\n")
                _print_presentation(p, "text", out)
        return 0
    pres = _canonical_presentation(
        M, _betti_graphs(M, time.monotonic() + args.timeout_secs)
    )
    if args.paranoid:
        _closure_check(pres.monoid, pres.relations, None, out)
    _print_presentation(pres, args.format, out)
    return 0


def _cmd_invariant(args, out) -> int:
    gens = _int_list(args.gens)
    M = NumericalMonoid(gens)
    which = args.which
    deadline = time.monotonic() + args.timeout_secs
    if args.element is not None:
        if args.window is not None:
            raise InvalidInput("--window bounds the monoid-level sweeps only")
        a = args.element
        if which == "delta":
            values = sorted(delta_set_of_element(M, a, deadline=deadline))
            payload = {"which": which, "element": a, "values": values}
        else:
            if which == "catenary":
                value = catenary_of_element(M, a, deadline=deadline)
            elif which == "tame":
                value = tame_degree(M, a, deadline=deadline)
            else:
                mon, eq = monotone_equal_catenary(M, a, deadline=deadline)
                value = mon if which == "mon-catenary" else eq
            payload = {"which": which, "element": a, "value": value}
        out.write(json.dumps(payload) + "\n")
        return 0

    # monoid level; explicit --window forces the windowed path
    if which == "catenary" and args.window is not None:
        raise InvalidInput("the catenary degree is exact; it takes no --window")
    if which == "delta":
        ds = delta_set(M, window=args.window, deadline=deadline)
        payload = {
            "which": which,
            "values": sorted(ds.values),
            "exact": ds.exact,
            "window": ds.window,
        }
    elif which == "catenary":
        value = catenary_of_monoid(M, deadline=deadline)
        payload = {"which": which, "value": value, "exact": True}
    elif which in ("mon-catenary", "eq-catenary"):
        report = monoid_catenary_report(M, window=args.window, deadline=deadline)
        value = report.monotone if which == "mon-catenary" else report.equal
        payload = {
            "which": which,
            "value": value,
            "exact": report.exact,
            "window": report.window,
        }
    else:
        report = tame_degree_windowed(M, window=args.window, deadline=deadline)
        payload = {
            "which": which,
            "value": report.value,
            "attained_at": report.attained_at,
            "window": report.window,
        }
    out.write(json.dumps(payload) + "\n")
    return 0


def _survey_rows(family, n: int, which: str) -> list[tuple[int, str, int]]:
    try:
        # checking a member's minimality may itself be refused
        member = monoid_at(family, n)
        if not member.primitive or not member.minimal:
            return [(n, "skip", 0)]
        if which == "catenary":
            return [(n, which, catenary_of_monoid(member.monoid))]
        if which == "delta":
            ds = delta_set(member.monoid)
            return [(n, which, v) for v in sorted(ds.values)]
        # every graph has at least two components, so its element is a
        # Betti value, and a minimal presentation has one relation fewer
        # than components per graph
        graphs = _betti_graphs(member.monoid, None)
        if which == "minpres-size":
            return [(n, which, sum(len(g.components) - 1 for g in graphs))]
        return [(n, which, g.element) for g in graphs]
    except VerificationFailed:
        raise
    except MonoidError as exc:
        return [(n, f"error:{type(exc).__name__}", 0)]


def _cmd_survey(args, out) -> int:
    family = ShiftedFamily(_int_list(args.r))
    # the output is opened before any row is computed, so a path that
    # cannot be written is refused at once
    if args.out == "-":
        sink = contextlib.nullcontext(out)
    else:
        try:
            sink = open(args.out, "w", newline="")
        except OSError as exc:
            raise InvalidInput(f"cannot write {args.out}: {exc}")
    with sink as fh:
        # every row, in order of n, before the header: a failed
        # verification leaves the output empty
        shifts = range(args.n_from, args.n_to + 1)
        rows = [row for n in shifts for row in _survey_rows(family, n, args.which)]
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "metric", "value"])
        writer.writerows(rows)
    return 0


def _cmd_bench(args, out) -> int:
    family = ShiftedFamily(_int_list(args.r))
    member = monoid_at(family, args.n)

    def timed(compute):
        # the median of --repeats cold runs in ms, each under its own
        # deadline, and the last run's output
        times = []
        for _ in range(args.repeats):
            clear_caches()
            t0 = time.perf_counter()
            pres = compute(deadline=time.monotonic() + args.timeout_secs)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1000.0, pres

    accel_ms, accel_pres = timed(
        functools.partial(accelerated_minimal_presentation, family, args.n)
    )
    out.write(f"accelerated_ms {accel_ms:.1f}\n")
    try:
        direct_ms, direct_pres = timed(
            functools.partial(minimal_presentation, member.monoid)
        )
    except BudgetExceeded:
        out.write(f"direct_ms timeout(>{args.timeout_secs:g}s)\n")
        out.write("speedup n/a\n")
        out.write("equal n/a\n")
        return 0
    out.write(f"direct_ms {direct_ms:.1f}\n")
    speedup = direct_ms / accel_ms if accel_ms > 0 else float("inf")
    out.write(f"speedup {speedup:.2f}\n")
    if accel_pres.relations != direct_pres.relations:
        out.write("equal no\n")
        raise VerificationFailed("accelerated and direct presentations differ")
    out.write("equal yes\n")
    return 0


def _cmd_verify(args, out) -> int:
    gens = _int_list(args.gens)
    M = NumericalMonoid(gens)
    try:
        with open(args.presentation) as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {args.presentation}: {exc}")
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{args.presentation} is not valid JSON: {exc}")
    if not isinstance(payload, dict):
        raise InvalidInput(f"{args.presentation} does not hold a JSON object")
    generators = payload.get("generators")
    if (
        not isinstance(generators, list)
        or not all(_is_int(g) for g in generators)
        or tuple(generators) != gens
    ):
        raise InvalidInput("presentation file generators do not match --gens")
    try:
        relations = []
        for r in payload["relations"]:
            rel = make_relation(M, tuple(r["left"]), tuple(r["right"]))
            tag = r.get("betti", rel.betti)
            if not _is_int(tag) or tag != rel.betti:
                raise InvalidInput(
                    f"relation tagged betti {tag!r} has sides of value {rel.betti}"
                )
            relations.append(rel)
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"malformed relations block: {exc}")
    # the list is checked after the closure, so that a dropped relation is
    # reported as the gap it leaves
    bound = _closure_check(M, relations, args.bound, out)
    listed = payload.get("betti_elements")
    values = sorted({rel.betti for rel in relations})
    if listed is not None and (
        listed != values or not all(_is_int(b) for b in listed)
    ):
        raise InvalidInput(
            f"betti_elements {listed!r} are not the relations' values {values}"
        )
    out.write(f"ok window={bound} relations={len(relations)}\n")
    return 0


# Built once per process.  Callers that run main in-process, such as the
# tests, call it many times, and each parser costs about 2 ms and leaves
# reference cycles that only a full garbage collection frees.
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="numonoid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("apery", help="Apery set by residue")
    p.add_argument("--gens", required=True)
    p.set_defaults(func=_cmd_apery)

    p = sub.add_parser("member", help="membership test")
    p.add_argument("--gens", required=True)
    p.add_argument("--element", type=int, required=True)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser(
        "factorizations", help="all factorizations of an element"
    )
    p.add_argument("--gens", required=True)
    p.add_argument("--element", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=_cmd_factorizations)

    p = sub.add_parser("betti", help="Betti elements")
    p.add_argument("--gens", required=True)
    _add_timeout(p)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("minpres", help="minimal presentation")
    p.add_argument("--gens", required=True)
    p.add_argument(
        "--all", action="store_true", help="enumerate all of them, with no time limit"
    )
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.add_argument(
        "--paranoid",
        action="store_true",
        help="closure-check the output before printing, with no time limit",
    )
    _add_timeout(p)
    p.set_defaults(func=_cmd_minpres)

    p = sub.add_parser("invariant", help="factorization invariants")
    p.add_argument("--gens", required=True)
    p.add_argument(
        "--which",
        choices=("delta", "catenary", "mon-catenary", "eq-catenary", "tame"),
        required=True,
    )
    p.add_argument("--element", type=int, default=None)
    p.add_argument("--window", type=int, default=None)
    _add_timeout(p)
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("survey", help="family survey CSV")
    p.add_argument("--r", required=True)
    p.add_argument("--n-from", type=_positive, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument(
        "--which",
        choices=("betti", "catenary", "minpres-size", "delta"),
        required=True,
    )
    p.add_argument("--out", required=True, help="output path, - for stdout")
    p.add_argument(
        "--jobs", type=_positive, default=1, help="rows are computed in order"
    )
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("bench", help="direct vs accelerated timing")
    p.add_argument("--r", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--repeats", type=_positive, default=3)
    _add_timeout(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="closure-check a presentation file")
    p.add_argument("--gens", required=True)
    p.add_argument("--presentation", required=True)
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader left early (`| head`): send what is still buffered to
        # devnull so the flush at exit cannot raise again, and exit with
        # the status of a process that SIGPIPE ended
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MonoidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
