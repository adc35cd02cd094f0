"""Command line interface.

Exit codes: 0 on success (all suites passing), 1 when a verification
suite fails, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager
from pathlib import Path

from .counting import _ukl_terms, best_coprime_pair, binomial, hk_lower_bound, stirling2, ukl_size_formula
from .dfa import Dfa, minimize, parse, serialize
from .monoid import DEFAULT_MAX_ELEMENTS, largest_two_generated, transformation_monoid, ukl_generators
from .root import root_automaton, unary_root
from .verify import SUITES, _enumeration, _Recorder


def _load(path: str) -> Dfa:
    # parse decodes the bytes as UTF-8 and splits the lines itself.
    return parse(Path(path).read_bytes())


def _emit(d: Dfa, output: str | None) -> int:
    if output:
        Path(output).write_text(serialize(d), encoding="utf-8")
    print(f"states={d.n}")
    return 0


def cmd_root(args) -> int:
    out = root_automaton(_load(args.input), max_elements=args.max_elements).dfa
    return _emit(minimize(out) if args.minimize else out, args.output)


def cmd_unary_root(args) -> int:
    out = unary_root(_load(args.input))
    return _emit(minimize(out) if args.minimize else out, args.output)


def cmd_minimize(args) -> int:
    return _emit(minimize(_load(args.input)), args.output)


def cmd_monoid(args) -> int:
    m = transformation_monoid(_load(args.input), max_elements=args.max_elements)
    print(f"size={len(m)}")
    for rank, count in m.rank_histogram().items():
        print(f"rank {rank}: {count}")
    return 0


def cmd_ukl(args) -> int:
    if args.n is not None:
        for option, flag in (("k", "-k"), ("l", "-l"), ("enumerate", "--enumerate")):
            if getattr(args, option) is not None:
                raise ValueError(f"-n takes no {flag}")
        k, l = best_coprime_pair(args.n)
        formula = ukl_size_formula(k, l)
        states = formula - binomial(args.n, 2)
        payload = {"n": args.n, "k": k, "l": l, "formula": formula, "predicted_root_states": states}
        lines = [f"best k={k} l={l}", f"formula={formula}", f"predicted_root_states={states}"]
    else:
        if args.k is None or args.l is None:
            raise ValueError("pass either -n, or both -k and -l")
        formula = ukl_size_formula(args.k, args.l)
        payload = {"k": args.k, "l": args.l, "formula": formula}
        lines = [f"formula={formula}"]
        if args.enumerate:
            if formula > DEFAULT_MAX_ELEMENTS:
                raise ValueError(
                    f"--enumerate is refused: the formula gives {formula} elements, "
                    f"past the closure cap of {DEFAULT_MAX_ELEMENTS}"
                )
            m, agree, ranks_agree = _enumeration(
                _Recorder(), ukl_generators(args.k, args.l), _ukl_terms(args.k, args.l), "size", "ranks"
            )
            payload.update(closure=len(m), agree=agree, ranks_agree=ranks_agree)
            lines += [f"closure={len(m)}", "AGREE" if agree else "DISAGREE"]
            lines.append(f"ranks={'AGREE' if ranks_agree else 'DISAGREE'}")
    print(json.dumps(payload) if args.json else "\n".join(lines))
    return 0 if payload.get("agree", True) and payload.get("ranks_agree", True) else 1


def cmd_stirling(args) -> int:
    print(stirling2(args.n, args.k))
    return 0


def cmd_bound(args) -> int:
    print(hk_lower_bound(args.n))
    return 0


def cmd_largest2(args) -> int:
    size, (f, g) = largest_two_generated(args.n)
    print(f"max={size}")
    print(f"generators {f.one_row()} {g.one_row()}")
    return 0


_FLAGS = {"max_n": "--max-n", "seed": "--seed", "k": "-k", "l": "-l"}


def cmd_verify(args) -> int:
    # An option that the suite does not read is refused; `all` reads none.
    reads = SUITES[args.suite].options if args.suite in SUITES else ()
    for option, flag in _FLAGS.items():
        if getattr(args, option) is not None and option not in reads:
            raise ValueError(f"--suite {args.suite} takes no {flag}")
    if (args.k is None) != (args.l is None):
        raise ValueError("pass both -k and -l")
    if args.k is not None and args.max_n is not None:
        raise ValueError("--max-n cannot be combined with -k and -l")
    suites = SUITES.values() if args.suite == "all" else [SUITES[args.suite]]
    keywords = {} if args.seed is None else {"seed": args.seed}
    calls = []
    for suite in suites:
        if args.k is not None:
            runs = [(args.k, args.l)]
        else:
            runs = suite.defaults if args.max_n is None else suite.select(args.max_n, suite.defaults)
        if not runs:
            raise ValueError(f"--max-n {args.max_n} selects no {args.suite} run")
        for run in runs:
            suite.budget(*run)
        calls += [(suite.run, run) for run in runs]
    reports = [fn(*run, **keywords) for fn, run in calls]
    ok = all(r.passed for r in reports)
    if args.json:
        print(json.dumps({"reports": [r.to_dict() for r in reports], "pass": ok}))
    else:
        for r in reports:
            print(r.format_table())
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regroot",
        description="Roots of regular languages via transformation monoids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, minimize_flag=True):
        p.add_argument("input", help="input automaton in the dfa text format")
        p.add_argument("-o", "--output", help="write the resulting automaton here")
        if minimize_flag:
            p.add_argument("--minimize", action="store_true", help="minimize before writing")

    p = sub.add_parser("root", help="build the automaton for root(L)")
    add_io(p)
    p.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS)
    p.set_defaults(func=cmd_root)

    p = sub.add_parser("unary-root", help="root of a one-letter language, in place")
    add_io(p)
    p.set_defaults(func=cmd_unary_root)

    p = sub.add_parser("minimize", help="canonical minimal automaton")
    add_io(p, minimize_flag=False)
    p.set_defaults(func=cmd_minimize)

    p = sub.add_parser("monoid", help="transformation monoid size and rank histogram")
    p.add_argument("input")
    p.add_argument("--max-elements", type=int, default=DEFAULT_MAX_ELEMENTS)
    p.set_defaults(func=cmd_monoid)

    p = sub.add_parser("ukl", help="two-generated monoid sizes")
    p.add_argument("-k", type=int)
    p.add_argument("-l", type=int)
    p.add_argument("-n", type=int, help="report the best coprime split of n")
    # None when not given, as -k and -l are, so that -n can refuse it.
    p.add_argument(
        "--enumerate", action="store_true", default=None, help="cross-check by closure enumeration"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ukl)

    p = sub.add_parser("stirling", help="Stirling number of the second kind")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_stirling)

    p = sub.add_parser("bound", help="analytic lower bound on the best two-generated size")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("largest2", help="exhaustive largest two-generated submonoid")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_largest2)

    p = sub.add_parser("verify", help="run a reproduction suite")
    p.add_argument("--suite", required=True, choices=[*SUITES, "all"])
    p.add_argument("--max-n", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("-k", type=int)
    p.add_argument("-l", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


@contextmanager
def _all_digits():
    # Exact results are printed in full, however many digits they have.
    # Python before 3.10.7 has no limit on the digits of str(int).
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    digits = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(digits)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        with _all_digits():
            return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
