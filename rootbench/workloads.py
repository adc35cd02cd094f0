"""The benchmark's workloads: seeded inputs, the layer calls, exact checks.

Each workload is a pair (setup, run).  setup(seed, tr) builds the inputs
the program receives; the seed only relabels states and draws random
samples, so every expected value below holds for every seed.  run(inputs,
tr, chk) calls the public functions of the dfa, monoid, root and counting
layers in the order `regroot root` and the verify suites use, wraps each
call in a span named <module>.<function>, and checks each result against
the paper's exact constants.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter

from regroot import (
    Dfa,
    accepting_transformation,
    dfa_based_on,
    equivalent,
    hk_lower_bound,
    minimize,
    parse,
    root_automaton,
    serialize,
    transformation_monoid,
    ukl_gap,
    ukl_generators,
    ukl_size_formula,
    unary_root,
)

U34_SIZE = 607_285
U34_ROOT_STATES = 607_264
U34_ROOT_FINALS = 260_405
# sha256 of serialize(minimize(root automaton)) for the U_{3,4} DFA; the
# minimal DFA is canonical, so relabeling the input leaves it unchanged.
U34_ROOT_SHA256 = "623413b31526351cc28d81d825a78333f39b77dda302bac1b0e8de819049efa6"
U25_SIZE = 610_871
U52_SIZE = 392_797
GAP_N7 = 218_074
U23_ROOT_STATES = 1_847
# Minimal root sizes over all 5 starts x 32 final sets of the U_{2,3} DFA,
# as {states: how many assignments}.  Relabeling permutes the assignments.
U23_VARIATION_PROFILE = {
    1: 10, 5: 5, 15: 20, 25: 20, 109: 27, 112: 3, 119: 27, 122: 3,
    531: 12, 537: 8, 541: 12, 547: 8, 1847: 5,
}
# sha256 of the "k l |U_{k,l}|" lines for coprime 2 <= k, l <= 40.
SWEEP_SHA256 = "718c0e9fb7edab42bae98b60c8b7967f6ea236b16b24986f1bcba264eaef17c9"

SWEEP_MAX = 40
HK_RANGE = range(7, 31)
UNARY_MAX_N = 12
UNARY_SAMPLES = 200


class Checker:
    """Counts exact checks and keeps a message for each one that fails."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, name: str, got, want) -> None:
        self.attempted += 1
        if got != want:
            self.failures.append(f"{name}: got {got!r}, want {want!r}")


def relabel(d: Dfa, perm: list[int]) -> Dfa:
    """The same automaton with state q renamed perm[q-1]."""
    old = [0] * d.n
    for q, p in enumerate(perm, 1):
        old[p - 1] = q
    delta = tuple(tuple(perm[row[q - 1] - 1] for q in old) for row in d.delta)
    finals = frozenset(perm[q - 1] for q in d.finals)
    return Dfa(d.n, d.alphabet, delta, perm[d.start - 1], finals)


def _shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return perm


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash through sha512, so draws do not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}")


def _ukl_dfa(tr, k: int, l: int, rng: random.Random) -> Dfa:
    with tr.span("monoid.ukl_generators"):
        gens = ukl_generators(k, l)
    return relabel(dfa_based_on(gens), _shuffled(rng, k + l))


def _parse(tr, d: Dfa) -> Dfa:
    # Inputs reach the program as DFA text, as they do through the CLI.
    text = serialize(d)
    with tr.span("dfa.parse"):
        return parse(text)


def _serialize(tr, d: Dfa) -> str:
    with tr.span("dfa.serialize") as c:
        text = serialize(d)
    c["bytes"] = len(text)
    return text


def _closure(tr, d: Dfa):
    # transformation_monoid is closure over the DFA's letter maps.
    with tr.span("monoid.closure") as c:
        m = transformation_monoid(d)
    c["elements"] = len(m)
    return m


def _root(tr, d: Dfa, monoid=None):
    with tr.span("root.root_automaton") as c:
        ra = root_automaton(d, monoid=monoid)
    c["states"] = ra.dfa.n
    c["finals"] = len(ra.dfa.finals)
    return ra


def _minimize(tr, d: Dfa) -> Dfa:
    with tr.span("dfa.minimize", states_in=d.n) as c:
        out = minimize(d)
    c["states_out"] = out.n
    return out


def _equivalent(tr, d1: Dfa, d2: Dfa) -> bool:
    with tr.span("dfa.equivalent"):
        return equivalent(d1, d2)


def _unary_root(tr, d: Dfa) -> Dfa:
    with tr.span("root.unary_root"):
        return unary_root(d)


def _formula(tr, k: int, l: int) -> int:
    with tr.span("counting.ukl_size_formula"):
        return ukl_size_formula(k, l)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# root-u34: `regroot root --minimize -o` on the U_{3,4} DFA, call for call.

def setup_root_u34(seed: int, tr) -> Dfa:
    return _parse(tr, _ukl_dfa(tr, 3, 4, _rng("root-u34", seed)))


def run_root_u34(d: Dfa, tr, chk: Checker) -> None:
    m = _closure(tr, d)
    ra = _root(tr, d, m)
    out = _minimize(tr, ra.dfa)
    text = _serialize(tr, out)
    formula = _formula(tr, 3, 4)
    with tr.span("bench.check"):
        chk.expect("|U_{3,4}| enumerated", len(m), U34_SIZE)
        chk.expect("|U_{3,4}| formula", formula, U34_SIZE)
        chk.expect("minimal root states", out.n, U34_ROOT_STATES)
        chk.expect("minimal root finals", len(out.finals), U34_ROOT_FINALS)
        chk.expect("minimal root sha256", _sha256(text), U34_ROOT_SHA256)


# closure-gap-n7: `regroot monoid` on the two n = 7 DFAs of the gap lemma,
# then a sweep of the counting formulas; no root construction, no minimize.

def setup_closure_gap(seed: int, tr) -> list[Dfa]:
    rng = _rng("closure-gap-n7", seed)
    return [_parse(tr, _ukl_dfa(tr, k, l, rng)) for k, l in ((2, 5), (5, 2))]


def run_closure_gap(dfas: list[Dfa], tr, chk: Checker) -> None:
    # Only the sizes are kept, so one monoid is alive at a time, as in the
    # gap suite.
    sizes = [len(_closure(tr, d)) for d in dfas]
    f25 = _formula(tr, 2, 5)
    f52 = _formula(tr, 5, 2)
    with tr.span("counting.ukl_gap"):
        gap = ukl_gap(7)
    table = {
        (k, l): _formula(tr, k, l)
        for k in range(2, SWEEP_MAX + 1)
        for l in range(2, SWEEP_MAX + 1)
        if math.gcd(k, l) == 1
    }
    bounds = []
    for n in HK_RANGE:
        with tr.span("counting.hk_lower_bound"):
            bounds.append((n, hk_lower_bound(n)))
    with tr.span("bench.check"):
        chk.expect("|U_{2,5}| enumerated", sizes[0], U25_SIZE)
        chk.expect("|U_{2,5}| formula", f25, U25_SIZE)
        chk.expect("|U_{5,2}| enumerated", sizes[1], U52_SIZE)
        chk.expect("|U_{5,2}| formula", f52, U52_SIZE)
        chk.expect("gap n=7 enumerated", sizes[0] - sizes[1], GAP_N7)
        chk.expect("gap n=7 formula", gap, GAP_N7)
        lines = "".join(f"{k} {l} {v}\n" for (k, l), v in sorted(table.items()))
        chk.expect("formula sweep sha256", _sha256(lines), SWEEP_SHA256)
        for n, bound in bounds:
            best = max(table[k, n - k] for k in range(2, n - 1) if math.gcd(k, n - k) == 1)
            chk.expect(f"lower bound n={n}", best >= bound, True)


# many-small: thousands of calls on small inputs, where per-call overhead
# dominates and the closures are tiny.

def _chain(tail: int, loop: int, extra: list[int], finals) -> Dfa:
    # Tail-and-loop chain on states 1..tail+loop, then unreachable states.
    m = tail + loop
    row = tuple(range(2, m + 1)) + (tail + 1,) + tuple(extra)
    return Dfa(m + len(extra), ("a",), (row,), 1, frozenset(finals))


def setup_many_small(seed: int, tr):
    rng = _rng("many-small", seed)
    base = _parse(tr, _ukl_dfa(tr, 2, 3, rng))
    single = []
    for n in range(2, UNARY_MAX_N + 1):
        # n states recognizing the single word a^(n-2)
        single.append(_parse(tr, relabel(_chain(n - 1, 1, [], {n - 1}), _shuffled(rng, n))))
    samples = []
    for n in range(2, UNARY_MAX_N + 1):
        for _ in range(UNARY_SAMPLES):
            tail = rng.randrange(n)
            loop = rng.randint(1, n - tail)
            size = tail + loop + rng.randint(0, 2)
            extra = [rng.randint(1, size) for _ in range(size - tail - loop)]
            finals = {q for q in range(1, size + 1) if rng.random() < 0.5}
            samples.append(_parse(tr, relabel(_chain(tail, loop, extra, finals), _shuffled(rng, size))))
    return base, single, samples


def run_many_small(inputs, tr, chk: Checker) -> None:
    base, single, samples = inputs
    _start_final_variation(base, tr, chk)
    # Each unary input goes through `regroot unary-root --minimize -o` and is
    # compared with the generic construction, as in the unary suite.
    for d in single:
        sc = _minimize(tr, d).n
        fast = _unary_root(tr, d)
        out = _minimize(tr, fast)
        _serialize(tr, out)
        root_sc = out.n
        agree = _equivalent(tr, fast, _root(tr, d).dfa)
        with tr.span("bench.check"):
            chk.expect(f"single word n={d.n} sc", sc, d.n)
            chk.expect(f"single word n={d.n} root sc", root_sc, d.n)
            chk.expect(f"single word n={d.n} constructions agree", agree, True)
    for i, d in enumerate(samples):
        fast = _unary_root(tr, d)
        out = _minimize(tr, fast)
        _serialize(tr, out)
        agree = _equivalent(tr, fast, _root(tr, d).dfa)
        smaller = out.n <= _minimize(tr, d).n
        with tr.span("bench.check"):
            chk.expect(f"unary sample {i} constructions agree", agree, True)
            chk.expect(f"unary sample {i} root no larger", smaller, True)


def _start_final_variation(base: Dfa, tr, chk: Checker) -> None:
    m = _closure(tr, base)
    ra = _root(tr, base, m)
    baseline = _minimize(tr, ra.dfa).n
    formula = _formula(tr, 2, 3)
    elements = [ra.element_of(s) for s in range(1, len(m) + 1)]
    n = base.n
    sizes = []
    for z0 in range(1, n + 1):
        for bits in range(2**n):
            finals = frozenset(q for q in range(1, n + 1) if bits >> (q - 1) & 1)
            # One span per loop: a span per call would cost more than the call.
            with tr.span("root.accepting_transformation", calls=len(elements)) as c:
                marked = frozenset(
                    s + 1
                    for s, f in enumerate(elements)
                    if accepting_transformation(f, z0, finals)
                )
            c["accepted"] = len(marked)
            d = Dfa(len(m), ra.dfa.alphabet, ra.dfa.delta, 1, marked)
            sizes.append(_minimize(tr, d).n)
    with tr.span("bench.check"):
        chk.expect("|U_{2,3}| formula", formula, len(m))
        chk.expect("U_{2,3} baseline minimal root states", baseline, U23_ROOT_STATES)
        for i, sc in enumerate(sizes):
            chk.expect(f"assignment {i} within baseline", sc <= baseline, True)
        chk.expect("start/final size profile", dict(sorted(Counter(sizes).items())), U23_VARIATION_PROFILE)


WORKLOADS = {
    "root-u34": (setup_root_u34, run_root_u34),
    "closure-gap-n7": (setup_closure_gap, run_closure_gap),
    "many-small": (setup_many_small, run_many_small),
}
