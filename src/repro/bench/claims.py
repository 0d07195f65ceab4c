"""The paper's claims as one checked table over the committed artifacts.

``python -m repro.bench.claims [DIR]`` evaluates :data:`CLAIMS` on the
``BENCH_*.json`` artifacts in DIR (default ``.``), prints each claim with
its series, checks and where its slack comes from, and exits 1 if one
fails or a row it reads is missing.  It runs no solver: ``python -m
repro.bench --check-against DIR`` shows that the code reproduces every
committed row.  A claim reads only columns that check compares, never a
derived ``/`` column or a host timing, and names each row it reads by
identity.  A growth check holds while quantity / bound spreads (max / min)
less than its slack, which is at most the spread a curve of the next larger
bound shows over the same sizes, so such a curve fails it.  A trend check
holds while a ratio ends below where it starts.

Not checked here: the abstract's O(n) memory cells (the simulator counts
no cells), Theorem 5.1's processor count as such (Figure 3's row schedules
the charged totals by Brent's principle), the arbitrary CRCW model beyond
cycle equivalence (E10), and the correctness lemmas (2.1, 3.3, 3.5, 4.1,
4.2) one by one, which the unit tests and E8's agreement cover.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..analysis.complexity import BOUNDS, bound_ratio_series, fit_growth
from ..pram import ArbitraryWinner
from .artifacts import _BATCH_OUTCOME_KEYS, _VOLATILE_KEYS, artifact_filename, load_artifact

Rows = Dict[str, List[Mapping[str, object]]]

E1_NS = (256, 1024, 4096, 16384)  # E1 and E2
SCALING_NS = (16384, 65536, 262144, 1048576)
E3_NS = (512, 2048, 8192)  # E3 and E4
E5_NS = (128, 512, 2048, 8192)  # k = 4..256 cycles of length 32
E6_NS = (1024, 4096, 16384)  # E6 and E9


class MissingRow(LookupError):
    """A row a claim reads is not in the artifacts."""


Check = NamedTuple("Check", [("text", str), ("holds", bool)])
#: A claim: the paper statement, the rows it reads, where its slack comes
#: from, and the function that turns the rows into (series, checks).
Claim = NamedTuple("Claim", [("statement", str), ("reads", str), ("why", str),
                             ("evaluate", Callable[[Rows], Tuple[str, List[Check]]])])


CLAIMS: List[Claim] = []


def _claim(statement: str, reads: str, why: str):
    def register(evaluate):
        CLAIMS.append(Claim(statement, reads, why, evaluate))
        return evaluate
    return register


def _value(rows: Rows, experiment: str, column: str, **identity) -> object:
    """`column` of the one row of `experiment` whose columns equal `identity`."""
    if "/" in column or column in _VOLATILE_KEYS | _BATCH_OUTCOME_KEYS:
        raise ValueError(f"claims read only columns the check compares, not {column!r}")
    found = [r for r in rows.get(experiment, ())
             if all(r.get(k) == v for k, v in identity.items())]
    if len(found) != 1 or column not in found[0]:
        raise MissingRow(f"{len(found)} {experiment} rows with {column!r} at {identity}")
    return found[0][column]


def _series(rows: Rows, experiment: str, column: str, ns, **identity) -> list:
    return [_value(rows, experiment, column, n=n, **identity) for n in ns]


def _fmt(label: str, ns: Sequence[int], values: Sequence[float]) -> str:
    sizes = [f"2^{n.bit_length() - 1}" if n & (n - 1) == 0 else str(n) for n in ns]
    return f"{label}: " + ", ".join(f"{s} {v:.4g}" for s, v in zip(sizes, values))


def _spread(ns, bound: str, over: str) -> float:
    """The spread of bound(n) / over(n) across `ns`."""
    return fit_growth(ns, BOUNDS[bound](np.asarray(ns, dtype=float)), over).ratio_spread


def _growth(ns, values, bound: str, next_bound: str, label: str,
            slack: Optional[float] = None) -> Tuple[str, List[Check]]:
    spread = fit_growth(ns, values, bound).ratio_spread
    next_spread = _spread(ns, next_bound, bound)
    limit = next_spread if slack is None else slack
    label = f"{label} / ({bound})" if " " in bound else f"{label} / {bound}"
    return (_fmt(label, ns, bound_ratio_series(ns, values, bound)),
            [Check(f"{label} spreads {spread:.3f} < slack {limit:.3f} <= "
                   f"{next_spread:.3f}, the {next_bound} spread",
                   spread < limit <= next_spread)])


def _trend(ns, over, under, label: str) -> Tuple[str, List[Check]]:
    ratios = [a / b for a, b in zip(over, under)]
    return (_fmt(label, ns, ratios),
            [Check(f"last / first {ratios[-1] / ratios[0]:.3f} < 1, where a curve of "
                   "the compared class would stay", ratios[-1] < ratios[0])])


@_claim("Theorem 5.1: O(log n) time on the arbitrary CRCW PRAM",
        "jaja-ryu time, E2 at n = 2^8..2^14 and scaling at 2^16..2^20",
        "the log^2 n spread; replaces 4x over 2^8..2^14, where log^2 n spreads 1.75x")
def _thm_time(rows):
    time = (_series(rows, "e2", "time", E1_NS, algorithm="jaja-ryu")
            + _series(rows, "scaling", "time", SCALING_NS[1:], algorithm="jaja-ryu"))
    return _growth(E1_NS + SCALING_NS[1:], time, "log n", "log^2 n", "time")


@_claim("Theorem 5.1: O(n log log n) operations",
        "jaja-ryu charged_work, scaling at n = 2^14..2^20",
        "1.25, the replaced check's last/first factor, under the n log n spread")
def _thm_work(rows):
    work = _series(rows, "scaling", "charged_work", SCALING_NS, algorithm="jaja-ryu")
    return _growth(SCALING_NS, work, "n log log n", "n log n", "charged_work", slack=1.25)


@_claim("Introduction: fewer operations than O(n log n) Galley-Iliopoulos doubling",
        "E1 at n = 2^8..2^14: jaja-ryu charged_work, galley-iliopoulos work",
        "were jaja-ryu Theta(n log n) too, the ratio would stay flat (was allowed)")
def _vs_doubling(rows):
    return _trend(E1_NS, _series(rows, "e1", "charged_work", E1_NS, algorithm="jaja-ryu"),
                  _series(rows, "e1", "work", E1_NS, algorithm="galley-iliopoulos"),
                  "jaja-ryu charged_work / galley-iliopoulos work")


@_claim("Introduction: the Srikant-style CREW algorithm takes Theta(log^2 n) time",
        "srikant time, E2 at n = 2^8..2^14",
        "the spread of one more log factor (14/8); replaces 4x")
def _srikant(rows):
    time = _series(rows, "e2", "time", E1_NS, algorithm="srikant")
    return _growth(E1_NS, time, "log^2 n", "log^3 n", "time")


@_claim("Introduction: the sequential Paige-Tarjan-Bonic algorithm is linear",
        "paige-tarjan-bonic work, E1 at n = 2^8..2^14",
        "the n log log n spread, the next bound up from n; new")
def _linear(rows):
    work = _series(rows, "e1", "work", E1_NS, algorithm="paige-tarjan-bonic")
    return _growth(E1_NS, work, "n", "n log log n", "work")


@_claim("Lemma 3.7: efficient m.s.p. in O(n log log n) operations, simple in O(n log n)",
        "E3 binary at n = 512..8192: efficient-msp charged_work, simple-msp work",
        "were efficient m.s.p. Theta(n log n) too, the ratio would stay flat (was allowed)")
def _lemma_3_7(rows):
    def work(column, algorithm):
        return _series(rows, "e3", column, E3_NS, algorithm=algorithm, family="binary")
    return _trend(E3_NS, work("charged_work", "efficient-msp"), work("work", "simple-msp"),
                  "efficient charged_work / simple work")


@_claim("Lemma 3.8: strings sort with O(n log log n) operations, retired once ranked",
        "E4 skewed at n = 8192: jaja-ryu-sort work, doubling-sort work",
        "doubling never retires unit strings; the replaced check, unchanged")
def _lemma_3_8(rows):
    ours, doubling = (_value(rows, "e4", "work", n=8192, algorithm=a, family="skewed")
                      for a in ("jaja-ryu-sort", "doubling-sort"))
    return (f"work at 2^13: jaja-ryu-sort {ours:,}, doubling-sort {doubling:,}",
            [Check(f"jaja-ryu-sort / doubling-sort {ours / doubling:.3f} < 1, where "
                   "equal work would sit", ours < doubling)])


@_claim("Lemma 3.11: the BB table classes cycles in O(n) operations, all pairs in O(nk)",
        "E5 at n = 128..8192 (k = 4..256 cycles of 32): bb-doubling, all-pairs work",
        "bb-doubling: the n log log n spread (replaces 4x); all-pairs: the "
        "replaced check's 4, above the n log n spread")
def _lemma_3_11(rows):
    series, checks = _growth(E5_NS, _series(rows, "e5", "work", E5_NS, algorithm="bb-doubling"),
                             "n", "n log log n", "bb-doubling work")
    pairs = np.divide(_series(rows, "e5", "work", E5_NS, algorithm="all-pairs"), E5_NS)
    grows, nlogn = pairs[-1] / pairs[0], _spread(E5_NS, "n log n", "n")
    return (series + "; " + _fmt("all-pairs work / n", E5_NS, pairs),
            checks + [Check(f"all-pairs work / n grows {grows:.1f}x > 4 > {nlogn:.3f}, "
                            "the n log n spread", grows > 4 > nlogn)])


@_claim("Lemma 3.6: an m.s.p. round keeps <= 2/3 of the string: O(log log n) rounds",
        "E6, all rows: random_small_alphabet and binary at n = 2^10..2^14",
        "none (replaces +0.05 and +3): a segment of L >= 2 symbols becomes "
        "ceil(L/2) <= 2L/3 pairs, so floor(log1.5 log2 n) + 1 rounds reach "
        "n / log2 n and one more the integer threshold where the recursion stops")
def _lemma_3_6(rows):
    cells = [(f, n) for f in ("random_small_alphabet", "binary") for n in E6_NS]
    shrink = max(_value(rows, "e6", "max_shrink_factor", n=n, family=f) for f, n in cells)
    rounds = [_value(rows, "e6", "rounds", n=n, family=f) for f, n in cells]
    bounds = [math.log(math.log2(n), 1.5) + 2 for _, n in cells]
    return (f"max_shrink_factor {shrink}, rounds {min(rounds)}..{max(rounds)} over "
            f"{len(cells)} rows",
            [Check(f"max_shrink_factor {shrink} <= 0.6667 < 1, a round that does "
                   "not shrink", shrink <= 0.6667),
             Check(f"rounds <= log1.5 log2 n + 2 on every row ({max(rounds)} against "
                   f">= {min(bounds):.2f}) < log2 n", all(
                       r <= b < math.log2(n) for r, b, (_, n) in zip(rounds, bounds, cells)))])


@_claim("Figure 3: on p processors (Brent) the time falls as p grows",
        "jaja-ryu brent_time, E7 at n = 8192, p = 1, 4, ..., 4096",
        "the replaced check, plus never rising")
def _figure_3(rows):
    ps = [4 ** i for i in range(7)]
    time = [_value(rows, "e7", "brent_time", processors=p, algorithm="jaja-ryu") for p in ps]
    return (_fmt("brent_time by p", ps, time),
            [Check(f"p = 4096 over p = 1 {time[-1] / time[0]:.5f} < 1 (no speedup), "
                   "never rising, every value >= 1", time[-1] < time[0] and min(time) >= 1
                   and all(b <= a for a, b in zip(time, time[1:])))])


@_claim("Table 5: every algorithm computes the coarsest partition",
        "E8: agreement_rate, agreeing, trials", "exact")
def _table_5(rows):
    agreeing, trials, rate = (_value(rows, "e8", c)
                              for c in ("agreeing", "trials", "agreement_rate"))
    return (f"{agreeing} of {trials} instances agree with the sequential oracle",
            [Check(f"agreement_rate {rate} = 1", rate == 1 and agreeing == trials)])


@_claim("E9 ablation: the sort cost model moves charged work only; the incurred "
        "column covers integer sorts only (the residual forest and _circuit_ids "
        "charge published figures under either model)",
        "E9 at n = 2^10..2^14: charged_work under charged, work under both",
        "the n log n spread; replaces 2.5x on charged / n, where n log n spreads 1.4x")
def _e9(rows):
    series, checks = _growth(E6_NS, _series(rows, "e9", "charged_work", E6_NS,
                                            cost_model="charged"),
                             "n log log n", "n log n", "charged_work (charged)")
    work = [_series(rows, "e9", "work", E6_NS, cost_model=m) for m in ("charged", "incurred")]
    return series, checks + [Check("work equal under both cost models", work[0] == work[1])]


@_claim("E10 ablation: cycle equivalence does not depend on which CRCW writer wins",
        "E10: matches_reference under each winner policy", "exact")
def _e10(rows):
    matches = {w.value: _value(rows, "e10", "matches_reference", winner_policy=w.value)
               for w in ArbitraryWinner}
    return (f"matches_reference {matches}",
            [Check("every winner policy matches", all(v is True for v in matches.values()))])


@_claim("The bounds are read up to n = 2^20",
        "scaling: jaja-ryu rows at n = 2^14, 2^16, 2^18, 2^20", "exact")
def _reaches_2_20(rows):
    work = _series(rows, "scaling", "charged_work", SCALING_NS, algorithm="jaja-ryu")
    return (_fmt("jaja-ryu charged_work", SCALING_NS, work),
            [Check("one row at each size, each with charged_work > 0", min(work) > 0)])


def load_rows(directory: str) -> Rows:
    """The rows of every readable artifact in `directory`, by experiment."""
    rows: Rows = {}
    for experiment in [f"e{i}" for i in range(1, 11)] + ["scaling"]:
        path = os.path.join(directory, artifact_filename(experiment))
        try:
            cells = load_artifact(path)["cells"]
        except (OSError, ValueError) as err:
            print(f"[repro.bench.claims] cannot read {path}: {err}", file=sys.stderr)
            continue
        rows[experiment] = [row for cell in cells for row in cell["rows"]]
    return rows


def evaluate(rows: Rows) -> List[Tuple[Claim, List[Tuple[str, str]], bool]]:
    """Each claim with its printed fields and whether it holds."""
    verdicts = []
    for claim in CLAIMS:
        fields = [("reads", claim.reads)]
        try:
            series, checks = claim.evaluate(rows)
            fields += [("series", series)] + [
                ("check" if c.holds else "FAILED", c.text) for c in checks]
        except MissingRow as err:
            checks = [Check(str(err), False)]
            fields.append(("missing", str(err)))
        verdicts.append((claim, fields + [("slack", claim.why)],
                         all(c.holds for c in checks)))
    return verdicts


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.claims",
        description="Check the paper's claims on the BENCH_*.json artifacts in DIR.")
    parser.add_argument("dir", nargs="?", default=".", metavar="DIR",
                        help="directory holding the artifacts (default: .)")
    verdicts = evaluate(load_rows(parser.parse_args(argv).dir))
    for claim, fields, holds in verdicts:
        print(f"{'HOLDS' if holds else 'FAILS'}  {claim.statement}")
        print("\n".join(f"       {label:<8}{text}" for label, text in fields) + "\n")
    failed = [claim.statement for claim, _, holds in verdicts if not holds]
    print(f"[repro.bench.claims] {len(verdicts) - len(failed)} of {len(verdicts)} "
          "claims hold" + "".join(f"\n  failed: {s}" for s in failed))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
