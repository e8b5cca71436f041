"""Check the oracle's reduction sequences against its full search, and
count its steps by rule.

Runs, in process, ``--rounds`` ``corpus`` rounds (3 by default) from the
seed ``--seed`` (7 by default) and every ``nary`` case that the oracle
checks (n up to ``ORACLE_MAX_N``, both sides, both presets) through the
verdicts of ``bench/workloads.py``, recording each term the verdicts hand
to ``oracle.normalise``.

- For the first ``corpus`` round and the ``nary`` cases, each recorded term
  is reduced twice: by ``oracle.first_steps``, which skips the subterms
  found normal earlier in the same run, and by
  ``specs.first_steps_reference`` (``tests/specs.py``), which takes the
  first of every reduct at each step.  The two step sequences, each step's
  term, rule and position, must be equal.
- The oracle's steps by rule over all the rounds are printed.  They count
  work, so they do not depend on the speed of the machine and can be
  compared between two commits.

Exit status: 0 if every sequence agrees with the reference and every
verdict passes its checks, 1 otherwise.

``tests/golden/oracle_steps.txt`` holds its output at the default seed and
rounds, and CI compares a run with it by ``cmp``: a change that alters the
steps the oracle takes regenerates that file on purpose.

    python3 tools/oracle_reference.py [--seed N] [--rounds N]
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

from cattkernel import oracle as O  # noqa: E402

import specs as SP  # noqa: E402
import workloads as W  # noqa: E402

RULES = ("dr", "ecr", "prune", "insert", "cell")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args(argv)

    cases = [
        (n, side, preset)
        for n in W.NARY_SIZES
        if n <= W.ORACLE_MAX_N
        for side in ("left", "right")
        for preset in ("su", "sua")
    ]
    checked: list = []  # (term, rule set) to compare with the reference
    steps: dict = {"corpus": Counter(), "nary": Counter()}
    normalise = O.normalise

    def recorded(t, rules):
        nf, trace = normalise(t, rules)
        steps[workload].update(trace)
        if check:
            checked.append((t, rules))
        return nf, trace

    O.normalise = recorded
    try:
        rng = random.Random(args.seed)
        workload = "corpus"
        for r in range(args.rounds):
            check = r == 0
            for inp in W.corpus_round(rng):
                W.corpus_verdict(inp)
        workload, check = "nary", True
        for case in cases:
            W.nary_verdict(case)
    except W.CheckFailed as e:
        print(f"verdict failed: {e}")
        return 1
    finally:
        O.normalise = normalise

    status = 0
    for t, rules in checked:
        if list(O.first_steps(t, rules)) != SP.first_steps_reference(t, rules):
            print(f"{rules.value}: first_steps differs from the full search on {t!r}")
            status = 1
    if status == 0:
        print(
            f"first_steps equals the full search on {len(checked)} terms "
            f"(one corpus round and {len(cases)} nary cases, seed {args.seed})"
        )
    print(f"oracle steps by rule (seed {args.seed}):")
    for name, what in [("corpus", f"{args.rounds} rounds"), ("nary", f"{len(cases)} cases")]:
        counts = steps[name]
        parts = "  ".join(f"{rule} {counts[rule]}" for rule in RULES)
        print(f"  {name} ({what}): {parts}  total {sum(counts.values())}")
    return status


if __name__ == "__main__":
    sys.exit(main())
