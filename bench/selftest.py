"""Show that every output check of the benchmark rejects a wrong answer.

    python3 bench/selftest.py

Each case takes a correct answer, confirms that its check accepts it, then
corrupts one part and confirms that the check rejects it.  Exits 1 if a
check accepts a corrupted answer or rejects a correct one.
"""

from __future__ import annotations

import copy
import dataclasses
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as W  # noqa: E402

failures = []


def expect_reject(label: str, check, *args) -> None:
    try:
        check(*args)
    except W.CheckFailed as e:
        print(f"rejected  {label}: {e}")
        return
    failures.append(label)
    print(f"ACCEPTED  {label}")


def expect_accept(label: str, check, *args) -> None:
    try:
        check(*args)
    except W.CheckFailed as e:
        failures.append(label)
        print(f"REJECTED  {label} (a correct answer): {e}")


def corpus() -> None:
    # a unit to remove and a bracketing to flatten, so SU and SUA both reduce
    inp = ("c0{c1}c2{c3}c4{c5}c6", "comp<{comp<{c1}{c3}>}{id(c4)}{c5}>")
    routes = W.corpus_verdict(inp)
    expect_accept("corpus", W.check_corpus, routes)
    by = {r.preset: r for r in routes}

    def corrupt(preset, **fields):
        out = [copy.copy(r) for r in routes]
        for r in out:
            if r.preset == preset:
                for k, v in fields.items():
                    setattr(r, k, v)
        return out

    su, weak = by["su"], by["weak"]
    expect_reject("corpus: NbE differs from the oracle", W.check_corpus,
                  corrupt("sua", flat_nf=su.flat_nf))
    expect_reject("corpus: the oracle reduces the normal form", W.check_corpus,
                  corrupt("su", flat_nf=su.flat_term, oracle_nf=su.flat_term))
    expect_reject("corpus: renormalising changes the normal form", W.check_corpus,
                  corrupt("su", renf=weak.nf))
    expect_reject("corpus: weak flatten(nf(t)) != flatten(t)", W.check_corpus,
                  corrupt("weak", flat_nf=su.flat_nf))
    expect_reject("corpus: empty printed form", W.check_corpus,
                  corrupt("sua", shown=""))


def nary() -> None:
    sua = W.nary_verdict((5, "left", "sua"))
    su = W.nary_verdict((5, "left", "su"))
    su_right = W.nary_verdict((5, "right", "su"))
    expect_accept("nary", W.check_nary, sua)
    expect_reject("nary: sua size is not 1", W.check_nary, dataclasses.replace(sua, size=2))
    expect_reject("nary: sua differs from the unbiased composite", W.check_nary,
                  dataclasses.replace(sua, nf=su.nf, size=1))
    expect_reject("nary: su size is not n-1", W.check_nary, dataclasses.replace(su, size=3))
    expect_reject("nary: su left equals right", W.check_nary,
                  dataclasses.replace(su, nf=su_right.nf))
    expect_reject("nary: NbE differs from the oracle", W.check_nary,
                  dataclasses.replace(su, flat_nf=sua.flat_nf))
    expect_reject("nary: empty printed form", W.check_nary, dataclasses.replace(su, shown=""))


def cli() -> None:
    for case in W.CLI_CASES:
        want = W.cli_expectations(case)
        out = W.cli_run_in_process(case, want)
        name = f"cli {case.path} {' '.join(case.flags)}"
        expect_accept(name, W.check_cli, case, want, 0, out, "")
        expect_reject(f"{name}: exit code 1", W.check_cli, case, want, 1, out, "")
        expect_reject(f"{name}: stderr", W.check_cli, case, want, 0, out, "error: x\n")
        lines = out.splitlines()
        first_def = next(i for i, ln in enumerate(lines) if ln.startswith("defined "))
        dropped = "\n".join(lines[:first_def] + lines[first_def + 1 :])
        expect_reject(f"{name}: a missing definition", W.check_cli, case, want, 0, dropped, "")
        expect_reject(f"{name}: a missing assertion", W.check_cli, case, want, 0,
                      out.replace("assertion holds\n", "", 1), "")
    unital, assoc = W.CLI_CASES[3], W.CLI_CASES[4]
    for case, old, new, nth, label in (
        (unital, "size: 19", "size: 18", 0, "size of the exchange cell"),
        (unital, "normal form: id<", "normal form: comp<", 0, "triangle is not an identity"),
        (assoc, "normal form: id<", "normal form: comp<", 1, "pentagon is not an identity"),
        (assoc, "normal form: comp<{f}{g}{h}>", "normal form: comp<{f}{comp<{g}{h}>}>", 0,
         "bracketing not flattened"),
    ):
        want = W.cli_expectations(case)
        parts = W.cli_run_in_process(case, want).split(old)
        wrong = old.join(parts[: nth + 1]) + new + old.join(parts[nth + 1 :])
        expect_reject(f"cli: {label}", W.check_cli, case, want, 0, wrong, "")
    # the oracle check alone, with the stated forms not compared as text
    loose = dataclasses.replace(assoc, expect=())
    want = W.cli_expectations(loose)
    out = W.cli_run_in_process(loose, want)
    wrong = out.replace("normal form: comp<{f}{g}{h}>", "normal form: comp<{comp<{f}{g}>}{h}>", 1)
    expect_reject("cli: printed form is not the oracle's", W.check_cli, loose, want, 0, wrong, "")


if __name__ == "__main__":
    corpus()
    nary()
    cli()
    if failures:
        print(f"{len(failures)} check(s) misjudged: {failures}")
        sys.exit(1)
    print("every check rejects its corrupted answers")
