"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload corpus|nary|cli --seed N --seconds S --trace 0|1

Load is a closed loop from one client: the next verdict starts when the
previous one has been checked.  Verdicts come in rounds, each round the
same mix of inputs; a run does whole rounds for about ``--seconds``.
With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run, whose spans are written under ``.bench_out/``.  A summary goes to
standard error.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

KERNEL_IMPORT = (
    "import cattkernel.surface, cattkernel.typecheck, cattkernel.nbe,"
    " cattkernel.core, cattkernel.oracle"
)
CLI_IMPORT = "import cattkernel.cli"
SETUP_PROBES = 11
IMPORT_PROBES = 7
MIN_BEYOND_TAIL = 10


class Workload:
    def __init__(self, name, make_round, verdict, tail_pct, setup_import):
        self.name = name
        self.make_round = make_round  # rng -> list of inputs
        self.verdict = verdict  # input -> None, raises CheckFailed
        self.tail_pct = tail_pct  # the reported tail percentile
        self.setup_import = setup_import  # what a verdict needs imported


def workloads(W, env: dict) -> tuple:
    """The workloads by name, and what each ``cli`` case should print."""
    wants = {case: W.cli_expectations(case) for case in W.CLI_CASES}

    def cli_round(rng):
        cases = list(W.CLI_CASES)
        rng.shuffle(cases)
        return cases

    def cli_verdict(case):
        W.cli_verdict(case, sys.executable, env, wants[case])

    return {
        "corpus": Workload("corpus", W.corpus_round, W.corpus_verdict, 95, KERNEL_IMPORT),
        "nary": Workload("nary", W.nary_round, W.nary_verdict, 95, KERNEL_IMPORT),
        "cli": Workload("cli", cli_round, cli_verdict, 90, CLI_IMPORT),
    }, wants


# ---------------------------------------------------------------------------
# fresh-process probes


def time_to_ready(code: str, env: dict) -> float:
    """Seconds from starting a fresh interpreter until it has run ``code``."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", code + "\nprint('ready', flush=True)"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    line = proc.stdout.readline()
    ready = time.perf_counter()
    _, err = proc.communicate(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"probe failed: {err.strip()}")
    return ready - start


def median_ready(code: str, env: dict, n: int) -> float:
    return statistics.median(time_to_ready(code, env) for _ in range(n))


# ---------------------------------------------------------------------------
# the timed loop


class Phase:
    """Latencies and outcomes of a run of whole rounds."""

    def __init__(self):
        self.latencies: list = []
        self.failed = 0
        self.wrong: list = []
        self.rounds: list = []
        self.attempted = 0

    def verdict(self, wl: Workload, inp, W) -> None:
        start = time.perf_counter()
        try:
            wl.verdict(inp)
        except W.CheckFailed as e:
            self.wrong.append(str(e))
        except Exception as e:  # the program failed on this input
            self.failed += 1
            print(f"verdict failed: {type(e).__name__}: {e}", file=sys.stderr)
        self.latencies.append(time.perf_counter() - start)

    def enough(self, wl: Workload) -> bool:
        beyond = len(self.latencies) * (100 - wl.tail_pct) / 100
        return len(self.latencies) >= 40 and beyond >= MIN_BEYOND_TAIL


def run_rounds(wl, W, rng, seconds, hook=None, rounds=None, tail=True) -> Phase:
    """Whole rounds for about ``seconds``, or the given rounds.  A round
    starts only if it should end by then at the pace so far, unless the
    run has too few verdicts for its tail."""
    ph = Phase()
    start = time.perf_counter()
    i = 0
    while True:
        if rounds is not None:
            if i == len(rounds):
                break
            batch = rounds[i]
        else:
            elapsed = time.perf_counter() - start
            pace = elapsed / i if i else 0.0
            if elapsed + pace > seconds and (ph.enough(wl) or not tail):
                break
            batch = wl.make_round(rng)
        ph.rounds.append(batch)
        for inp in batch:
            if hook is None:
                ph.verdict(wl, inp, W)
            else:
                hook(ph, inp)
        i += 1
    return ph


def percentile(values: list, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


# ---------------------------------------------------------------------------
# runs


def untraced(wl, W, args, env) -> tuple:
    # set-up probes spread over the run, so that they see the machine as
    # the verdicts do; a probe runs between two verdicts and is not timed
    # as part of either
    probes: list = []
    start = time.perf_counter()

    def hook(ph, inp):
        ph.verdict(wl, inp, W)
        due = 1 + (SETUP_PROBES - 1) * (time.perf_counter() - start) / args.seconds
        if len(probes) < min(SETUP_PROBES, due):
            probes.append(time_to_ready(wl.setup_import, env))

    ph = run_rounds(wl, W, random.Random(args.seed), args.seconds, hook=hook)
    while len(probes) < SETUP_PROBES:
        probes.append(time_to_ready(wl.setup_import, env))
    setup = statistics.median(probes)
    lat = ph.latencies
    ph.attempted = len(lat)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss / 1024
    metrics = {
        "setup_s": (setup, "s"),
        "verdicts_per_s": (len(lat) / sum(lat), "1/s"),
        "verdict_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "verdict_tail_ms": (percentile(lat, wl.tail_pct) * 1000, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(
        f"{wl.name}: {len(lat)} verdicts in {len(ph.rounds)} rounds,"
        f" tail is p{wl.tail_pct}",
        file=sys.stderr,
    )
    return ph, metrics


def traced(wl, W, args, env, wants) -> tuple:
    import spans as TR

    # the same rounds, untraced and then traced, give the tracing overhead
    half = max(1, args.seconds // 2)
    plain = run_rounds(wl, W, random.Random(args.seed), half, tail=False)
    tracer = TR.Tracer()

    def hook(ph, inp):
        vid = len(ph.latencies)
        tracer.verdict = vid
        idx = tracer.begin("verdict")
        ph.verdict(wl, inp, W)
        tracer.end(idx)
        if wl.name == "cli":  # the same run in process, for the layer split
            idx = tracer.begin("cli.run")
            W.cli_run_in_process(inp, wants[inp])
            tracer.end(idx)
        tracer.verdict = None

    tracer.install()
    try:
        ph = run_rounds(wl, W, None, 0, hook=hook, rounds=plain.rounds)
        counts = dict(tracer.counts)  # the verdicts' counts, without the probes
        if wl.name != "cli":
            for case in W.CLI_CASES:
                idx = tracer.begin("cli.run")
                W.cli_run_in_process(case, wants[case])
                tracer.end(idx)
    finally:
        tracer.uninstall()
    ph.failed += plain.failed
    ph.wrong += plain.wrong
    ph.attempted = len(plain.latencies) + len(ph.latencies)

    bare = median_ready("pass", env, IMPORT_PROBES)
    with_cli = median_ready(CLI_IMPORT, env, IMPORT_PROBES)

    n = len(ph.latencies)
    selfs = tracer.self_times()
    metrics = {}
    for layer in TR.LAYERS:
        metrics[layer + "_ms"] = (selfs[layer] * 1000 / n, "ms")
    for key in ("typecheck.nf_calls", "nbe.eval_tm_calls", "trees.height_calls", "oracle.steps"):
        metrics[key] = (counts.get(key, 0) / n, "count")
    for rule in TR.RULES:
        metrics[f"oracle.steps_{rule}"] = (counts.get(f"oracle.steps_{rule}", 0) / n, "count")
    runs = [s[2] - s[1] for s in tracer.spans if s[0] == "cli.run"]
    metrics["cli.import_ms"] = ((with_cli - bare) * 1000, "ms")
    metrics["cli.run_ms"] = (statistics.mean(runs) * 1000, "ms")
    overhead = sum(ph.latencies) / sum(plain.latencies) - 1
    metrics["trace.overhead_pct"] = (overhead * 100, "%")

    total = sum(selfs.values())
    split = ", ".join(
        f"{k} {v / total:.0%}" for k, v in sorted(selfs.items(), key=lambda kv: -kv[1])
    )
    print(f"{wl.name}: {n} traced verdicts; self time {split}", file=sys.stderr)
    print(f"{wl.name}: tracing overhead {overhead:+.1%}", file=sys.stderr)
    tracer.dump(
        OUT / f"trace-{wl.name}-seed{args.seed}.json",
        {
            "workload": wl.name,
            "seed": args.seed,
            "untraced_s": sum(plain.latencies),
            "traced_s": sum(ph.latencies),
            "self_ms_per_verdict": {k: v * 1000 / n for k, v in selfs.items()},
        },
    )
    return ph, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "nary", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "cattkernel" / "__init__.py").is_file():
        print(f"error: no cattkernel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as W

    env = W.cli_env(SRC)
    table, wants = workloads(W, env)
    wl = table[args.workload]
    if args.trace:
        ph, metrics = traced(wl, W, args, env, wants)
    else:
        ph, metrics = untraced(wl, W, args, env)
    for msg in ph.wrong[:5]:
        print(f"wrong answer: {msg}", file=sys.stderr)
    result = {
        "correct": not ph.wrong,
        "attempted": ph.attempted,
        "failed": ph.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not ph.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
