"""Size sweep: every fa layer over growing inputs, with a time budget per case.

    python3 perfbench/sweep.py [--budget 2] > BENCH_x.json

Regenerates the ROADMAP baseline rows with one command. Families are
two_branch on (abb)^k (reject) and (aba)^k (accept), seeded random ndfas of
20/100/300 states on a 200-symbol word, the EMP-cycle machines, a seeded
complete dfa, and the CLI as processes. A size whose predicted time (the
previous size scaled by (n'/n)^3, the build's growth today) exceeds the
budget is recorded as "skipped: over budget" and not run; anything that
still runs past three budgets is cut off by a timer and recorded the same
way. Not a gated workload: prints one JSON record (and a table on stderr).
"""

from __future__ import annotations

import argparse
import json
import random
import signal
import statistics
import sys
import time

import workloads
from run import (BASELINE_PROCESSES, CLI_MAIN, ROOT, DeadlineExceeded, deadline, loglog_slope,
                 on_alarm, provenance, python_process)

OVER = "skipped: over budget"
LIBRARY_LAYERS = ("check_word", "apply", "show_transitions", "build_computation_graph",
                  "cgraph_to_dot", "cgraph_summary")


def measure(fn, budget):
    """(median seconds, repeats), repeating quick calls; None when past 3 budgets."""
    times = []
    try:
        with deadline(3 * budget):
            while len(times) < 5 and sum(times) < 0.25:
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
    except DeadlineExceeded:
        return None
    return statistics.median(times), len(times)


def word_families(fa):
    two_branch = fa.parse_machine_file(str(ROOT / workloads.SHIPPED[0]))
    emp_cycle = fa.make_ndfa(["P", "Q"], ["a"], "P", ["P"],
                             [("P", fa.EMP, "Q"), ("Q", fa.EMP, "P"), ("Q", "a", "Q")])
    rng = random.Random(1)
    dfa = fa.parse_machine_text(json.dumps(workloads.random_dfa_doc(rng, 12)))
    dfa_word = lambda n: tuple(rng.choice("ab") for _ in range(n))  # noqa: E731
    sizes = [30, 75, 150, 300, 600, 1200, 3000]
    return {
        "two_branch_reject": (two_branch, lambda n: tuple("abb" * (n // 3)), sizes),
        "two_branch_accept": (two_branch, lambda n: tuple("aba" * (n // 3)), sizes),
        "emp_cycle": (emp_cycle, lambda n: ("a",) * n, [10, 100, 1000, 3000]),
        "dfa12": (dfa, dfa_word, [100, 300, 1000, 3000]),
    }


def sweep_words(fa, name, machine, make_word, sizes, budget, rows):
    last = {}  # layer -> (size, seconds) of the last size that ran, or OVER
    for n in sizes:
        word = make_word(n)
        cg = None
        calls = {
            "check_word": lambda: fa.check_word(machine, word),
            "apply": lambda: fa.apply(machine, word),
            "show_transitions": lambda: fa.show_transitions(machine, word),
            "build_computation_graph": lambda: fa.build_computation_graph(machine, word),
            "cgraph_to_dot": lambda: fa.cgraph_to_dot(cg),
            "cgraph_summary": lambda: fa.cgraph_summary(cg),
        }
        for layer in LIBRARY_LAYERS:
            row = {"family": name, "size": n, "layer": layer}
            rows.append(row)
            prev = last.get(layer)
            over = prev == OVER or (prev is not None and prev[1] * (n / prev[0]) ** 3 > budget)
            over = over or (layer.startswith("cgraph_") and cg is None)
            got = None if over else measure(calls[layer], budget)
            if got is None:
                row["result"] = last[layer] = OVER
                continue
            row["median_s"], row["repeats"] = got
            last[layer] = (n, got[0])
            if layer == "build_computation_graph":
                cg = fa.build_computation_graph(machine, word)


def sweep_random(fa, budget, rows):
    """Seeded dense ndfas (6 rules drawn per state, duplicates dropped) on a 200-symbol word."""
    rng = random.Random(300)
    over = set()
    for states in (20, 100, 300):
        doc = workloads.random_ndfa_doc(rng, states, rules_per_state=6, final_share=0)
        text = json.dumps(doc)
        machine = fa.parse_machine_text(text)
        word = tuple(rng.choice("abc") for _ in range(200))
        for layer, fn in (
            ("parse_machine_text", lambda: fa.parse_machine_text(text)),
            ("make_ndfa", lambda: fa.make_ndfa(doc["states"], doc["sigma"], doc["start"],
                                               doc["finals"], doc["rules"])),
            ("apply", lambda: fa.apply(machine, word)),
            ("build_computation_graph", lambda: fa.build_computation_graph(machine, word)),
        ):
            row = {"family": "random_ndfa", "size": states, "rules": len(machine.rules), "layer": layer}
            rows.append(row)
            got = None if layer in over else measure(fn, budget)
            if got is None or got[0] > budget:
                over.add(layer)
            if got is None:
                row["result"] = OVER
            else:
                row["median_s"], row["repeats"] = got


def sweep_cli(budget, rows):
    """Whole processes: bare interpreter, import fa, and the README's fa apply."""
    cases = {
        **BASELINE_PROCESSES,
        "fa_apply_demo": ["-c", CLI_MAIN, "apply", workloads.SHIPPED[0], "a", "b", "a", "a", "b"],
    }
    for layer, argv in cases.items():
        times = [python_process(argv, timeout=3 * budget + 10)[1] for _ in range(6)]
        rows.append({"family": "cli", "size": 1, "layer": layer,
                     "median_s": statistics.median(times[1:]), "repeats": len(times) - 1})


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--budget", type=float, default=2.0, help="seconds per case (default 2)")
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))
    import fa

    signal.signal(signal.SIGALRM, on_alarm)
    started = time.perf_counter()
    rows: list = []
    for name, (machine, make_word, sizes) in word_families(fa).items():
        sweep_words(fa, name, machine, make_word, sizes, args.budget, rows)
    sweep_random(fa, args.budget, rows)
    sweep_cli(args.budget, rows)

    exponents = {}
    for key in sorted({(r["family"], r["layer"]) for r in rows}):
        pts = [(r["size"], r["median_s"]) for r in rows
               if (r["family"], r["layer"]) == key and "median_s" in r and r["size"] >= 2]
        if len({n for n, _ in pts}) >= 2:
            exponents[f"{key[0]}/{key[1]}"] = loglog_slope(pts)
    for r in rows:
        shown = r.get("result") or f"{r['median_s'] * 1e3:10.3f} ms x{r['repeats']}"
        print(f"{r['family']:28} {r['size']:6} {r['layer']:24} {shown}", file=sys.stderr)
    for key, slope in exponents.items():
        print(f"exponent {key:52} {slope:6.2f}", file=sys.stderr)
    record = {"provenance": provenance({"sweep_budget_s": args.budget}, time.perf_counter() - started),
              "cases": rows, "exponents": exponents}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
