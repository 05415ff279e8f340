"""Time two multichow source trees against each other in one process.

Usage (from the repository root)::

    python3 tools/ab_inprocess.py BASE_SRC NEW_SRC --workload combinatorics --seed 1

``BASE_SRC`` and ``NEW_SRC`` are directories that each hold a ``multichow``
package, such as ``src`` of two checkouts.  Each is imported under its own
package name, so both live in this process at once.  The first ``--blocks``
blocks of the benchmark's seeded corpus (``perfbench/corpus.py``) are sent
through each tree's ``cli.main`` in every round, as the benchmark's worker
sends them, and the two trees take turns going first.  Every request must
give the same (exit code, stdout, stderr) from both trees, or the script
exits 1 naming the first request that differs.

One line per round gives both trees' time for the blocks and the speedup,
the base time over the new time; then one line per subcommand gives the
median over the rounds of its own speedup, so a change to one subcommand
shows apart from the others; one line per tree gives the request-latency
p50 and p90 of a round, computed as the benchmark computes them, as the
median over the rounds, so a tail claim can be sized in one process; the
last line gives the median speedup and the number of rounds the new tree
won.  Alternating in one process
puts both trees under the same host load, which separate processes on a
shared machine do not see.  Only the standard library is used.
"""

import argparse
import importlib
import importlib.util
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import corpus  # noqa: E402
from worker import InProcess  # noqa: E402


def load_cli(src: str, name: str):
    """The ``cli`` module of the ``multichow`` package under ``src``,
    imported as the package ``name``."""
    init = os.path.join(os.path.abspath(src), "multichow", "__init__.py")
    if not os.path.isfile(init):
        raise SystemExit(f"no multichow package under {src}")
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[os.path.dirname(init)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.cli")


def run_blocks(runner: InProcess, blocks) -> tuple[dict, list, list]:
    """The summed request time of ``blocks`` for each subcommand, every
    request's outcome and every request's latency in seconds."""
    seconds, outcomes, latencies = {}, [], []
    for block in blocks:
        for request in block:
            code, out, err, elapsed = runner.call(request["argv"], request["stdin"])
            command = request["argv"][0]
            seconds[command] = seconds.get(command, 0.0) + elapsed
            outcomes.append((code, out, err))
            latencies.append(elapsed)
    return seconds, outcomes, latencies


def percentile_ms(latencies, p: int) -> float:
    """The ``p``-th percentile of ``latencies`` in ms, computed as the
    benchmark computes ``latency_p50_ms`` and ``latency_p90_ms``."""
    return 1000 * statistics.quantiles(latencies, n=100, method="inclusive")[p - 1]


def first_difference(blocks, base: list, new: list) -> str | None:
    requests = [request for block in blocks for request in block]
    for request, a, b in zip(requests, base, new):
        if a != b:
            return f"{request['argv']} on {request['stdin'][:200]}: {a!r} against {b!r}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="directory holding the base multichow package")
    parser.add_argument("new", help="directory holding the new multichow package")
    parser.add_argument("--workload", choices=sorted(corpus.WORKLOADS), default="combinatorics")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--blocks", type=int, default=10)
    parser.add_argument("--rounds", type=int, default=20)
    args = parser.parse_args(argv)

    runners = {
        "base": InProcess(load_cli(args.base, "multichow_base").main),
        "new": InProcess(load_cli(args.new, "multichow_new").main),
    }
    # The corpus writes its huge expected answers with no digit limit; the
    # requests then run under the interpreter's limit, as in the worker.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    gen = corpus.WORKLOADS[args.workload](args.seed)
    blocks = [gen.block(index) for index in range(args.blocks)]
    sys.set_int_max_str_digits(limit)
    requests = sum(map(len, blocks))
    # One untimed pass each fills the caches and checks the outputs.
    _, base, _ = run_blocks(runners["base"], blocks)
    _, new, _ = run_blocks(runners["new"], blocks)
    if (difference := first_difference(blocks, base, new)) is not None:
        print(f"outputs differ: {difference}")
        return 1
    print(f"{args.workload}, seed {args.seed}: {args.blocks} blocks, {requests} requests a round")
    speedups, by_command = [], {}
    tails = {side: {50: [], 90: []} for side in runners}
    for index in range(args.rounds):
        order = ("base", "new") if index % 2 == 0 else ("new", "base")
        seconds = {}
        for side in order:
            seconds[side], outcomes, latencies = run_blocks(runners[side], blocks)
            if outcomes != base:
                print(f"outputs differ: {first_difference(blocks, base, outcomes)}")
                return 1
            for p, values in tails[side].items():
                values.append(percentile_ms(latencies, p))
        for command, spent in seconds["base"].items():
            by_command.setdefault(command, []).append(spent / seconds["new"][command])
        totals = {side: sum(seconds[side].values()) for side in seconds}
        speedups.append(totals["base"] / totals["new"])
        print(
            f"round {index + 1:2d}: base {totals['base']:.3f} s, new {totals['new']:.3f} s, "
            f"speedup {speedups[-1]:.3f}"
        )
    for command, ratios in sorted(by_command.items()):
        print(f"  {command}: median speedup {statistics.median(ratios):.3f}")
    for side, values in tails.items():
        p50, p90 = (statistics.median(values[p]) for p in (50, 90))
        print(f"{side} latency: p50 {p50:.3f} ms, p90 {p90:.3f} ms (median over rounds)")
    wins = sum(s > 1 for s in speedups)
    print(
        f"median speedup {statistics.median(speedups):.3f}, "
        f"new faster in {wins} of {len(speedups)} rounds; every output identical"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
