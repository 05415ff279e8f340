"""The multichow benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload combinatorics --seed 1 --seconds 55 --trace 0

Workloads (see ``corpus.py``): ``combinatorics`` and ``geometry``.  The run
generates the seeded corpus, starts the workload's process several times to
time set-up, then drives the corpus through ``multichow.cli.main`` in that
process with one client in a closed loop (each request starts when the
previous one has returned) for about ``--seconds``, in whole blocks.
Every answer is checked against the reference in ``exact.py``.

``--trace 0`` reports the end-to-end metrics, over the run's fastest blocks
(see :func:`fastest_blocks`); ``--trace 1`` runs a fixed number of blocks,
each untraced and then traced, and reports the per-layer metrics, the
tracing overhead, the import time and the k-scaling timings.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable summary.
Full results, the records of every request and the spans of a traced run
are written under ``.bench_out/`` in the repository root.

``--smoke`` runs one tiny block, as the benchmark's own tests do.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import checks  # noqa: E402
import corpus  # noqa: E402

END_TO_END = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "polymatroid.validate.calls",
    "polymatroid.validate.self_ms",
    "polymatroid.support_from_projections.calls",
    "polymatroid.support_from_projections.self_ms",
    "polymatroid.projections_from_support.calls",
    "polymatroid.projections_from_support.self_ms",
    "polymatroid.enumerate_beta.self_ms",
    "polymatroid.criteria.self_ms",
    "polymatroid.support_yield",
    "multidegree.construct.calls",
    "multidegree.construct.ms",
    "multidegree.construct.self_ms",
    "multidegree.rank_function.calls",
    "multidegree.criteria.self_ms",
    "multiview.tensor.calls",
    "multiview.epsilon.ms_per_trial",
    "multiview.intersection.ms_per_trial",
    "multiview.sz.ms_per_trial",
    "multiview.center.calls",
    "multiview.is_generic.calls",
    "multiview.self_ms",
    "multiview.oracle.trials",
    "multiview.oracle.nonfinite",
    "linalg.rref.calls",
    "linalg.rref.self_ms",
    "linalg.det.calls",
    "linalg.det.self_ms",
    "linalg.nullspace.calls",
    "linalg.nullspace.self_ms",
    "linalg.rank.calls",
    "linalg.rank.self_ms",
    "linalg.mat_vec.calls",
    "linalg.self_ms",
    "cli.run.self_ms",
    "cli.render.ms",
    "cli.import_ms",
    "trace.overhead_ratio",
    "multidegree.construct_ms.k4",
    "multidegree.construct_ms.k6",
    "multidegree.construct_ms.k8",
    "multidegree.construct_ms.k10",
    "polymatroid.enumerate_beta_ms.k4",
    "polymatroid.enumerate_beta_ms.k6",
    "polymatroid.enumerate_beta_ms.k8",
    "polymatroid.enumerate_beta_ms.k10",
    "multiview.tensor_ms.k2",
    "multiview.tensor_ms.k3",
    "multiview.tensor_ms.k4",
)

# Set-up is timed this many times before the timed loop and this many
# after it, so that the samples straddle the run; the median is reported.
SETUPS_BEFORE = 6
SETUPS_AFTER = 5
# At least this many timed requests per run, and in the blocks a run reports
# on, so that ten lie beyond p90.
MIN_REQUESTS = 100
# Share of a run's requests, in its fastest blocks, that its metrics cover.
# A tenth rather than more: on a busy host the slow stretches cover most of
# many runs, and a larger share reaches into them.
FASTEST_SHARE = 0.1
# Blocks generated per run.  A run that gets through all of them starts
# over, and the requests it repeats count in its repeat share.
CORPUS_BLOCKS = {"combinatorics": 30, "geometry": 300}
# Blocks in each pass of a traced run, per second of --seconds.  The count
# is fixed rather than timed so that a traced run's counts repeat exactly
# for a given seed and --seconds.
TRACE_BLOCKS_PER_S = {"combinatorics": 0.1, "geometry": 0.6}
WORKER_TIMEOUT_S = 170


def unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith((".calls", ".trials", ".nonfinite")):
        return "count"
    if name.endswith(("_ratio", "_yield")):
        return "ratio"
    return "ms"


def _percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def fastest_blocks(records, block_spans):
    """The run's fastest blocks: those with the shortest wall span, enough
    of them to hold FASTEST_SHARE of the run's requests and at least
    MIN_REQUESTS.  Returns their sequence numbers, latencies and total span.

    Every block holds the same request mix.  Other work on a shared host
    only ever slows a block down, and here it does so for tens of seconds
    at a time, so the fastest blocks are the steadier estimate of the
    program's own cost.
    """
    by_seq = {}
    for rec in records:
        by_seq.setdefault(rec["seq"], []).append(rec["ms"])
    target = max(MIN_REQUESTS, FASTEST_SHARE * len(records))
    chosen, latencies, span = [], [], 0.0
    for seq in sorted(range(len(block_spans)), key=block_spans.__getitem__):
        if len(latencies) >= target:
            break
        chosen.append(seq)
        latencies += by_seq[seq]
        span += block_spans[seq]
    return sorted(chosen), latencies, span


def _write_corpus(path, blocks):
    with open(path, "w", encoding="utf-8") as handle:
        for block in blocks:
            handle.write(json.dumps(block) + "\n")


def _start_worker(cfg, env):
    """Spawn the workload process and wait for ``ready``; returns the
    process and the set-up time in seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH_DIR, "worker.py"), json.dumps(cfg)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process failed to start (exit {proc.returncode})")
    return proc, elapsed


def _finish(proc, command):
    try:
        proc.stdin.write(command + "\n")
        proc.stdin.close()
        code = proc.wait(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        raise RuntimeError(f"workload process exited with {code}")


def _read_records(path):
    records = []
    summary = None
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            item = json.loads(line)
            if "summary" in item:
                summary = item["summary"]
            else:
                records.append(item)
    if summary is None:
        raise RuntimeError("workload process wrote no summary")
    return records, summary


def _judge(records, blocks):
    """Attach a failure reason (or None) to every record."""
    first = {}
    for rec in records:
        request = blocks[rec["block"]][rec["index"]]
        key = (tuple(request["argv"]), request["stdin"])
        if rec["stdout"] is not None:
            reason = checks.verdict(request["check"], rec["code"], rec["stdout"], rec["stderr"])
            first[key] = (rec["code"], reason)
            rec["reason"] = reason
        else:
            code, reason = first[key]
            if not rec["same"]:
                reason = "repeated request gave different stdout"
            elif rec["code"] != code:
                reason = f"repeated request exited {rec['code']}, first time {code}"
            rec["reason"] = reason
        rec["request"] = request


def _descriptors(records, workload):
    seen = set()
    repeats = 0
    per_sub = {}
    ks = []
    for rec in records:
        request = rec["request"]
        key = (tuple(request["argv"]), request["stdin"])
        repeats += key in seen
        seen.add(key)
        per_sub[request["sub"]] = per_sub.get(request["sub"], 0) + 1
        ks.append(request["k"])
    total = len(records)
    return {
        "why": corpus.WORKLOADS[workload].__doc__.split("\n\n")[0].replace("\n    ", " "),
        "loop": "closed",
        "clients": 1,
        "requests": total,
        "requests_per_subcommand": dict(sorted(per_sub.items())),
        "k_range": [min(ks), max(ks)],
        "repeat_share": repeats / total,
        "malformed_share": sum(r["request"]["malformed"] for r in records) / total,
        "known_defect_share": sum(bool(r["request"]["defect"]) for r in records) / total,
    }


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "multichow", "cli.py")):
        raise SystemExit(f"no multichow sources under {ROOT}/src; nothing to benchmark")
    sys.set_int_max_str_digits(0)
    name = f"{args.workload}-s{args.seed}-t{args.trace}" + ("-smoke" if args.smoke else "")
    out_dir = os.path.join(ROOT, ".bench_out", name)
    os.makedirs(out_dir, exist_ok=True)

    gen = corpus.WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    src = os.path.join(ROOT, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cfg = {
        "workload": args.workload,
        "root": ROOT,
        "bench_dir": BENCH_DIR,
        "pythonpath": src,
        "corpus": os.path.join(out_dir, "corpus.jsonl"),
        "records": os.path.join(out_dir, "records.jsonl"),
        "spans": os.path.join(out_dir, "spans.jsonl"),
        "seconds": args.seconds,
        "min_requests": 1 if args.smoke else MIN_REQUESTS,
        "blocks": 1 if args.smoke else None,
        "trace": bool(args.trace),
        "trace_blocks": 1
        if args.smoke
        else max(1, round(args.seconds * TRACE_BLOCKS_PER_S[args.workload])),
        "warmup": gen.warmup,
        "kscale_cameras": corpus.kscale_cameras(args.seed),
    }
    # Compile the package's bytecode once, as an installed package would be.
    subprocess.run(
        [sys.executable, "-c", "import multichow.cli"], env=env, cwd=ROOT, check=True
    )
    setups = []
    for i in range(SETUPS_BEFORE + (0 if args.smoke else SETUPS_AFTER)):
        proc, elapsed = _start_worker(cfg, env)
        setups.append(elapsed)
        if i != SETUPS_BEFORE - 1:
            _finish(proc, "exit")
            continue
        # The corpus is built only once the measured process is running: a
        # process's peak RSS starts from its parent's size at fork time.
        started = time.perf_counter()
        count = 1 if args.smoke else CORPUS_BLOCKS[args.workload]
        blocks = [gen.block(n) for n in range(count)]
        _write_corpus(cfg["corpus"], blocks)
        generate_s = time.perf_counter() - started
        _finish(proc, "run")

    records, summary = _read_records(cfg["records"])
    _judge(records, blocks)
    failures = [r for r in records if r["reason"] is not None]
    unexpected = [r for r in failures if not r["request"]["defect"]]
    timed = [r for r in records if r["phase"] == "timed"]
    if args.trace:
        per_layer = summary["per_layer"]
        metrics = {m: per_layer[m] for m in PER_LAYER}
    else:
        chosen, latencies, span = fastest_blocks(timed, summary["block_spans_s"])
        metrics = {
            "latency_p50_ms": _percentile(latencies, 50),
            "latency_p90_ms": _percentile(latencies, 90),
            "throughput_rps": len(latencies) / span,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": summary["peak_rss_kb"] / 1024.0,
        }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {m: {"value": v, "unit": unit(m)} for m, v in metrics.items()},
        "failed_ratio": len(failures) / len(records),
        "known_defect_failures": len(failures) - len(unexpected),
        "samples": summary["per_layer"]["trace.requests"] if args.trace else len(latencies),
        "timed_requests": len(timed),
        "setup_samples_s": setups,
        "corpus_generation_s": generate_s,
        "descriptors": _descriptors(records, args.workload),
        "failures": [
            {
                "subcommand": r["request"]["sub"],
                "defect": r["request"]["defect"],
                "reason": r["reason"],
                "block": r["block"],
                "index": r["index"],
                "stderr_tail": r["stderr"][-300:],
            }
            for r in failures[:50]
        ],
    }
    if args.trace:
        result["calls_by_subcommand"] = summary["calls_by_subcommand"]
    else:
        result["block_spans_s"] = summary["block_spans_s"]
        result["reported_blocks"] = chosen
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2)

    for m, v in metrics.items():
        print(f"{args.workload} {m} = {v:.6g} {unit(m)}")
    print(
        f"{args.workload} failed_ratio = {result['failed_ratio']:.6g} "
        f"({len(failures)} of {len(records)}; {result['known_defect_failures']} on "
        f"known-defect inputs; samples {result['samples']})"
    )
    for reason in sorted({r["reason"] for r in unexpected}):
        print(f"{args.workload} unexpected failure: {reason}")
    return {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": result["metrics"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
