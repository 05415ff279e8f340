"""Record a full set of results for one seed into ``perfbench/results/``.

Usage (from the repository root)::

    python3 perfbench/record.py --seed 1 --seconds 55

Runs every workload untraced and traced and writes
``perfbench/results/seed-<seed>.json``: the machine, and per workload the
end-to-end metrics, the per-layer metrics, the failure count, the workload
descriptors and which subcommands called into each layer.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

import corpus
import run


def machine():
    model = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    args = parser.parse_args()
    out = {"seed": args.seed, "seconds": args.seconds, "machine": machine(), "workloads": {}}
    for workload in corpus.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            subprocess.run(
                [sys.executable, os.path.join(run.BENCH_DIR, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                check=True, cwd=run.ROOT, stdout=subprocess.DEVNULL,
            )
            name = f"{workload}-s{args.seed}-t{trace}"
            with open(os.path.join(run.ROOT, ".bench_out", name, "result.json")) as handle:
                result = json.load(handle)
            key = "per_layer" if trace else "end_to_end"
            entry[key] = {m: v["value"] for m, v in result["metrics"].items()}
            if trace:
                entry["calls_by_subcommand"] = result["calls_by_subcommand"]
            else:
                entry["failed_ratio"] = result["failed_ratio"]
                entry["known_defect_failures"] = result["known_defect_failures"]
                entry["samples"] = result["samples"]
                entry["reported_blocks"] = len(result["reported_blocks"])
                entry["descriptors"] = result["descriptors"]
        out["workloads"][workload] = entry
    os.makedirs(os.path.join(run.BENCH_DIR, "results"), exist_ok=True)
    path = os.path.join(run.BENCH_DIR, "results", f"seed-{args.seed}.json")
    with open(path, "w") as handle:
        json.dump(out, handle, indent=2)
        handle.write("\n")
    print(path)


if __name__ == "__main__":
    main()
