"""The workload process: one client sending requests in a closed loop.

Started fresh by ``run.py`` with a JSON config as its only argument.  It
sends one warm-up request, prints ``ready`` and waits for ``run`` (or
``exit``) on stdin.  It then runs whole corpus blocks, one request at a
time, and streams one JSON record per request to the records file; the
last line of that file is a summary.

Only the standard library and ``multichow.cli`` are imported before
``ready``, so that set-up time is interpreter start, package import and the
warm-up request.
"""

import hashlib
import io
import itertools
import json
import os
import resource
import subprocess
import sys
import time


def _key(request):
    text = "\0".join(request["argv"]) + "\0" + request["stdin"]
    return hashlib.sha1(text.encode()).hexdigest()


class InProcess:
    """Requests as ``cli.main(argv)`` calls with stdin/stdout swapped for
    in-memory buffers; latency runs from the call until it returns with its
    output rendered."""

    def __init__(self, main):
        self.main = main

    def call(self, argv, stdin, tracer=None, request_id=None):
        out, err = io.StringIO(), io.StringIO()
        saved = sys.stdin, sys.stdout, sys.stderr
        sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin), out, err
        fn = self.main
        if tracer is not None:
            tracer.request = request_id
            fn = lambda a: tracer.span("request", self.main, a)  # noqa: E731
        start = time.perf_counter()
        try:
            code = fn(argv)
        except Exception as exc:  # noqa: BLE001 - a crash is a measured outcome
            code = f"exception {type(exc).__name__}"
            err.write(repr(exc))
        finally:
            elapsed = time.perf_counter() - start
            sys.stdin, sys.stdout, sys.stderr = saved
        return code, out.getvalue(), err.getvalue(), elapsed

    def peak_rss_kb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _blocks(path):
    """Corpus blocks in order, starting over when the file runs out."""
    while True:
        with open(path, encoding="utf-8") as handle:
            for index, line in enumerate(handle):
                yield index, json.loads(line)


class Recorder:
    def __init__(self, handle):
        self.handle = handle
        self.digests = {}
        self.count = 0

    def add(self, phase, seq, block, index, request, code, stdout, stderr, elapsed):
        key = _key(request)
        digest = hashlib.sha1(stdout.encode()).hexdigest()
        first = key not in self.digests
        if first:
            self.digests[key] = (digest, block, index)
        record = {
            "phase": phase,
            "seq": seq,
            "block": block,
            "index": index,
            "code": code,
            "ms": elapsed * 1000.0,
            "stdout": stdout if first else None,
            "same": None if first else self.digests[key][0] == digest,
            "stderr": stderr,
        }
        self.handle.write(json.dumps(record) + "\n")
        self.count += 1


def _run_block(runner, recorder, phase, seq, block_index, block, tracer=None):
    """Send one block's requests in order; returns its wall span."""
    start = time.perf_counter()
    for index, request in enumerate(block):
        request_id = f"{phase}:{block_index}:{index}"
        code, out, err, elapsed = runner.call(
            request["argv"], request["stdin"], tracer, request_id
        )
        recorder.add(phase, seq, block_index, index, request, code, out, err, elapsed)
    return time.perf_counter() - start


def _run_blocks(runner, cfg, recorder, blocks=None):
    """Whole blocks until ``blocks`` are done, or else until the deadline
    has passed with at least ``min_requests`` sent; returns the wall span of
    each block."""
    deadline = time.perf_counter() + cfg["seconds"]
    spans = []
    sent = 0
    for seq, (block_index, block) in enumerate(_blocks(cfg["corpus"])):
        if blocks is not None:
            if seq >= blocks:
                break
        elif time.perf_counter() >= deadline and sent >= cfg["min_requests"]:
            break
        spans.append(_run_block(runner, recorder, "timed", seq, block_index, block))
        sent += len(block)
    return spans


def _median_spawn_ms(cmd, root, reps):
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        subprocess.run(
            cmd, cwd=root, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL
        )
        times.append((time.perf_counter() - start) * 1000.0)
    times.sort()
    return times[len(times) // 2]


def _traced(runner, cfg, recorder):
    """A fixed number of blocks, each untraced and then traced: per-layer
    metrics, tracing overhead, import time and k-scaling."""
    sys.path.insert(0, cfg["bench_dir"])
    import kscale
    import tracer as tracing

    # Each block runs untraced and then traced, back to back, so that both
    # passes see the same host conditions.
    plain_span = traced_span = 0.0
    tracer = tracing.Tracer()
    subcommands = {}
    blocks = itertools.islice(_blocks(cfg["corpus"]), cfg["trace_blocks"])
    for seq, (block_index, block) in enumerate(blocks):
        plain_span += _run_block(runner, recorder, "plain", seq, block_index, block)
        tracer.install()
        try:
            traced_span += _run_block(
                runner, recorder, "traced", seq, block_index, block, tracer
            )
        finally:
            tracer.uninstall()
        for index, request in enumerate(block):
            subcommands[f"traced:{block_index}:{index}"] = request["sub"]
    _write_spans(cfg["spans"], tracer.spans)
    metrics, by_subcommand = tracing.aggregate(tracer.spans, tracer.counts, subcommands)
    metrics["trace.overhead_ratio"] = traced_span / plain_span
    metrics["trace.requests"] = recorder.count // 2
    bare = _median_spawn_ms([sys.executable, "-c", "pass"], cfg["root"], 7)
    imported = _median_spawn_ms([sys.executable, "-c", "import multichow.cli"], cfg["root"], 7)
    metrics["cli.import_ms"] = imported - bare
    metrics.update(kscale.measure(cfg["kscale_cameras"]))
    return {
        "per_layer": metrics,
        "calls_by_subcommand": by_subcommand,
        "plain_span_s": plain_span,
        "traced_span_s": traced_span,
    }


def _write_spans(path, spans):
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")


def main():
    cfg = json.loads(sys.argv[1])
    import multichow.cli as cli

    src = os.path.realpath(cfg["pythonpath"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        sys.stderr.write(f"multichow imported from {cli.__file__}, not {src}\n")
        return 2
    runner = InProcess(cli.main)
    code, _, err, _ = runner.call(cfg["warmup"]["argv"], cfg["warmup"]["stdin"])
    if code != 0:
        sys.stderr.write(f"warm-up request failed with {code}: {err}\n")
        return 2
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "run":
        return 0
    with open(cfg["records"], "w", encoding="utf-8") as handle:
        recorder = Recorder(handle)
        if cfg["trace"]:
            summary = _traced(runner, cfg, recorder)
        else:
            spans = _run_blocks(runner, cfg, recorder, cfg["blocks"])
            summary = {"block_spans_s": spans, "peak_rss_kb": runner.peak_rss_kb()}
        handle.write(json.dumps({"summary": summary}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
