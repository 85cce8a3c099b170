"""Closed-loop client: runs one workload's rounds in this process.

One client, one thread: each op starts when the previous one has returned.
CLI ops call ``nabla_lmo.cli.main`` in-process with stdout and stderr
captured; library ops call the public API. The worker writes one JSON line
per op (round, index, exit code, latency, probe pace, stdout, stderr) to the
spool file, and a summary with the measured wall time, peak RSS and the
host-speed probes at the end. Checking happens in the parent, after this
process has exited.

Usage (from bench/run.py):
  worker.py --workload W --seed N --src DIR --workdir DIR --spool FILE
            [--seconds S --min-rounds R | --rounds R] [--trace-out FILE | --probe]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout


def run_op(main, run_library, op, sources, speed):
    """Execute one op; the latency covers only the call itself, less the
    host-speed probes that ran inside it (see hostspeed.py)."""
    for name, text in op["files"].items():
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(text if text is not None else sources[op["source"]])
    out, err = io.StringIO(), io.StringIO()
    result = {"exit": None, "exc": None}

    def call():
        try:
            if op["argv"] is not None:
                result["exit"] = main(op["argv"])
            else:
                print(run_library(op))
                result["exit"] = 0
        except SystemExit as e:
            result["exit"] = e.code
        except Exception:
            result["exc"] = traceback.format_exc()

    with redirect_stdout(out), redirect_stderr(err):
        lat, pace = speed.measure(call)
    return {"exit": result["exit"], "lat": lat, "pace": pace, "out": out.getvalue(),
            "err": err.getvalue(), "exc": result["exc"]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spool", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--min-rounds", type=int, default=1)
    ap.add_argument("--rounds", type=int, default=None)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--probe", action="store_true", help="sample host speed (see hostspeed.py)")
    args = ap.parse_args()
    if args.probe and args.trace_out:
        ap.error("--probe would add its time to the spans of --trace-out")

    sys.path.insert(0, args.src)
    import workloads
    from hostspeed import INTERVAL_S, HostSpeed
    from nabla_lmo import cli

    os.chdir(args.workdir)
    done = [0]  # ops measured so far, for the tracer's op index

    speed = HostSpeed(INTERVAL_S if args.probe else None)

    def play(stream, rnd, tracer=None):
        ops = workloads.make_round(args.workload, stream, args.seed, rnd)
        sources: dict[int, str] = {}
        records = []
        spent = speed.spent
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.op = done[0] + i
            rec = run_op(cli.main, workloads.run_library, op, sources, speed)
            sources[i] = rec["out"]
            records.append(rec)
        return time.perf_counter() - t0 - (speed.spent - spent), records

    play("warmup", 0)
    speed = HostSpeed(speed.interval)  # play() reads this binding: only measured rounds' probes count

    tracer = None
    if args.trace_out:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    wall = 0.0
    rnd = 0
    speed.start()
    try:
        with open(args.spool, "w", encoding="utf-8") as spool:
            while True:
                if args.rounds is not None:
                    if rnd >= args.rounds:
                        break
                elif wall >= args.seconds and rnd >= args.min_rounds:
                    break
                elapsed, records = play("run", rnd, tracer)
                wall += elapsed
                for i, rec in enumerate(records):
                    spool.write(json.dumps({"r": rnd, "i": i, **rec}) + "\n")
                done[0] += len(records)
                rnd += 1
    finally:
        speed.stop()
        if tracer is not None:
            tracer.remove()

    summary = {
        "rounds": rnd,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **speed.summary(),
    }
    if tracer is not None:
        summary["layers"] = tracer.aggregate()
        tracer.write(args.trace_out)
    with open(args.spool + ".summary", "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
