"""Benchmark of the nabla-lmo calculator: one seeded workload per run.

  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It imports the calculator from ./src and
writes its scratch files under ./.bench_work. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it list the same metrics, and more, for people.

--trace 0 reports the end-to-end metrics: a closed loop of one client runs
whole rounds of the workload for at least S seconds in a child process
(which also gives peak RSS), and fresh interpreters time set-up.
--trace 1 reports per-layer metrics: the same rounds run untraced in one
child and traced in another, and spans give calls, self and total time per
layer function, per round. See bench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from hostspeed import REFERENCE_PROBE_S

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
#: Fresh-interpreter launches per run for ``setup_s``; the median is reported.
SETUP_LAUNCHES = 7
#: Every child process must have ended this long after the run started.
RUN_DEADLINE_S = 170
STARTED = time.monotonic()

SETUP_CODE = """\
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from hostspeed import HostSpeed
speed = HostSpeed()
speed.start()
speed.probe()
try:
    from nabla_lmo import cli
    code = cli.main(sys.argv[4:])
finally:
    speed.probe()
    speed.stop()
    with open(sys.argv[3], "w", encoding="utf-8") as fh:
        json.dump(speed.summary(), fh)
sys.exit(code)
"""


def time_left() -> float:
    left = RUN_DEADLINE_S - (time.monotonic() - STARTED)
    if left <= 0:
        raise RuntimeError(f"run exceeded {RUN_DEADLINE_S} s")
    return left


def record(metrics: dict, name: str, value: float, unit: str) -> None:
    metrics[name] = {"value": value, "unit": unit}


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def run_worker(args, workdir: Path, tag: str, extra: list[str]):
    spool = workdir / f"{tag}.jsonl"
    cmd = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--src", str(SRC), "--workdir", str(workdir / tag), "--spool", str(spool), *extra,
    ]
    (workdir / tag).mkdir()
    proc = subprocess.run(cmd, timeout=time_left(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {tag} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(str(spool) + ".summary", encoding="utf-8") as fh:
        summary = json.load(fh)
    with open(spool, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return summary, records


def check_records(workloads, args, records):
    """Check every op outside the timed region; return (failures, digest,
    per-round digests, ops by record)."""
    failures = []
    ops_by_round: dict[int, list] = {}
    digest = hashlib.sha256()
    round_digests = {}
    ops = []
    for rec in records:
        rnd = rec["r"]
        if rnd not in ops_by_round:
            ops_by_round[rnd] = workloads.make_round(args.workload, "run", args.seed, rnd)
            round_digests[rnd] = hashlib.sha256()
        op = ops_by_round[rnd][rec["i"]]
        ops.append(op)
        reason = workloads.check(op, rec)
        if reason is not None:
            failures.append(f"round {rnd} op {rec['i']} ({op['kind']} {op['size']}): {reason}")
        data = rec["out"].encode("utf-8")
        digest.update(data)
        round_digests[rnd].update(data)
    return failures, digest.hexdigest(), [round_digests[r].hexdigest() for r in sorted(round_digests)], ops


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def order_repeat_share(ops) -> float:
    """Share of ops with a truncation order whose order already occurred
    earlier in the run; a per-order cache could only help these."""
    seen = set()
    repeats = total = 0
    for op in ops:
        if op["order"] is None:
            continue
        total += 1
        repeats += op["order"] in seen
        seen.add(op["order"])
    return repeats / total if total else 0.0


def measure_setup(workloads, args, workdir: Path):
    """Median time of a fresh interpreter importing nabla_lmo and completing
    the workload's first op, over SETUP_LAUNCHES launches after one launch
    that fills the bytecode cache. Each launch probes host speed in the
    child and is scaled to the reference speed (see hostspeed.py); the raw
    median is returned as well."""
    op = workloads.make_round(args.workload, "run", args.seed, 0)[0]
    setup_dir = workdir / "setup"
    setup_dir.mkdir()
    for name, text in op["files"].items():
        (setup_dir / name).write_text(text, encoding="utf-8")
    probes = setup_dir / "probes.json"
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH), str(probes), *op["argv"]]
    times, raw, failures = [], [], []
    for i in range(SETUP_LAUNCHES + 1):
        probes.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=setup_dir, timeout=time_left(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - t0
        reason = workloads.check(op, {"exit": proc.returncode, "out": proc.stdout, "err": proc.stderr, "exc": None})
        if reason is not None:
            failures.append(f"set-up launch {i}: {reason}")
        if not probes.is_file():
            raise RuntimeError(f"set-up launch {i} wrote no probes: {proc.stderr.strip()[-2000:]}")
        speed = json.loads(probes.read_text(encoding="utf-8"))
        if i > 0:
            net = elapsed - speed["probe_spent_s"]
            raw.append(net)
            times.append(net * REFERENCE_PROBE_S * speed["pace"])
    return statistics.median(times), statistics.median(raw), failures, len(times) + 1


def end_to_end(workloads, args, workdir: Path, metrics):
    metric = functools.partial(record, metrics)

    summary, records = run_worker(
        args, workdir, "run",
        ["--seconds", str(args.seconds), "--min-rounds", str(workloads.MIN_ROUNDS[args.workload]), "--probe"],
    )
    ref = REFERENCE_PROBE_S
    setup_s, setup_raw, setup_failures, setup_attempts = measure_setup(workloads, args, workdir)
    failures, digest, round_digests, ops = check_records(workloads, args, records)
    scaled = [rec["lat"] * ref * rec["pace"] for rec in records]
    lat = sorted(scaled)
    raw = sorted(rec["lat"] for rec in records)
    tail_p = workloads.tail_percentile(args.workload)
    n = len(records)
    metric("ops_per_s", n / sum(scaled), "1/s")
    metric("latency_p50_ms", percentile(lat, 50) * 1e3, "ms")
    metric("latency_tail_ms", percentile(lat, tail_p) * 1e3, "ms")
    metric("setup_s", setup_s, "s")
    metric("peak_rss_mb", summary["peak_rss_mb"], "MB")

    print(f"# workload {args.workload}, seed {args.seed}: {summary['rounds']} rounds, {n} ops, "
          f"{summary['wall_s']:.3f} s measured")
    print(f"# host speed: {summary['probes']} probes, fastest {summary['probe_min_s'] * 1e6:.1f} us, median "
          f"{summary['probe_median_s'] * 1e6:.1f} us, reference {ref * 1e6:.1f} us; mean speed "
          f"{ref * summary['pace']:.3f} of the reference")
    print(f"# raw (unscaled): ops_per_s {n / summary['wall_s']:.6g} latency_p50_ms "
          f"{percentile(raw, 50) * 1e3:.6g} latency_tail_ms {percentile(raw, tail_p) * 1e3:.6g} "
          f"setup_s {setup_raw:.6g}")
    print(f"# latency_tail_ms is p{tail_p:g}, with {n - math.ceil(tail_p / 100 * n)} samples beyond it")
    all_failures = setup_failures + failures
    attempted = n + setup_attempts
    print(f"# error_rate {len(all_failures) / attempted:.6g} ({len(all_failures)}/{attempted} ops)")
    print(f"# order_repeat_share {order_repeat_share(ops):.6g}")
    print(f"# stdout_sha256 {digest} (all {summary['rounds']} rounds)")
    print(f"# stdout_sha256_round0 {round_digests[0]}")
    by_class: dict[str, list[float]] = {}
    for op, value in zip(ops, scaled):
        by_class.setdefault(f"{op['kind']} {op['size']}", []).append(value)
    for name, values in sorted(by_class.items(), key=lambda kv: -statistics.median(kv[1])):
        print(f"# class {name}: n={len(values)} median {statistics.median(values) * 1e3:.3f} ms")
    return attempted, all_failures


def per_layer(workloads, args, workdir: Path, metrics, wanted):
    from spans import LAYERS

    metric = functools.partial(record, metrics)

    half = max(args.seconds / 2, 0.001)
    plain, plain_records = run_worker(args, workdir, "plain", ["--seconds", str(half), "--min-rounds", "1"])
    rounds = plain["rounds"]
    trace_file = WORK / f"spans-{args.workload}.jsonl"  # the latest traced run of each workload
    traced, traced_records = run_worker(
        args, workdir, "traced", ["--rounds", str(rounds), "--trace-out", str(trace_file)]
    )
    failures, plain_digest, _, ops = check_records(workloads, args, plain_records)
    traced_failures, traced_digest, _, _ = check_records(workloads, args, traced_records)
    failures += [f"traced {f}" for f in traced_failures]
    if plain_digest != traced_digest:
        failures.append("traced run printed different stdout than the untraced run")

    layers = traced["layers"]
    wall = traced["wall_s"]
    metric("trace.overhead_ratio", wall / plain["wall_s"], "ratio")
    metric("trace.wall_s", wall / rounds, "s")
    for layer in LAYERS:
        self_s = sum(s["self_s"] for name, s in layers.items() if name.split(".")[0] == layer)
        metric(f"{layer}.self_s", self_s / rounds, "s")
        metric(f"{layer}.share", self_s / wall, "ratio")
    metric("workload.order_repeat_share", order_repeat_share(ops), "ratio")
    attributed = sum(s["self_s"] for s in layers.values())
    print(f"# traced {rounds} rounds ({len(traced_records)} ops): traced wall {wall:.3f} s, "
          f"untraced wall {plain['wall_s']:.3f} s, self time attributed to layers {attributed:.3f} s")
    if attributed > wall:
        failures.append(f"layer self time {attributed} exceeds traced wall {wall}")
    print(f"# stdout_sha256 untraced {plain_digest} traced {traced_digest}")
    print(f"# spans written to {trace_file.relative_to(ROOT)}")
    for name, s in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"# span {name}: calls {s['calls'] / rounds:.6g}/round, "
              f"self {s['self_s'] / rounds * 1e3:.6g} ms/round, total {s['total_s'] / rounds * 1e3:.6g} ms/round")
    for m in wanted:
        if m["name"] not in metrics:
            fn, _, stat = m["name"].rpartition(".")
            if stat not in ("calls", "self_s", "total_s"):
                raise RuntimeError(f"BENCHMARK.json names unknown per-layer metric {m['name']}")
            metric(m["name"], layers.get(fn, {}).get(stat, 0) / rounds, m["unit"])
    return len(plain_records) + len(traced_records), failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nabla_lmo" / "__init__.py").is_file():
        return fail(f"calculator sources not found under {SRC}; run from a repository checkout")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    sys.path.insert(0, str(SRC))
    import workloads
    import nabla_lmo

    if Path(nabla_lmo.__file__).resolve().parent != SRC / "nabla_lmo":
        return fail(f"imported nabla_lmo from {nabla_lmo.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    metrics: dict[str, dict] = {}
    try:
        if args.trace == 0:
            attempted, failures = end_to_end(workloads, args, workdir, metrics)
            wanted = spec["end_to_end"]
        else:
            wanted = spec["per_layer"]
            attempted, failures = per_layer(workloads, args, workdir, metrics, wanted)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        return fail(str(exc))

    for failure in failures[:20]:
        print(f"# FAILED {failure}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics not measured: {missing}")
    for m in wanted:
        print(f"{m['name']} {metrics[m['name']]['value']:.6g} {m['unit']}")
    shutil.rmtree(workdir)  # inputs and spools can be remade from the seed
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
