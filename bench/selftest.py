"""Self-test of the benchmark harness.

  python3 bench/selftest.py

Run from the repository root. For each workload it checks that
  1. the same seed gives identical inputs and an identical stdout digest,
     also when one of the runs probes host speed,
  2. a corrupted output fails its check and counts toward error_rate,
  3. traced and untraced runs print identical stdout,
  4. per-layer self times sum to no more than the traced wall time.
It exits 0 when every check holds and prints one line per check.
"""

from __future__ import annotations

import argparse
import shutil
import sys

import run


def corrupt(text: str) -> str:
    """Change the first digit of an output."""
    for i, ch in enumerate(text):
        if ch.isdigit():
            return text[:i] + str((int(ch) + 1) % 10) + text[i + 1:]
    return text + "x"


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            problems.append(what)

    for workload in workloads.WORKLOADS:
        args = argparse.Namespace(workload=workload, seed=7)
        workdir = run.WORK / f"selftest-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)

        same = all(
            workloads.make_round(workload, "run", 7, r) == workloads.make_round(workload, "run", 7, r)
            for r in range(2)
        )
        other = workloads.make_round(workload, "run", 8, 0) != workloads.make_round(workload, "run", 7, 0)
        warm = workloads.make_round(workload, "warmup", 7, 0) != workloads.make_round(workload, "run", 7, 0)
        expect(same and other and warm, f"{workload}: seed fixes the inputs; seeds and warm-up differ")

        _, first = run.run_worker(args, workdir, "a", ["--rounds", "1"])
        probed, second = run.run_worker(args, workdir, "b", ["--rounds", "1", "--probe"])
        fail_a, digest_a, _, ops = run.check_records(workloads, args, first)
        fail_b, digest_b, _, _ = run.check_records(workloads, args, second)
        expect(not fail_a and not fail_b, f"{workload}: every op passes its check ({fail_a + fail_b})")
        expect(digest_a == digest_b, f"{workload}: same seed, same stdout digest, with and without probes")
        expect(
            probed["probes"] >= 2 * len(second) and all(rec["lat"] > 0 and rec["pace"] > 0 for rec in second),
            f"{workload}: {probed['probes']} host-speed probes around and inside {len(second)} ops",
        )

        caught = 0
        checked = [i for i, (op, rec) in enumerate(zip(ops, first)) if op["exit"] == 0]
        for i in checked:
            bad = [dict(rec) for rec in first]
            bad[i]["out"] = corrupt(bad[i]["out"])
            failures, _, _, _ = run.check_records(workloads, args, bad)
            caught += len(failures) == 1
        expect(caught == len(checked), f"{workload}: {caught}/{len(checked)} corrupted outputs fail their check")

        plain, plain_records = run.run_worker(args, workdir, "plain", ["--rounds", "1"])
        traced, traced_records = run.run_worker(
            args, workdir, "traced", ["--rounds", "1", "--trace-out", str(workdir / "spans.jsonl")]
        )
        _, plain_digest, _, _ = run.check_records(workloads, args, plain_records)
        _, traced_digest, _, _ = run.check_records(workloads, args, traced_records)
        expect(plain_digest == traced_digest, f"{workload}: traced and untraced stdout are identical")
        self_sum = sum(s["self_s"] for s in traced["layers"].values())
        expect(
            0 < self_sum <= traced["wall_s"],
            f"{workload}: layer self time {self_sum:.4f} s <= traced wall {traced['wall_s']:.4f} s",
        )
        shutil.rmtree(workdir)

    print("selftest passed" if not problems else f"selftest FAILED: {len(problems)} checks")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
