#!/usr/bin/env python3
"""Interleaved A/B of benchmarks/e2e: a parent revision against this tree.

    python scripts/ab_bench.py --pr 15 [--parent HEAD] [--pairs 10] [--seed 51]
                               [--workload W ...] [--trace 0|1]

Extracts ``--parent`` (``git archive``) into ``--workdir``, then per workload
runs ``--pairs`` pairs of ``benchmarks/e2e/run.py`` — one seed per pair, the
side that runs first alternating — and writes ``BENCH_pr<N>.json``: every
pair's values (``final_loss`` and the checkpoint ``digest`` among them), each
side's median and quartiles, the pairs the change won, and how many pairs
ended on the same checkpoint digest (``digest_equal_pairs``).
``--trace 1`` records the per-layer metrics of traced runs instead, in their
own section of the same file.  Both trees start without ``__pycache__``, so
neither side runs stale bytecode or skips the compile the other pays.
It measures; docs/PERFORMANCE.md has the rule.
"""
import argparse
import json
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(tree: Path, workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
                           "--trace", str(trace)], cwd=tree, capture_output=True, text=True)
    if not done.stdout.strip():  # the run died before its result line
        raise SystemExit(f"{tree.name} {workload} seed {seed}: no result\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    digest = re.search(r"digest=(\w+)", done.stdout)
    final_loss = re.search(r"^\s*final_loss\s+(\S+)", done.stdout, re.MULTILINE)
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "digest": digest and digest.group(1),
            "final_loss": float(final_loss.group(1)),
            **{name: metric["value"] for name, metric in result["metrics"].items()}}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    summary = {}
    for name, direction in better.items():
        sides = {side: [pair[side][name] for pair in pairs] for side in ("parent", "change")}
        sign = -1 if direction == "higher" else 1
        stats = {side: {"median": median(values),
                        "quartiles": quantiles(values, n=4)[::2] if len(values) > 1 else values * 2}
                 for side, values in sides.items()}
        summary[name] = {**stats,
                         "change_wins": sum(sign * c < sign * p for p, c in zip(*sides.values())),
                         "ties": sum(p == c for p, c in zip(*sides.values()))}
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, required=True)
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=51, help="pair i runs seed+i on both sides")
    parser.add_argument("--workload", action="append",
                        choices=[entry["name"] for entry in SPEC["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, default=Path(tempfile.gettempdir()) / "ab_bench")
    args = parser.parse_args()

    revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                              capture_output=True, text=True, check=True).stdout.strip()
    parent = args.workdir / f"parent-{revision[:12]}"
    if not parent.is_dir():
        parent.mkdir(parents=True)
        with subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", revision],
                              stdout=subprocess.PIPE) as archive:
            tarfile.open(fileobj=archive.stdout, mode="r|").extractall(parent)
    trees = {"parent": parent, "change": ROOT}
    for tree in trees.values():
        for cache in list(tree.rglob("__pycache__")):
            shutil.rmtree(cache, ignore_errors=True)
    section = "per_layer" if args.trace else "end_to_end"
    better = {"final_loss": "lower",
              **{entry["name"]: entry["better"] for entry in SPEC[section]}}
    out = ROOT / f"BENCH_pr{args.pr}.json"
    report = json.loads(out.read_text()) if out.is_file() else {}
    report.update(pr=args.pr, parent=revision, benchmark=" ".join(SPEC["command"]),
                  protocol="interleaved pairs, one seed per pair on both sides, side order "
                           f"alternates, --seconds {SPEC['run_seconds']}; change = working tree")
    workloads = report.setdefault(section, {})
    for workload in args.workload or [entry["name"] for entry in SPEC["workloads"]]:
        pairs = []
        for index in range(args.pairs):
            order = ["parent", "change"][::1 if index % 2 == 0 else -1]
            pair = {"seed": args.seed + index, "order": order}
            for side in order:
                pair[side] = run_once(trees[side], workload, pair["seed"], args.trace)
            pairs.append(pair)
            print(workload, json.dumps(pair), flush=True)
        workloads[workload] = {
            "pairs": pairs, "summary": summarize(pairs, better),
            # same seed, same checkpoint: how many pairs ended on the same bits
            # (a run that printed no digest never counts)
            "digest_equal_pairs": sum(pair["parent"]["digest"] is not None
                                      and pair["parent"]["digest"] == pair["change"]["digest"]
                                      for pair in pairs)}
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
