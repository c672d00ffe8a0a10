#!/usr/bin/env python3
"""Interleaved A/B of benchmarks/e2e: a parent revision against this tree.

    python scripts/ab_bench.py --pr 15 [--parent HEAD] [--pairs 10] [--seed 51]
                               [--workload W ...] [--trace 0|1]
    python scripts/ab_bench.py --step [--pr N] [--parent HEAD] [--pairs 200]

Extracts ``--parent`` (``git archive``) into ``--workdir``, then per workload
runs ``--pairs`` pairs of ``benchmarks/e2e/run.py`` — one seed per pair, the
side that runs first alternating — and writes ``BENCH_pr<N>.json``: every
pair's values (``final_loss`` and the checkpoint ``digest`` among them), each
side's median and quartiles, the pairs the change won, and how many pairs
ended on the same checkpoint digest (``digest_equal_pairs``).
``--trace 1`` records the per-layer metrics of traced runs instead, in their
own section of the same file.  Both trees start without ``__pycache__``, so
neither side runs stale bytecode or skips the compile the other pays.

``--step`` is the in-process twin: the parent's ``src/repro`` is imported
under an alias beside this tree's, and the two take alternating training
steps (forward, backward, clip, Adam) of the ``lstm`` and ``bert-mini``
presets on the same 32 x 34 batches with a one-thread BLAS.  It prints,
and with ``--pr`` stores in the ``step`` section, each preset's median of
the per-pair time ratios (change / parent) and whether the two models'
weights are bit-equal after the last step.
It measures; docs/PERFORMANCE.md has the rule.
"""
import argparse
import importlib
import importlib.util
import json
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from statistics import median, quantiles

import numpy as np

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


def extract(revision: str, workdir: Path) -> Path:
    """``git archive`` of ``revision`` under ``workdir`` (reused if present)."""
    tree = workdir / f"parent-{revision[:12]}"
    if not tree.is_dir():
        tree.mkdir(parents=True)
        with subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", revision],
                              stdout=subprocess.PIPE) as archive:
            tarfile.open(fileobj=archive.stdout, mode="r|").extractall(tree)
    return tree


def load_package(package: Path, alias: str) -> None:
    """Import the ``repro`` package at ``package`` as ``alias``; the package
    imports itself only relatively, so two copies live side by side."""
    spec = importlib.util.spec_from_file_location(
        alias, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)


STEP_PRESETS = ("lstm", "bert-mini")
STEP_BATCH, STEP_SEQ, STEP_VOCAB = 32, 34, 189  # the clinical vocabulary's size


def step_batches(seed: int, count: int = 8) -> list[tuple]:
    """Padded (ids, mask, labels) batches, every row at least half full."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(count):
        lengths = rng.integers(STEP_SEQ // 2, STEP_SEQ + 1, size=STEP_BATCH)
        lengths[0] = STEP_SEQ
        mask = np.arange(STEP_SEQ)[None, :] < lengths[:, None]
        ids = np.where(mask, rng.integers(1, STEP_VOCAB, size=mask.shape), 0)
        batches.append((ids, mask, rng.integers(0, 2, size=STEP_BATCH)))
    return batches


class Stepper:
    """One preset's model and optimizer, built from one copy of ``repro``."""

    def __init__(self, alias: str, preset: str) -> None:
        autograd = importlib.import_module(f"{alias}.autograd")
        models = importlib.import_module(f"{alias}.models")
        self.F = autograd.functional
        self.clip = autograd.clip_grad_norm
        sized = {"max_seq_len": 40} if preset.startswith("bert") else {}
        self.model = models.build_classifier(preset, vocab_size=STEP_VOCAB, seed=0, **sized)
        self.model.train()
        self.optimizer = autograd.Adam(self.model.parameters(), lr=1e-3)

    def step(self, batch: tuple) -> float:
        ids, mask, labels = batch
        start = time.perf_counter()
        self.model.zero_grad()
        loss = self.F.cross_entropy(self.model(ids, attention_mask=mask), labels)
        loss.backward()
        self.clip(self.model.parameters(), 1.0)
        self.optimizer.step()
        return time.perf_counter() - start


def step_ab(parent: Path, pairs: int, seed: int) -> dict:
    """Alternating steps of the parent's and this tree's ``repro``."""
    aliases = {"parent": "repro_parent", "change": "repro_change"}
    load_package(parent / "src" / "repro", aliases["parent"])
    load_package(ROOT / "src" / "repro", aliases["change"])
    importlib.import_module(f"{aliases['change']}.autograd._blas").set_blas_threads(1)
    batches = step_batches(seed)
    results = {}
    for preset in STEP_PRESETS:
        steppers = {side: Stepper(alias, preset) for side, alias in aliases.items()}
        for side in steppers:  # one untimed warm-up step each
            steppers[side].step(batches[0])
        ratios = []
        for index in range(pairs):
            order = ["parent", "change"][::1 if index % 2 == 0 else -1]
            seconds = {side: steppers[side].step(batches[index % len(batches)])
                       for side in order}
            ratios.append(seconds["change"] / seconds["parent"])
        bit_equal = all(np.array_equal(a.data.view(np.uint8), b.data.view(np.uint8))
                        for a, b in zip(steppers["parent"].model.parameters(),
                                        steppers["change"].model.parameters()))
        results[preset] = {"pairs": pairs, "ratio_median": median(ratios),
                           "ratio_quartiles": quantiles(ratios, n=4)[::2],
                           "change_wins": sum(r < 1.0 for r in ratios),
                           "weights_bit_equal": bit_equal}
        print(preset, json.dumps(results[preset]), flush=True)
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--pr", type=int, help="write BENCH_pr<N>.json (required without --step)")
    parser.add_argument("--step", action="store_true",
                        help="in-process step A/B instead of end-to-end runs")
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--pairs", type=int, help="default 10, or 200 with --step")
    parser.add_argument("--seed", type=int, default=51, help="pair i runs seed+i on both sides")
    parser.add_argument("--workload", action="append",
                        choices=[entry["name"] for entry in SPEC["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, default=Path(tempfile.gettempdir()) / "ab_bench")
    args = parser.parse_args()

    if args.pr is None and not args.step:
        parser.error("--pr is required without --step")
    revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", args.parent],
                              capture_output=True, text=True, check=True).stdout.strip()
    parent = extract(revision, args.workdir)
    if args.step:
        results = step_ab(parent, args.pairs or 200, args.seed)
        if args.pr is not None:
            out = ROOT / f"BENCH_pr{args.pr}.json"
            report = json.loads(out.read_text()) if out.is_file() else {}
            report["step"] = {"parent": revision, "protocol": (
                "in process, alternating steps, side order alternates, one-thread BLAS, "
                f"{STEP_BATCH} x {STEP_SEQ} batches; change = working tree"), **results}
            out.write_text(json.dumps(report, indent=1) + "\n")
        return 0
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
        for index in range(args.pairs or 10):
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
