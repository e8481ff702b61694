#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of the VStore reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload serve_mix --seed 0 --seconds 30 \
        --trace 0

``--workload`` is ``serve_mix``, ``fleet_replay``, ``ingest_failover``
or ``all`` (each workload in its own fresh process, one after another).
``--trace 0`` reports the end-to-end metrics listed in
``BENCHMARK.json``; ``--trace 1`` reports the per-layer metrics, from
spans recorded around each layer's entry points (``perfbench/spans.py``),
and the tracing overhead against untraced rounds of the same process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's details (checks, workload properties, the digest of
the simulated outcomes, the simulated metrics that are not end-to-end
metrics).  Both, and the spans of the first traced round, are also
written under ``perfbench/out/``, which git ignores.

The run exits with status 2 and prints no result when the checkout holds
no ``src/repro`` package to measure.
"""

from __future__ import annotations

import os
import sys

# One host thread per run: the workloads are single-threaded Python, and
# BLAS worker threads would only add scheduler noise on a small host.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import Dict, List, Optional, Tuple  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("serve_mix", "fleet_replay", "ingest_failover")
#: Measured rounds per run at least, whatever ``--seconds`` says (a
#: traced run alternates untraced and traced rounds, so it needs four).
MIN_ROUNDS = {0: 3, 1: 4}
#: Stop starting rounds after this many seconds, so a run on a slow host
#: still ends well inside its three-minute limit.
HARD_STOP_S = 140.0


def load_spec() -> Dict[str, Dict[str, str]]:
    """Metric names and units per trace mode, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def last_line(text: str) -> str:
    return text.strip().splitlines()[-1]


def fastest(values: List[float]) -> float:
    """The shortest per-round host time of a run.

    Interference from other tenants of a small shared host only ever
    adds time, and it comes in stretches of seconds to minutes: the
    median of a run moves with whatever stretch the run landed in, while
    its fastest round tracks the program's own cost.
    """
    return min(values) if values else 0.0


def run_round(workload, index: int, tracer) -> dict:
    """Set up, run and check one round; never raises."""
    workdir = os.path.join(OUT, f"work-{os.getpid()}-{index}")
    shutil.rmtree(workdir, ignore_errors=True)
    rec: dict = {"index": index, "traced": tracer is not None,
                 "arrivals": len(workload.expected_arrivals)}
    rnd = None
    try:
        first = tracer.start() if tracer is not None else 0
        start = perf_counter()
        rnd = workload.setup(workdir)
        rec["setup_s"] = perf_counter() - start
        mid = len(tracer.spans) if tracer is not None else 0
        start = perf_counter()
        workload.phase(rnd)
        rec["phase_s"] = perf_counter() - start
        if tracer is not None:
            tracer.stop()
            rec["spans"] = (first, mid, len(tracer.spans))
        rec["ingest_s"] = rnd.ingest_s
        rec["ingested_video_s"] = rnd.ingested_video_s
        rec["stored_bytes"] = rnd.stored_bytes
        rec["failed_checks"] = workload.check(rnd)
        rec["sim"] = workload.sim_metrics(rnd)
        rec["properties"] = workload.properties(rnd)
        rec["digest"] = workload.digest(rnd)
        kv = rnd.store.segments.kv
        rec["kv_log_ratio"] = kv.file_bytes / max(kv.live_bytes, 1)
        rec["served"] = len(workload.foreground(rnd))
    except Exception:  # a failed round is reported, not fatal
        if tracer is not None:
            tracer.stop()
        traceback.print_exc(file=sys.stderr)
        rec["error"] = last_line(traceback.format_exc())
        rec["served"] = 0
    finally:
        if rnd is not None:
            rnd.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return rec


def layer_metrics(workload, tracer, rec: dict) -> Dict[str, float]:
    """Per-layer metrics of one traced round (set-up plus phase)."""
    first, mid, last = rec["spans"]
    setup = tracer.aggregate(first, mid)
    phase = tracer.aggregate(mid, last)
    busy = {k: setup.busy[k] + phase.busy[k] for k in setup.busy}
    self_s = {k: setup.self_s[k] + phase.self_s[k] for k in setup.self_s}
    calls = {k: setup.calls[k] + phase.calls[k] for k in setup.calls}
    items = {k: setup.items[k] + phase.items[k] for k in setup.items}
    lookups = (setup.nested_calls.get(("plan", "store.meta"), 0)
               + phase.nested_calls.get(("plan", "store.meta"), 0))
    sim = rec["sim"]
    wall = rec["phase_s"]
    from workloads import chosen_share

    return {
        "config.busy_s": busy["config"],
        "ingest.busy_s": busy["ingest"],
        "ingest.self_s": self_s["ingest"],
        "ingest.segments": items["ingest"],
        "content.clip_s": busy["content.clip"],
        "content.clip_calls": calls["content.clip"],
        "plan.busy_s": busy["plan"],
        "plan.self_s": self_s["plan"],
        "plan.calls": calls["plan"],
        "plan.store_lookups_per_query": (
            lookups / calls["plan"] if calls["plan"] else 0.0),
        "retrieval.assess_s": busy["retrieval.assess"],
        "retrieval.assess_calls": calls["retrieval.assess"],
        "store.meta_s": busy["store.meta"],
        "store.meta_calls": calls["store.meta"],
        "store.put_s": busy["store.put"],
        "store.put_calls": calls["store.put"],
        "store.commit_replica_s": busy["store.commit_replica"],
        "store.commit_replica_calls": calls["store.commit_replica"],
        "kv.get_s": busy["kv.get"],
        "kv.get_calls": calls["kv.get"],
        "kv.put_s": busy["kv.put"],
        "kv.put_calls": calls["kv.put"],
        "kv.log_bytes_per_live_byte": rec["kv_log_ratio"],
        "failures.apply_s": busy["failures.apply"],
        "failures.apply_calls": calls["failures.apply"],
        "failures.rebuild_jobs_s": busy["failures.rebuild_jobs"],
        "rebuild.replicas": sim["rebuild.replicas"],
        "rebuild.sim_s": sim["sim_rebuild_s"],
        "workload.build_s": busy["workload.build"],
        "workload.build_calls": calls["workload.build"],
        "admit.self_s": self_s["admit"],
        "admit.calls": calls["admit"],
        "admit_job.s": busy["admit_job"],
        "admit_job.calls": calls["admit_job"],
        "admission.peak_queued": sim["admission.peak_queued"],
        "admission.queued_p99_s": sim["admission.queued_p99_s"],
        "core.run_s": busy["core.run"],
        "core.events": sim["core.events"],
        "core.events_per_s": (sim["core.events"] / busy["core.run"]
                              if busy["core.run"] else 0.0),
        "sim.util.disk": sim["sim.util.disk"],
        "sim.util.decoder": sim["sim.util.decoder"],
        "sim.util.operators": sim["sim.util.operators"],
        "sim.waited_mean_s": sim["sim.waited_mean_s"],
        "report.slo_s": busy["report.slo"],
        "report.slo_calls": calls["report.slo"],
        "report.availability_s": busy["report.availability"],
        "report.availability_calls": calls["report.availability"],
        "phase.wall_s": wall,
        "phase.unattributed_share": (wall - phase.top_level_s) / wall,
        "phase.chosen_layer_share": chosen_share(workload, phase.busy, wall),
    }


def run_workload(args, units: Dict[str, str]) -> Tuple[dict, dict]:
    """All rounds of one workload; returns the result and its details."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT, exist_ok=True)
    detail: dict = {"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "scale": args.scale}
    try:
        from spans import Tracer
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, args.scale)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        detail["error"] = last_line(traceback.format_exc())
        return {"correct": False, "attempted": 1, "failed": 1,
                "metrics": {n: {"value": 0.0, "unit": u}
                            for n, u in units.items()}}, detail

    tracer = Tracer() if args.trace else None
    records: List[dict] = []
    began = perf_counter()
    measure_from: Optional[float] = None
    kept_spans: Optional[tuple] = None
    while True:
        index = len(records)
        # Round 0 warms lazy imports and is not measured; a traced run
        # then alternates untraced and traced rounds.  The span wrappers
        # are only installed for the traced ones.
        traced = tracer is not None and index % 2 == 0 and index > 0
        if traced:
            tracer.install()
        try:
            rec = run_round(workload, index, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        records.append(rec)
        if "spans" in rec:
            rec["layers"] = layer_metrics(workload, tracer, rec)
            if kept_spans is None:
                kept_spans = rec["spans"]
            else:
                tracer.drop(rec["spans"][0])
        if "error" in rec:
            break
        if measure_from is None:
            measure_from = perf_counter()
            continue
        measured = len(records) - 1
        now = perf_counter()
        if now - began > HARD_STOP_S or (
                measured >= MIN_ROUNDS[args.trace]
                and now - measure_from >= args.seconds):
            break
    if tracer is not None and kept_spans is not None:
        first, _, last = kept_spans
        tracer.dump(os.path.join(
            OUT, f"spans-{args.workload}.jsonl"),
            first, last, label=args.workload)

    attempted = sum(r["arrivals"] for r in records)
    failed = sum(r["arrivals"] - min(r["served"], r["arrivals"])
                 for r in records)
    ok = [r for r in records if "error" not in r]
    measured = [r for r in ok if r["index"] > 0]
    digests = sorted({r["digest"] for r in ok})
    failed_checks = sorted({c for r in ok for c in r["failed_checks"]})
    if len(digests) > 1:
        failed_checks.append("digest_stable")
    correct = bool(ok) and len(ok) == len(records) and not failed_checks
    last = ok[-1] if ok else None

    untraced = [r for r in measured if not r["traced"]]
    traced = [r for r in measured if r["traced"]]
    values: Dict[str, float] = {}
    if untraced:
        values.update({
            "setup_s": median([r["setup_s"] for r in untraced]),
            "host.queries_per_s": last["arrivals"] / fastest(
                [r["phase_s"] for r in untraced]),
            "host.ingest_video_x": last["ingested_video_s"] / fastest(
                [r["ingest_s"] for r in untraced]),
            "stored_bytes_per_video_s": (
                last["stored_bytes"] / last["ingested_video_s"]),
        })
    if last is not None:
        values.update(last["sim"])
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if traced:
        for name in traced[0]["layers"]:
            values[name] = median([r["layers"][name] for r in traced])
        if untraced:
            values["trace.overhead"] = (
                median([r["phase_s"] for r in traced])
                / median([r["phase_s"] for r in untraced]) - 1.0)

    metrics = {}
    for name, unit in units.items():
        value = values.get(name)
        if value is None:
            correct = False
            failed_checks.append(f"missing_metric:{name}")
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    detail.update({
        "rounds": len(records),
        "measured_rounds": len(measured),
        "errors": [r["error"] for r in records if "error" in r],
        "failed_checks": failed_checks,
        "digest": digests[0] if len(digests) == 1 else digests,
        "error_rate": failed / attempted if attempted else 1.0,
        "properties": last["properties"] if last is not None else {},
        "sim": last["sim"] if last is not None else {},
        "setup_s_rounds": [r["setup_s"] for r in untraced],
        "phase_s_rounds": [r["phase_s"] for r in untraced],
        "traced_phase_s_rounds": [r["phase_s"] for r in traced],
        "ingest_s_rounds": [r["ingest_s"] for r in untraced],
        # Every per-layer value, including the times of layers a workload
        # leaves idle (always 0 there), which the result omits.
        "layers": {name: values[name] for name in
                   (traced[0]["layers"] if traced else ())},
        "host": {name: values[name] for name in
                 ("host.queries_per_s", "host.ingest_video_x")
                 if name in values},
    })
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, detail


def run_all(args) -> int:
    """Each workload in a fresh process; a summary line comes last."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scale", str(args.scale)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        for line in lines:
            print(line)
        if proc.returncode != 0 or not lines:
            status = status or proc.returncode or 1
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    if status == 0:
        print(json.dumps(summary))
    return status


def parse_args(argv: Optional[List[str]] = None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured seconds per run (after one warm-up "
                             "round; at least three measured rounds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload's size (smoke tests)")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"perfbench: no src/repro package under {ROOT}; nothing to "
              f"measure", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    units = load_spec()[args.trace]
    result, detail = run_workload(args, units)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as f:
        json.dump({"detail": detail, "result": result}, f, indent=1,
                  default=str)
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
