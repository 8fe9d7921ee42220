"""Benchmark runner for the chainalg engine.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Every run of a workload is a fresh `python3 perfbench/child.py` process, so
caches start cold as they do for a CLI user.  Runs go one at a time in a
closed loop: one client, and the next run starts when the previous one has
been reaped.  The loop keeps starting runs until S seconds have passed, and
always makes at least one.

`--trace 0` reports the end-to-end metrics (medians over the runs), with
tracing off.  `--trace 1` alternates an untraced and a traced run and
reports the per-layer metrics of the traced ones.  Every run's output is
checked; raw samples and run metadata go to `perfbench/results/`, and the
last line of stdout is the JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, GramOracle, check_gram, check_suite  # noqa: E402

RUN_LIMIT_S = 170.0  # a child still running this long after the start is killed
SETUP_PROBES = 2  # import-only children before each workload child, for setup_s

# per-layer metrics: calls and self time of these layers ...
CALL_LAYERS = (
    "core.Combination.add",
    "core.Combination.scaled",
    "core.Combination.from_items",
    "bracket.bracket",
    "bracket.bracket_gen",
    "basis.to_b4",
    "basis.to_b0",
    "chains.act",
    "chains.equal_on_chains",
    "verma.insert_letter",
)
SELF_ONLY_LAYERS = ("cli.main", "checks.suite", "verma.gram_matrix", "verma.inertia")
# ... and these ratios, each with its base
RATIOS = (
    ("bracket.bracket_gen.hit_ratio", "bracket_gen.hits", ("bracket_gen.hits", "bracket_gen.misses")),
    ("chains.act.match_ratio", "act.sampled_matches", ("act.sampled_probes",)),
    ("verma.insert_letter.distinct_ratio", "insert_letter.distinct_keys", ("insert_letter.calls",)),
)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="chainalg benchmark runner")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own test")
    args = ap.parse_args(argv)

    if not (SRC / "chainalg" / "__init__.py").is_file():
        print(f"perfbench: no chainalg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    cli_args = workload.cli_args(args.seed, args.smoke)
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)["smoke" if args.smoke else "full"][workload.name]

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    run_child([], setup_only=True, deadline=deadline)  # untimed: byte-compiles the sources
    if args.trace:
        result, record = traced_run(workload, cli_args, args, golden, deadline)
    else:
        result, record = end_to_end_run(workload, cli_args, args, golden, deadline)
    record.update(
        metadata(args, cli_args),
        total_s=time.monotonic() - start,
        result=result,
    )
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{workload.name}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}"
    with open(RESULTS / f"{name}_{time.time_ns()}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# children

def run_child(cli_args, *, deadline, trace=False, setup_only=False) -> dict:
    """Spawn one child, wait for it, and collect its report and usage."""
    WORK.mkdir(parents=True, exist_ok=True)
    out_path, err_path, report_path = WORK / "stdout", WORK / "stderr", WORK / "report.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--report", str(report_path)]
    cmd += ["--trace"] if trace else []
    cmd += ["--setup-only"] if setup_only else []
    cmd += ["--"] + cli_args
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=ROOT
        )
        timer = threading.Timer(max(0.0, deadline - spawn), proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    sample = {
        "rc": proc.returncode,
        "elapsed_s": time.monotonic() - spawn,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "stdout": out_path.read_bytes(),
        "stderr_tail": err_path.read_bytes()[-2000:].decode("utf-8", "replace"),
    }
    sample["sha256"] = hashlib.sha256(sample["stdout"]).hexdigest()
    if report_path.is_file():
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        sample["setup_s"] = report["ready"] - spawn
        for key in ("wall_s", "cpu_s", "trace"):
            if key in report:
                sample[key] = report[key]
    return sample


def closed_loop(make_round, seconds: float, deadline: float) -> list:
    """Run rounds back to back until `seconds` have passed; always at least one."""
    rounds = []
    t0 = time.monotonic()
    while not rounds or (time.monotonic() - t0 < seconds and time.monotonic() < deadline):
        rounds.append(make_round())
    return rounds


# ---------------------------------------------------------------------------
# checks

def check_run(workload, sample, seed, golden, oracle) -> list:
    """Problems with one untraced run; empty when it is correct."""
    problems = []
    if sample["rc"] != 0:
        problems.append(f"exit code {sample['rc']}: {sample['stderr_tail'].strip()[-300:]}")
    if "wall_s" not in sample:
        problems.append("child wrote no report")
    if sample["sha256"] != golden:
        problems.append(f"stdout sha256 {sample['sha256']} differs from the golden digest")
    text = sample["stdout"].decode("utf-8", "replace")
    if workload.kind == "gram":
        problems += check_gram(text, seed, oracle)
    else:
        problems += check_suite(text)
    return problems


def check_traced(workload, traced, reference) -> list:
    problems = []
    if traced["rc"] != 0 or "trace" not in traced:
        problems.append(f"traced run failed, exit code {traced['rc']}")
        return problems
    if traced["sha256"] != reference["sha256"]:
        problems.append("traced stdout differs from the untraced stdout")
    layers = traced["trace"]["layers"]
    for layer in workload.layers:
        if layers[layer]["calls"] == 0:
            problems.append(f"layer {layer} recorded no calls")
    return problems


# ---------------------------------------------------------------------------
# the two kinds of run

def end_to_end_run(workload, cli_args, args, golden, deadline):
    def one_round():
        probes = [run_child([], setup_only=True, deadline=deadline) for _ in range(SETUP_PROBES)]
        return probes, run_child(cli_args, deadline=deadline)

    rounds = closed_loop(one_round, args.seconds, deadline)
    samples = [sample for _probes, sample in rounds]
    probes = [probe for round_probes, _sample in rounds for probe in round_probes]
    oracle = GramOracle() if workload.kind == "gram" else None
    failed = 0
    for s in samples:
        s["problems"] = check_run(workload, s, args.seed, golden, oracle)
        failed += bool(s["problems"])
    for p in probes:
        if p["rc"] != 0 or "setup_s" not in p:
            p["problems"] = [f"setup probe failed, exit code {p['rc']}"]
            failed += 1
    ok = [s for s in samples if not s["problems"]]
    setups = [s["setup_s"] for s in samples + probes if "setup_s" in s]
    metrics = {}
    if ok and setups:
        metrics = {
            "wall_s": _metric(statistics.median(s["wall_s"] for s in ok), "s"),
            "setup_s": _metric(statistics.median(setups), "s"),
            "peak_rss_mb": _metric(statistics.median(s["peak_rss_mb"] for s in ok), "MB"),
        }
    attempted = len(samples) + len(probes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "failed_frac": failed / attempted,
        "samples": [_raw(s) for s in samples],
        "setup_probes": [_raw(p) for p in probes],
    }
    return result, record


def traced_run(workload, cli_args, args, golden, deadline):
    def one_pair():
        reference = run_child(cli_args, deadline=deadline)
        traced = run_child(cli_args, deadline=deadline, trace=True)
        return reference, traced

    pairs = closed_loop(one_pair, args.seconds, deadline)
    oracle = GramOracle() if workload.kind == "gram" else None
    failed = 0
    per_pair = []
    for reference, traced in pairs:
        reference["problems"] = check_run(workload, reference, args.seed, golden, oracle)
        traced["problems"] = check_traced(workload, traced, reference)
        failed += bool(reference["problems"]) + bool(traced["problems"])
        if not reference["problems"] and not traced["problems"]:
            per_pair.append(layer_metrics(traced["trace"], traced["wall_s"] - reference["wall_s"]))
    attempted = 2 * len(pairs)
    metrics = {}
    if per_pair:
        for name, unit in per_layer_units().items():
            if name == "failed_frac":
                metrics[name] = _metric(failed / attempted, unit)
            else:
                metrics[name] = _metric(statistics.median(m[name] for m in per_pair), unit)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {
        "failed_frac": failed / attempted,
        "samples": [
            {"untraced": _raw(reference), "traced": _raw(traced)} for reference, traced in pairs
        ],
        "per_pair_metrics": per_pair,
    }
    return result, record


def per_layer_units() -> dict:
    units = {}
    for layer in CALL_LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    for layer in SELF_ONLY_LAYERS:
        units[f"{layer}.self_s"] = "s"
    for name, _num, _den in RATIOS:
        units[name] = "ratio"
    units["trace_overhead_s"] = "s"
    units["failed_frac"] = "ratio"
    return units


def layer_metrics(trace: dict, overhead_s: float) -> dict:
    layers, counters = trace["layers"], trace["counters"]
    out = {}
    for layer in CALL_LAYERS:
        out[f"{layer}.calls"] = layers[layer]["calls"]
        out[f"{layer}.self_s"] = layers[layer]["self_s"]
    for layer in SELF_ONLY_LAYERS:
        out[f"{layer}.self_s"] = layers[layer]["self_s"]
    for name, num, den in RATIOS:
        base = sum(counters[k] for k in den)
        out[name] = counters[num] / base if base else 0.0
    out["trace_overhead_s"] = overhead_s
    return out


# ---------------------------------------------------------------------------
# results

def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _raw(sample: dict) -> dict:
    return {k: v for k, v in sample.items() if k != "stdout"}


def metadata(args, cli_args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "cli_args": cli_args,
        "git_commit": _git_commit(),
        "src_sha256": _tree_digest(SRC),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "started_unix": time.time(),
    }


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _tree_digest(root: Path) -> str:
    """SHA-256 over the Python sources under root, so runs outside git stay identifiable."""
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
