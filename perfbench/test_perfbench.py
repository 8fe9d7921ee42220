"""The benchmark's own test: smoke runs of every workload, traced and not.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py

Each smoke run uses tiny inputs (`--smoke`), so the whole file takes a few
seconds while still going through the runner, the child, the correctness
checks and the tracer.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS, GramOracle, check_gram, check_suite, gram_sample  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def test_spec_names_match_the_runner():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"][1:] == ["perfbench/run.py"]
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert per_layer == run.per_layer_units()
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert names == ["wall_s", "setup_s", "peak_rss_mb"]
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_runs_are_correct_and_complete(workload):
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    traced = []
    for trace, expected in ((0, end_to_end), (1, per_layer), (1, per_layer)):
        proc = smoke(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        if trace:
            traced.append(result["metrics"])
    for layer in WORKLOADS[workload].layers:
        if layer in run.CALL_LAYERS:
            assert traced[0][f"{layer}.calls"]["value"] > 0
    calls = [{k: v for k, v in m.items() if k.endswith(".calls")} for m in traced]
    assert calls[0] == calls[1]


def test_checks_reject_wrong_output():
    assert check_suite("identities (colors=2, flavors=2): 539/539 pass\n") == []
    assert check_suite("identities (colors=2, flavors=2): 538/539 pass\n")
    assert check_suite("jacobi: 0/0 random triples pass\n")
    assert check_suite("")

    import chainalg.cli

    buf = StringIO()
    with redirect_stdout(buf):
        chainalg.cli.main(WORKLOADS["gram-size3"].cli_args(0, smoke=True))
    text = buf.getvalue()
    oracle = GramOracle()
    assert check_gram(text, 0, oracle) == []
    assert check_gram(text.replace("neg=0", "neg=1"), 0, oracle)
    lines = text.splitlines()
    size = int(lines[0].split()[1])
    # a wrong entry at the first sampled pair must be caught
    i, j = gram_sample(size, 0)[0]
    row = lines[1 + size + i].split(" ")
    row[2 + j] = str(int(row[2 + j].split("/")[0]) + 7)
    lines[1 + size + i] = " ".join(row)
    assert check_gram("\n".join(lines) + "\n", 0, oracle)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(
        "work", "results", "__pycache__"))
    proc = smoke("gram-size3", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
