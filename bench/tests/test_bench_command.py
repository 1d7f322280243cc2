"""``BENCHMARK.json`` against the command, and a ``--smoke`` run end to end."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from bench import metrics  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


def _contract() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _run(*arguments: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), *arguments],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_contract_names_the_workloads_and_metrics_the_benchmark_defines():
    contract = _contract()
    assert contract["paths"] == ["bench"]
    assert contract["command"] == ["python3", "bench/run.py"]
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    ] == list(metrics.END_TO_END)
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == list(metrics.PER_LAYER)
    assert all(len(w["why"]) <= 200 for w in contract["workloads"])


def test_smoke_run_prints_every_metric_and_passes_every_check(tmp_path):
    contract = _contract()
    for trace, wanted in ((0, contract["end_to_end"]), (1, contract["per_layer"])):
        out = tmp_path / f"smoke{trace}.json"
        done = _run(
            "--workload", "dart_iridium", "--smoke", "--seed", "7",
            "--trace", str(trace), "--out", str(out),
        )
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in wanted]
        assert all(
            line["metrics"][m["name"]]["unit"] == m["unit"] for m in wanted
        )
        for metric in wanted:
            assert f" {metric['name']} " in done.stdout  # the table names it too
        record = json.loads(out.read_text())["workloads"]["dart_iridium"]
        assert record["sim_digest"] and record["failures"] == []


def test_compare_verdicts_against_the_bound():
    from bench import compare

    tight = [10.0, 10.1, 9.9, 10.05, 10.0]
    assert compare.verdict(tight, [v * 1.02 for v in tight], "lower", 0.10)[0] == "unchanged"
    assert compare.verdict(tight, [v * 1.30 for v in tight], "lower", 0.10)[0] == "regressed"
    assert compare.verdict(tight, [v * 0.70 for v in tight], "higher", 0.10)[0] == "regressed"
    assert compare.verdict(tight, [v * 0.70 for v in tight], "lower", 0.10)[0] == "unchanged"
    wide = [8.0, 12.0, 9.0, 11.5, 10.0]
    assert compare.verdict(wide, [v * 1.05 for v in wide], "lower", 0.10)[0] == "unresolved"
    # wide but every run of B beyond every run of A: the data can tell
    assert compare.verdict(wide, [v * 2.0 for v in wide], "lower", 0.10)[0] == "regressed"
