"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/test_bench.py

Each workload runs at a tiny size and must print every metric that
``BENCHMARK.json`` names, with its unit, and no failed item; a traced run
must repeat its counts; a corrupted reference digest must be reported as a
failure; and the benchmark must refuse to run without the program.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

TINY = {
    "verify-battery": dict(run.WORKLOADS["verify-battery"],
                           args=["--max-len", "1"]),
    "sums": dict(run.WORKLOADS["sums"],
                 grid=[["A2", 2, 2], ["B1", 3, 2], ["C1", 3, 2],
                       ["D1", 4, 1], ["D2", 3, 2]]),
    "map": dict(run.WORKLOADS["map"], share=0.01),
}


@pytest.fixture(autouse=True)
def _records_in_tmp(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RECORDS", str(tmp_path / "records"))


def bench(capsys, *argv, reference=run.REFERENCE):
    code = run.main(
        ["--seconds", "0", "--seed", "3", *argv],
        workloads=TINY, reference_path=reference,
    )
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(TINY))
def test_tiny_run_prints_every_metric(capsys, workload, trace):
    code, lines, result = bench(capsys, "--workload", workload,
                                "--trace", str(trace))
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in table
    }
    for m in table:
        assert any(ln.split()[:1] == [m["name"]] and m["unit"] in ln.split()
                   for ln in lines), m["name"]
    assert any(ln.split()[:2] == ["fail_frac", "0"] for ln in lines)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["verify-battery", "map"])
def test_traced_counts_repeat(capsys, workload):
    counts = []
    for _ in range(2):
        _code, _lines, result = bench(capsys, "--workload", workload,
                                      "--trace", "1")
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["bijection.phi_inverse.calls"] > 0


def _corrupt(reference: dict, workload: str) -> None:
    """Flip one digest that the tiny run of ``workload`` checks."""
    kind = TINY[workload]["kind"]
    if kind == "map":
        path = run.make_spec(TINY[workload], 3, reference)["paths"][0]
        key = "%s %d %s" % (path["type"], path["n"], " ".join(path["word"]))
    else:
        key = "A2 2 1 1,0"  # a cell of both tiny grids
    section = reference[kind]
    section[key] = section[key][::-1]


@pytest.mark.parametrize("workload", ["verify-battery", "sums", "map"])
def test_corrupted_reference_is_a_failure(capsys, tmp_path, workload):
    with open(run.REFERENCE) as fh:
        reference = json.load(fh)
    _corrupt(reference, workload)
    bad = tmp_path / "reference.json"
    bad.write_text(json.dumps(reference))
    code, lines, result = bench(capsys, "--workload", workload,
                                reference=str(bad))
    assert code == 1
    assert result["correct"] is False
    # each sample fails on the corrupted item and on nothing else
    samples = int(lines[0].split()[1])
    assert result["failed"] == samples
    assert any(ln.split()[:1] == ["fail_frac"] and ln.split()[1] != "0"
               for ln in lines)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "map",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
