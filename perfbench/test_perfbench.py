"""Tests of the benchmark itself (several minutes: every test starts Ray).

    python3 -m pytest perfbench -q -p no:cacheprovider
"""

from __future__ import annotations

import json
import os
import shutil

import pytest

from perfbench import run, trace
from perfbench.workloads import CrawlBudget

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)


@pytest.fixture
def work_dir(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK_DIR", str(tmp_path))
    return tmp_path


def _run(capsys, *argv: str):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("traced", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_printed_with_its_unit(work_dir, capsys, workload, traced):
    lines, result = _run(
        capsys, "--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(traced)
    )
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if traced else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)


def test_tampered_reference_fails_every_pass(work_dir, capsys):
    cache = os.path.join(str(work_dir), "cache", "crawl_budget-s5")
    CrawlBudget.prepare(cache, 5)
    path = os.path.join(cache, "reference.json")
    with open(path) as f:
        ref = json.load(f)
    ref["visited"] = "0" * 64
    with open(path, "w") as f:
        json.dump(ref, f)

    lines, result = _run(capsys, "--workload", "crawl_budget", "--seed", "5", "--seconds", "0")
    assert not result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]
    assert "failed_frac 1.0 ratio" in lines


def test_traced_run_records_worker_side_stage_spans(work_dir, tmp_path):
    """Stage functions run inside Ray workers, so their spans must be
    recorded there: by the wrappers shipped with the map tasks, and by the
    worker hook for calls made inside them (``fetch_batch`` in the engine's
    ``_fetch_gated``)."""
    from urlmap_ray.corpus import generate_corpus, page_url
    from urlmap_ray.pipelines.crawl import CrawlEngine

    info = generate_corpus(str(tmp_path / "corpus"), 400, seed=1)
    trace_dir = str(tmp_path / "trace")
    os.makedirs(trace_dir)
    ray_tmp = run._ray_tmp()
    try:
        with run.Session(ray_tmp, info, trace_dir=trace_dir):
            uninstall = trace.install(trace.Recorder(trace_dir))
            try:
                # small_wave_rows=0 sends every wave through the Ray Data chain
                engine = CrawlEngine(
                    info, checkpoint_dir=str(tmp_path / "ckpt"), seen_shards=2, small_wave_rows=0
                )
                engine.crawl([page_url(h, 0) for h in range(info.n_hosts)])
            finally:
                uninstall()
    finally:
        shutil.rmtree(ray_tmp, ignore_errors=True)
    worker_stages = {s["name"] for s in trace.load_spans(trace_dir) if s["pid"] != os.getpid()}
    assert {"fetch", "extract", "flatten", "claim"} <= worker_stages
