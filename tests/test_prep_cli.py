"""The prep pipeline library entry point and its CLI surface."""

from __future__ import annotations

import os
import subprocess
import sys

import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_parse_fractions():
    from urlmap_ray.prep_cli import parse_fractions

    assert parse_fractions("train=0.8,val=0.1,test=0.1") == {
        "train": 0.8,
        "val": 0.1,
        "test": 0.1,
    }
    with pytest.raises(SystemExit):
        parse_fractions("train=0.5")  # doesn't sum to 1
    with pytest.raises(SystemExit):
        parse_fractions("oops")


def test_prep_docs_matches_query_path(ray_session):
    """The library entry point is the same flow the driver-contract
    docs_pipeline query delegates to — same input, same rows."""
    import ray.data

    from urlmap_ray.pipelines.prep import prep_docs

    docs = ray.data.read_parquet(f"{SF}/documents.parquet")
    out = prep_docs(docs, eval_hashes=None, lang="en", min_words=10).take_all()
    assert out, "prep must keep some canonical docs"
    splits = {r["split"] for r in out}
    assert splits <= {"train", "val", "test"}
    ids = [r["doc_id"] for r in out]
    assert len(ids) == len(set(ids)) and ids == sorted(ids)
    # deterministic: rerunning yields identical rows
    again = prep_docs(
        ray.data.read_parquet(f"{SF}/documents.parquet"),
        eval_hashes=None,
        lang="en",
        min_words=10,
    ).take_all()
    assert out == again


def test_prep_cli_end_to_end_and_resume(tmp_path):
    out_dir = tmp_path / "prep"
    cmd = [
        sys.executable,
        "-m",
        "urlmap_ray.prep_cli",
        "--input",
        f"{SF}/documents.parquet",
        "--output",
        str(out_dir),
        "-q",
    ]
    subprocess.run(cmd, check=True, cwd=ROOT, timeout=240)
    parts = sorted(p.name for p in out_dir.iterdir())
    assert parts == ["split=test", "split=train", "split=val"]
    val_before = pq.read_table(out_dir / "split=val" / "data.parquet")
    # wipe one partition; the resumable sink must restore ONLY it
    import shutil

    shutil.rmtree(out_dir / "split=val")
    train_mtime = (out_dir / "split=train" / "data.parquet").stat().st_mtime
    subprocess.run(cmd, check=True, cwd=ROOT, timeout=240)
    val_after = pq.read_table(out_dir / "split=val" / "data.parquet")
    # row-set equality: within-partition order is not part of the sink's
    # contract (the prep CLI skips the global sort — the groupby reshuffles)
    assert sorted(val_after.to_pylist(), key=str) == sorted(
        val_before.to_pylist(), key=str
    )
    assert (out_dir / "split=train" / "data.parquet").stat().st_mtime == train_mtime


def test_prep_cli_warc_input(tmp_path):
    from urlmap_ray.sources.warc import write_warc

    para = "<p>" + " ".join(f"word{i}" for i in range(30)) + "</p>"
    dup = "<p>" + " ".join(f"tok{i}" for i in range(40)) + "</p>"
    records = [
        {"url": f"https://ex.org/p{i}", "html": f"<html><body>{para if i < 2 else dup}</body></html>"}
        for i in range(5)
    ]
    warc = write_warc(str(tmp_path / "in.warc.gz"), records)
    out_dir = tmp_path / "prep"
    subprocess.run(
        [
            sys.executable, "-m", "urlmap_ray.prep_cli",
            "--input", warc, "--input-format", "warc",
            "--output", str(out_dir),
            "--lang", "",            # disable the lang gate (synthetic text)
            "--min-words", "5",
            "-q",
        ],
        check=True, cwd=ROOT, timeout=240,
    )
    rows = []
    for d in out_dir.iterdir():
        rows.extend(pq.read_table(d / "data.parquet").to_pylist())
    # docs 0-1 are one identical pair, docs 2-4 another → 2 canonical docs
    assert len(rows) == 2
    assert all(set(r) == {"doc_id", "split"} for r in rows)
