"""Scan-pruning guard (VERDICT r4 "what's wrong" #1).

The pages table carries ``url, warc_ts, html, text, lang, status,
flaky_fails``; ``html`` and ``text`` are each ≈ the full corpus payload, so
a ``read_parquet(info.pages_path)`` without a ``columns=[...]`` list reads
roughly 2× the bytes any single extract/text stage needs — a pure scan-I/O
loss that compounds to tens of TB at the 100-TB target. Every pages read in
the driver entry module must therefore name its columns. This is a source
guard, mirroring the driver-list test pattern: cheaper and stricter than
re-deriving the projection from Dataset stats per query.
"""

from __future__ import annotations

import os
import re

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _entry_source() -> str:
    with open(os.path.join(ROOT, "__ray_entry__.py")) as f:
        return f.read()


def test_every_pages_read_is_column_pruned():
    src = _entry_source()
    # Each read_parquet call on the pages table, with up to ~2 lines of
    # slack for the argument list (black-style wrapping).
    sites = [
        m
        for m in re.finditer(
            r"read_parquet\(\s*info\.pages_path\s*(.)", src
        )
    ]
    assert sites, "expected at least one pages read in __ray_entry__.py"
    bad = []
    for m in sites:
        tail = src[m.end(1) - 1 : m.end(1) + 80]
        if not (m.group(1) == "," and "columns=" in tail):
            line = src.count("\n", 0, m.start()) + 1
            bad.append(line)
    assert not bad, (
        f"unpruned read_parquet(info.pages_path) at __ray_entry__.py lines "
        f"{bad}: add columns=[...] (scan-I/O at 100 TB)"
    )


def test_library_pages_reads_are_pruned():
    """Same rule for the library package: any read_parquet of a pages-shaped
    path must carry a columns list (the crawl engine's selective fetch reads
    are built through its own pruned helpers)."""
    import glob

    bad = []
    for path in glob.glob(os.path.join(ROOT, "urlmap_ray", "**", "*.py"), recursive=True):
        with open(path) as f:
            src = f.read()
        for m in re.finditer(r"read_parquet\(\s*([a-z_]*pages[a-z_]*)\s*(.)", src):
            tail = src[m.end() - 1 : m.end() + 80]
            if not (m.group(2) == "," and "columns=" in tail):
                line = src.count("\n", 0, m.start()) + 1
                bad.append(f"{path}:{line}")
    assert not bad, f"unpruned pages reads: {bad}"


def test_entry_module_collects_no_dataset_to_pandas():
    """No registered query collects a Dataset into driver pandas or a
    driver row list (``take_all``): a per-row keep-set (``docs_prep``'s
    one id per distinct text) is O(rows) and belongs in a shuffle join,
    not on the driver."""
    src = _entry_source()
    hits = [
        (m.group(0), src.count("\n", 0, m.start()) + 1)
        for m in re.finditer(r"\.(to_pandas|take_all)\(", src)
    ]
    assert not hits, f"driver collects at __ray_entry__.py: {hits}"
