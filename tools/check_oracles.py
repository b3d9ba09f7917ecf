"""Local simulation of the driver's correctness gate: run every queries()
entry at a given sf, compare row count + schema + sorted values against
oracle_sql() via DuckDB. Usage: python tools/check_oracles.py [sf_dir] [names...]

Also importable — tests/test_oracle_guard.py runs :func:`check_query` over
every sf-portable query at sf0.001 so a drift in queries the driver didn't
re-check this round still fails CI.
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import pandas as pd
import ray

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

TABLES = (
    "region nation customer supplier part orders lineitem events "
    "documents embeddings"
).split()


def make_con(sf_dir: str) -> duckdb.DuckDBPyConnection:
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")
    return con


def sf_portable(sql: str) -> bool:
    """True for pure-SQL oracles that run at any scale factor. Oracles that
    read expected parquet (read_parquet of a materialized ground-truth file)
    are pinned to the sf0.01 corpus the driver uses — running them at
    another sf shows spurious mismatches."""
    return "read_parquet" not in sql


def to_pandas(res):
    import pyarrow as pa

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df.reindex(sorted(df.columns), axis=1)
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


def check_query(fn, sql: str, con, sf_dir: str) -> tuple[bool, str]:
    """Run one queries() callable and its oracle SQL side by side.
    Returns (ok, detail) — detail explains the first divergence."""
    a = canon(to_pandas(fn(sf_dir)))
    b = canon(con.execute(sql).df())
    if list(a.columns) != list(b.columns):
        return False, f"columns ray={list(a.columns)} oracle={list(b.columns)}"
    if len(a) != len(b):
        return False, f"rows ray={len(a)} oracle={len(b)}"
    try:
        pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    except AssertionError as e:
        return False, str(e).splitlines()[0]
    return True, f"rows={len(a)}"


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False)
    import __ray_entry__ as entry

    con = make_con(sf_dir)
    qs = entry.queries()
    oracles = entry.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        if name not in oracles:
            res = to_pandas(fn(sf_dir))
            dt = time.time() - t0
            print(f"{name:22} rows-only rows={len(res)} cols={list(res.columns)} {dt:.1f}s")
            continue
        try:
            ok, detail = check_query(fn, oracles[name], con, sf_dir)
        except Exception as e:
            ok, detail = False, f"{type(e).__name__}: {e}"
        dt = time.time() - t0
        status = "OK" if ok else "MISMATCH"
        if not ok:
            failures += 1
        print(f"{name:22} {status} {detail} cols_ok=True {dt:.1f}s"
              if ok else f"{name:22} {status} {dt:.1f}s\n    {detail}")
    ray.shutdown()
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
