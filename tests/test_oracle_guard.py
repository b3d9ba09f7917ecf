"""CI guard over the driver's correctness gate (VERDICT r2 #7).

The driver re-checks a subset of the registered queries each round; a
regression in an unchecked query could otherwise hide for a round. This
module runs EVERY sf-portable SQL-oracle query at sf0.001 (the smallest
corpus — a few seconds per query) through the exact compare the driver
uses: row count + column names + sorted values.

Expected-parquet oracles (crawl/graph/spa ground-truth files) are pinned to
the sf0.01 corpus the driver reads and are excluded here; they are covered
by their own pytest golden suites and the driver gate itself.
"""

from __future__ import annotations

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "tools"))

SF_DIR = "/root/testdata/sf0.001"


def _portable_names():
    import __ray_entry__ as entry
    from check_oracles import sf_portable

    oracles = entry.oracle_sql()
    return [
        name
        for name in entry.queries()
        if name in oracles and sf_portable(oracles[name])
    ]


@pytest.fixture(scope="module")
def oracle_ctx(ray_session):
    import __ray_entry__ as entry
    from check_oracles import make_con

    con = make_con(SF_DIR)
    yield entry.queries(), entry.oracle_sql(), con
    con.close()


@pytest.mark.parametrize("name", _portable_names())
def test_query_matches_oracle_sf0001(oracle_ctx, name):
    from check_oracles import check_query

    qs, oracles, con = oracle_ctx
    ok, detail = check_query(qs[name], oracles[name], con, SF_DIR)
    assert ok, f"{name} drifted from its oracle at sf0.001: {detail}"
