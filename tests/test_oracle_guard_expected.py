"""CI guard over the EXPECTED-PARQUET oracle tier (VERDICT r4 #6).

``test_oracle_guard.py`` sweeps the 81 sf-portable pure-SQL oracles at
sf0.001; the other ~70 registered queries read materialized ground-truth
parquet (crawl waves, graph references, kmeans/PCA/LM fixed-point
references, ...) whose REGISTERED SQL pins the sf0.01 paths the driver
gate uses. Those were previously covered only by scattered golden suites
plus manual ``tools/check_oracles.py`` sweeps — a drift in one of them
could hide until the driver happened to re-sample it.

This module enumerates every one of them as a pytest node and runs the
exact driver compare (row count + column names + sorted values) at
sf0.001: the only sf0.01-dependence in these oracles is the two expected
path families (``/tmp/urlmap_corpus/<sf>`` and ``/tmp/urlmap_oracle/<sf>``,
both keyed on the sf-dir basename — asserted below), so rewriting the
basename yields the same oracle over the sf0.001 corpus, which each
query's own ``ensure_*`` call materializes on first run. sf0.001 keeps
the full-tier sweep to minutes at the 4-cpu test session (the sf0.01
sweep costs well over an hour there; the driver's own gate still checks
the pinned sf0.01 paths every round). Nodes are marked ``slow`` —
included in the default run, deselectable locally with ``-m "not slow"``
while iterating.
"""

from __future__ import annotations

import re
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)
sys.path.insert(0, os.path.join(ROOT, "tools"))

SF_DIR = "/root/testdata/sf0.001"


def _expected_parquet_names():
    import __ray_entry__ as entry
    from check_oracles import sf_portable

    oracles = entry.oracle_sql()
    return [
        name
        for name in entry.queries()
        if name in oracles and not sf_portable(oracles[name])
    ]


def _rewrite_sf(sql: str) -> str:
    return sql.replace("sf0.01", "sf0.001")


def test_every_registered_query_has_a_guard_node():
    """151/151: every queries() entry is enumerated by one of the two
    guard modules (portable tier + this tier, both at sf0.001)."""
    import __ray_entry__ as entry
    from test_oracle_guard import _portable_names

    qs = set(entry.queries())
    covered = set(_portable_names()) | set(_expected_parquet_names())
    assert covered == qs, f"queries without a CI guard node: {sorted(qs - covered)}"


def test_sf_dependence_is_path_only():
    """The rewrite above is sound only while every 'sf0.01' in a
    non-portable oracle sits inside one of the two expected-path
    families; a literal value derived from the sf0.01 tables would make
    the rewritten compare silently wrong."""
    import __ray_entry__ as entry

    oracles = entry.oracle_sql()
    for name in _expected_parquet_names():
        for m in re.finditer(r"sf0\.01(?!\d)", oracles[name]):
            ctx = oracles[name][max(0, m.start() - 40) : m.end() + 10]
            assert (
                "/tmp/urlmap_corpus/sf0.01" in ctx
                or "/tmp/urlmap_oracle/sf0.01" in ctx
            ), f"{name}: non-path sf0.01 dependence in oracle SQL: {ctx!r}"


@pytest.fixture(scope="module")
def oracle_ctx(ray_session):
    import __ray_entry__ as entry
    from check_oracles import make_con

    con = make_con(SF_DIR)
    yield entry.queries(), entry.oracle_sql(), con
    con.close()


@pytest.mark.slow
@pytest.mark.parametrize("name", _expected_parquet_names())
def test_query_matches_oracle_sf0001(oracle_ctx, name):
    from check_oracles import check_query

    qs, oracles, con = oracle_ctx
    ok, detail = check_query(qs[name], _rewrite_sf(oracles[name]), con, SF_DIR)
    assert ok, f"{name} drifted from its expected-parquet oracle at sf0.001: {detail}"
