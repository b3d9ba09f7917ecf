"""Span tracing for the benchmark's traced run.

The engine records no spans of its own, so the traced run wraps the public
functions it calls from outside: :func:`install` replaces each target in
:data:`TARGETS` with a :class:`Traced` stand-in that appends one JSON line
per call to ``spans-<pid>.jsonl`` in the trace directory (name, start, end,
pid, rows in and out, and the layer's counters).

Stage functions also run inside Ray workers: the fused wave chain ships them
to tasks, and ``_fetch_gated`` calls ``fetch_batch`` there. Workers install
the same wrappers through Ray's ``worker_process_setup_hook``
(:func:`worker_setup`), which reads the trace directory from
``PERFBENCH_TRACE_DIR``.
"""

from __future__ import annotations

import glob
import importlib
import importlib.abc
import importlib.util
import json
import os
import sys
import time
import types
from contextlib import contextmanager

import pyarrow as pa
import pyarrow.compute as pc

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


def _count(mask) -> int:
    return int(pc.sum(mask.cast(pa.int64())).as_py() or 0)


def _links_total(tbl: pa.Table) -> int:
    if "links" not in tbl.column_names:
        return 0
    return int(pc.sum(pc.list_value_length(tbl.column("links"))).as_py() or 0)


def _gate_counts(batch: pa.Table, out: pa.Table) -> dict:
    return {"admitted": _count(pc.equal(out.column("verdict"), "admit"))}


def _fetch_counts(batch: pa.Table, out: pa.Table) -> dict:
    # status 0 = the URL is not in the corpus (a dangling link)
    return {
        "hits": _count(pc.not_equal(out.column("status"), 0)),
        "html_bytes": int(pc.sum(pc.binary_length(out.column("html"))).as_py() or 0),
    }


def _extract_counts(batch: pa.Table, out: pa.Table) -> dict:
    return {
        "pages": batch.num_rows - batch.column("html").null_count,
        "links": _links_total(out),
    }


def _flatten_counts(batch: pa.Table, out: pa.Table) -> dict:
    return {"links": _links_total(batch)}


#: (module, attribute, span name, counters) for every wrapped call. The crawl
#: module imports its stage functions by name, so they are patched there, not
#: in their defining modules (which also keeps the originals importable, and so
#: picklable by reference). Calls nested in a span of the same name and
#: process (``gate_group`` → ``PolitenessGate.__call__``) are dropped by
#: :func:`outermost`.
TARGETS = [
    ("urlmap_ray.pipelines.crawl", "gate_rows", "gate", _gate_counts),
    ("urlmap_ray.pipelines.crawl", "gate_group", "gate", _gate_counts),
    ("urlmap_ray.stages.politeness", "PolitenessGate.__call__", "gate", _gate_counts),
    ("urlmap_ray.pipelines.crawl", "fetch_batch", "fetch", _fetch_counts),
    ("urlmap_ray.pipelines.crawl", "extract_links_batch", "extract", _extract_counts),
    ("urlmap_ray.pipelines.crawl", "flatten_candidates", "flatten", _flatten_counts),
    ("urlmap_ray.pipelines.crawl", "claim_batch", "claim", None),
    ("urlmap_ray.state.seen", "SeenSet.checkpoint_journals", "seen.ckpt", None),
    ("urlmap_ray.state.seen", "SeenSet.restore_from_journals", "seen.restore", None),
]


class Recorder:
    """Appends spans to ``spans-<pid>.jsonl`` under ``trace_dir``.

    It holds only the directory, so it pickles into Ray workers together with
    the wrappers that use it; each process writes its own file."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir

    def write(self, name: str, start: float, end: float, **fields) -> None:
        pid = os.getpid()
        line = json.dumps({"name": name, "start": start, "end": end, "pid": pid, **fields})
        with open(os.path.join(self.trace_dir, f"spans-{pid}.jsonl"), "a") as f:
            f.write(line + "\n")

    @contextmanager
    def span(self, name: str, **fields):
        t0 = time.time()
        yield
        self.write(name, t0, time.time(), **fields)

    def on_wave(self, stats, outcome) -> None:
        """``CrawlEngine(on_wave=...)`` hook: one span per completed wave."""
        end = time.time()
        self.write(
            "wave", end - stats.seconds, end,
            wave=stats.wave, mode=stats.mode, seconds=stats.seconds, deferred=stats.deferred,
        )


class NullRecorder:
    """Recorder for untraced passes: spans cost nothing and go nowhere."""

    on_wave = None

    @contextmanager
    def span(self, name: str, **fields):
        yield


class Traced:
    """Callable stand-in for ``fn`` that records one span per call.

    It deliberately does not copy ``fn.__module__``/``__qualname__`` as
    ``functools.wraps`` would: cloudpickle pickles a function by reference
    when its module attribute resolves to it, so Ray workers would receive
    the unwrapped original and record nothing."""

    def __init__(self, fn, name: str, counters, recorder: Recorder):
        self.fn = fn
        self.name = name
        self.counters = counters
        self.recorder = recorder
        self.__name__ = name  # Ray Data names its map operators after the UDF

    def __get__(self, obj, objtype=None):
        # patched onto a class, the wrapper must bind like the method it replaces
        return self if obj is None else types.MethodType(self, obj)

    def __call__(self, *args, **kwargs):
        t0 = time.time()
        out = self.fn(*args, **kwargs)
        t1 = time.time()
        tbl = next((a for a in args if isinstance(a, pa.Table)), None)
        fields = {
            "rows_in": tbl.num_rows if tbl is not None else None,
            "rows_out": out.num_rows if isinstance(out, pa.Table) else out,
        }
        if self.counters is not None and tbl is not None:
            fields.update(self.counters(tbl, out))
        self.recorder.write(self.name, t0, t1, **fields)
        return out


def _patch(module: str, recorder: Recorder, undo: list) -> None:
    """Wrap the targets that live in ``module``; already wrapped ones stay."""
    for mod, attr, name, counters in TARGETS:
        if mod != module:
            continue
        owner = importlib.import_module(module)
        *path, leaf = attr.split(".")
        for p in path:
            owner = getattr(owner, p)
        orig = getattr(owner, leaf)
        if not isinstance(orig, Traced):
            setattr(owner, leaf, Traced(orig, name, counters, recorder))
            undo.append((owner, leaf, orig))


def install(recorder: Recorder):
    """Wrap every target in :data:`TARGETS`; returns a function that undoes it."""
    undo: list = []
    for module in dict.fromkeys(t[0] for t in TARGETS):
        _patch(module, recorder, undo)

    def uninstall() -> None:
        for owner, leaf, orig in reversed(undo):
            setattr(owner, leaf, orig)

    return uninstall


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Wraps a module's targets right after the module is first imported.

    Worker processes that never import the crawl engine, such as the seen-set
    actors, then do not pay for importing it (and Ray Data with it)."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.pending = {t[0] for t in TARGETS}

    def find_spec(self, name, path, target=None):
        if name not in self.pending:
            return None
        self.pending.discard(name)
        spec = importlib.util.find_spec(name)
        exec_module = spec.loader.exec_module

        def exec_and_patch(module):
            exec_module(module)
            _patch(name, self.recorder, [])

        spec.loader.exec_module = exec_and_patch
        return spec


def worker_setup() -> None:
    """Ray ``worker_process_setup_hook``: wrap the targets in a worker as
    their modules get imported."""
    sys.meta_path.insert(0, _PatchOnImport(Recorder(os.environ[TRACE_DIR_ENV])))


def load_spans(trace_dir: str) -> list[dict]:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as f:
            spans.extend(json.loads(line) for line in f if line.strip())
    return sorted(spans, key=lambda s: s["start"])


def outermost(spans: list[dict]) -> list[dict]:
    """Drop spans that lie inside another span of the same name and process."""
    kept: list[dict] = []
    open_end: dict[tuple, float] = {}
    for s in sorted(spans, key=lambda s: (s["start"], -s["end"])):
        key = (s["name"], s["pid"])
        if s["end"] <= open_end.get(key, float("-inf")):
            continue
        open_end[key] = s["end"]
        kept.append(s)
    return kept
