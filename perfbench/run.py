"""Crawl-engine benchmark: one command per (workload, seed) run.

    python3 perfbench/run.py --workload crawl_budget --seed 1 --seconds 15 --trace 0

A run makes its workload's inputs from ``--seed`` and caches them, with the
reference digests, under ``.perfbench/`` in the repository root (the
preparation runs in a child process, outside every timed window). It then
starts a Ray session with 2 logical CPUs, the smallest that runs the engine,
and runs checked passes back to back from this single driver process (a
closed loop with one client) until ``--seconds`` have passed and the
workload's minimum number of passes is done. Every pass is compared with the
reference; a pass that raises or differs counts as failed.

``--trace 0`` reports the end-to-end metrics; the session is started and
warmed up three times and ``setup_s`` is the median. ``--trace 1`` runs the
same window untraced and then traced (with :mod:`perfbench.trace` wrappers
in the driver and every Ray worker) and reports the per-layer metrics. The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import trace  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

NUM_CPUS = 2
OBJECT_STORE_BYTES = 256 << 20
SETUPS = 3
WORK_DIR = os.path.join(ROOT, ".perfbench")
# Ray puts "session_<time>_<pid>/sockets/plasma_store" (62 bytes) under its
# temp dir, and an AF_UNIX socket path may not exceed 107 bytes.
MAX_RAY_TMP_LEN = 40


def _set_ray_env() -> None:
    os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
    os.environ.setdefault("RAY_DATA_DISABLE_PROGRESS_BARS", "1")
    os.environ.setdefault("RAY_DISABLE_IMPORT_WARNING", "1")
    # Ray workers and the preparation child import the engine and the trace
    # hook from this checkout.
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if ROOT not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([ROOT] + [p for p in paths if p])


def _proc_table() -> dict[int, tuple[int, str]]:
    """pid → (parent pid, state) for every live process."""
    out = {}
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                fields = f.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        out[int(name)] = (int(fields[1]), fields[0])
    return out


def _descendants() -> set[int]:
    table = _proc_table()
    found, frontier = set(), [os.getpid()]
    while frontier:
        parent = frontier.pop()
        kids = [p for p, (pp, _) in table.items() if pp == parent and p not in found]
        found.update(kids)
        frontier.extend(kids)
    return found


def _wait_gone(pids: set[int], timeout: float) -> set[int]:
    deadline = time.monotonic() + timeout
    while True:
        table = _proc_table()
        alive = {p for p in pids if p in table and table[p][1] != "Z"}
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.1)


class Session:
    """One Ray session; ``setup_s`` is its start plus the engine's warmup."""

    def __init__(self, ray_tmp: str, info, trace_dir: str | None = None):
        _set_ray_env()
        import ray

        from urlmap_ray.pipelines.crawl import CrawlEngine

        runtime_env = None
        if trace_dir is not None:
            runtime_env = {
                "worker_process_setup_hook": "perfbench.trace.worker_setup",
                "env_vars": {trace.TRACE_DIR_ENV: trace_dir},
            }
        self._before = _descendants()
        t0 = time.perf_counter()
        ray.init(
            address="local",
            num_cpus=NUM_CPUS,
            object_store_memory=OBJECT_STORE_BYTES,
            include_dashboard=False,
            logging_level="ERROR",
            log_to_driver=False,
            runtime_env=runtime_env,
            _temp_dir=ray_tmp,
        )
        CrawlEngine(info).warmup()
        self.setup_s = time.perf_counter() - t0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        import ray

        procs = _descendants() - self._before
        ray.shutdown()
        alive = _wait_gone(procs, timeout=20)
        for pid in alive:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        _wait_gone(alive, timeout=5)
        return False


def run_window(workload, rec, seconds: float) -> list:
    """Passes back to back until ``seconds`` have passed and the workload's
    ``min_passes`` are done; a pass that raised is recorded as None."""
    passes = []
    t_end = time.perf_counter() + seconds
    while True:
        try:
            passes.append(workload.run_pass(rec))
        except Exception:
            traceback.print_exc()
            passes.append(None)
        if time.perf_counter() >= t_end and len(passes) >= workload.min_passes:
            return passes


def end_to_end(setups: list[float], passes: list) -> dict:
    done = [p for p in passes if p is not None]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "job_s": (statistics.median(p.job_s for p in done), "s"),
        "pages_per_s": (statistics.median(p.pages / p.job_s for p in done), "pages/s"),
        "resume_s": (statistics.median(p.resume_s for p in done), "s"),
        "driver_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"
        ),
    }


def _within(s: dict, window: dict) -> bool:
    return window["start"] <= s["start"] and s["end"] <= window["end"]


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def _per_window_median(spans: list[dict], name: str, windows: list[dict]) -> float:
    """Median over ``windows`` of the time spent in ``name`` spans inside each
    (the same median over restarts that ``resume_s`` takes)."""
    per = [
        sum(s["end"] - s["start"] for s in spans if s["name"] == name and _within(s, w))
        for w in windows
    ]
    return statistics.median(per) if per else 0.0


def _pass_layers(spans: list[dict], job: dict, resumes: list[dict], visited: dict | None) -> dict:
    """Per-layer figures of one traced pass. Stage spans are summed over the
    job window; restore and edge-rebuild spans are summed per resume window,
    and the median over the pass's resume windows is taken."""
    by = defaultdict(list)
    for s in spans:
        if _within(s, job):
            by[s["name"]].append(s)

    def secs(name):
        return sum(s["end"] - s["start"] for s in by[name])

    def total(name, field):
        return sum(s.get(field) or 0 for s in by[name])

    wave_s = sorted(s["seconds"] for s in by["wave"])
    job_s = job["end"] - job["start"]
    extract_pages = total("extract", "pages")
    return {
        "crawl.waves": (len(wave_s), "count"),
        "crawl.ray_waves": (sum(s["mode"] == "ray" for s in by["wave"]), "count"),
        "crawl.wave_s_p50": (statistics.median(wave_s) if wave_s else 0.0, "s"),
        "crawl.wave_s_p90": (
            statistics.quantiles(wave_s, n=10, method="inclusive")[8] if len(wave_s) > 1
            else sum(wave_s), "s",
        ),
        "crawl.between_waves_s": (job_s - sum(wave_s) if wave_s else 0.0, "s"),
        "crawl.deferred_rows": (total("wave", "deferred"), "count"),
        "gate.s": (secs("gate"), "s"),
        "gate.rows": (total("gate", "rows_in"), "count"),
        "gate.admit_frac": (_frac(total("gate", "admitted"), total("gate", "rows_in")), "ratio"),
        "fetch.s": (secs("fetch"), "s"),
        "fetch.rows": (total("fetch", "rows_in"), "count"),
        "fetch.hit_frac": (_frac(total("fetch", "hits"), total("fetch", "rows_in")), "ratio"),
        "fetch.html_mb": (total("fetch", "html_bytes") / 1e6, "MB"),
        "extract.s": (secs("extract"), "s"),
        "extract.pages": (extract_pages, "count"),
        "extract.links": (total("extract", "links"), "count"),
        "extract.us_per_page": (_frac(secs("extract") * 1e6, extract_pages), "us/page"),
        "flatten.s": (secs("flatten"), "s"),
        "flatten.admit_frac": (
            _frac(total("flatten", "rows_out"), total("flatten", "links")), "ratio"
        ),
        "claim.s": (secs("claim"), "s"),
        "claim.cands": (total("claim", "rows_in"), "count"),
        "claim.new_frac": (_frac(total("claim", "rows_out"), total("claim", "rows_in")), "ratio"),
        "seen.ckpt_s": (secs("seen.ckpt"), "s"),
        "seen.restore_s": (_per_window_median(spans, "seen.restore", resumes), "s"),
        "seen.urls": (total("seen.ckpt", "rows_out"), "count"),
        "visited.s": (visited["end"] - visited["start"] if visited else 0.0, "s"),
        "graph.edges_s": (_per_window_median(spans, "graph.edges", resumes), "s"),
        "graph.pagerank_s": (secs("graph.pagerank"), "s"),
        "graph.pagerank_shuffle_s": (secs("graph.pagerank_shuffle"), "s"),
        "graph.hits_s": (secs("graph.hits"), "s"),
        "graph.hits_shuffle_s": (secs("graph.hits_shuffle"), "s"),
    }


def annotate_waves(spans: list[dict]) -> None:
    """Give every span inside a crawl job the wave it ran in: the first wave
    of that job to end after it."""
    for job in (s for s in spans if s["name"] == "job"):
        inside = [s for s in spans if _within(s, job)]
        waves = sorted((s for s in inside if s["name"] == "wave"), key=lambda s: s["end"])
        for s in inside:
            if s["name"] != "wave":
                s["wave"] = next((w["wave"] for w in waves if w["end"] >= s["end"]), None)


def per_layer(spans: list[dict], untraced: list, traced: list) -> dict:
    """Median over traced passes of each pass's per-layer figures."""
    spans = trace.outermost(spans)
    jobs = [s for s in spans if s["name"] == "job"]
    rows = []
    for i, job in enumerate(jobs):
        window = {"start": job["start"], "end": jobs[i + 1]["start"] if i + 1 < len(jobs) else float("inf")}
        resumes = [s for s in spans if s["name"] == "resume" and _within(s, window)]
        visited = next((s for s in spans if s["name"] == "visited" and _within(s, window)), None)
        rows.append(_pass_layers(spans, job, resumes, visited))
    out = {k: (statistics.median(r[k][0] for r in rows), unit) for k, (_, unit) in rows[0].items()}
    job_s = [statistics.median(p.job_s for p in ps if p is not None) for ps in (traced, untraced)]
    out["trace.overhead_s"] = (job_s[0] - job_s[1], "s")
    return out


def overhead_note(untraced: list, traced: list) -> str:
    """How far ``trace.overhead_s`` can be trusted: it is a difference of two
    medians, so it means little unless both sides have a few passes and it
    exceeds the spread of the untraced passes."""
    sides = [sorted(p.job_s for p in ps if p is not None) for ps in (untraced, traced)]
    spread = sides[0][-1] - sides[0][0] if sides[0] else float("nan")
    if min(map(len, sides)) < 3:
        status = "unresolved (fewer than 3 passes a side)"
    elif abs(statistics.median(sides[1]) - statistics.median(sides[0])) <= spread:
        status = "unresolved (within the untraced spread)"
    else:
        status = "resolved"
    return (
        f"trace.overhead_s is {status}: {len(sides[0])} untraced and {len(sides[1])} traced"
        f" passes; untraced job_s spans {spread:.4f} s (max - min)"
    )


def _ray_tmp() -> str:
    path = os.path.join(WORK_DIR, "ray")
    if len(path) <= MAX_RAY_TMP_LEN:
        os.makedirs(path, exist_ok=True)
        return path
    # the checkout path is too long for Ray's socket paths
    return tempfile.mkdtemp(prefix="perfbench-ray-")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cls = WORKLOADS[args.workload]
    cache_dir = os.path.join(WORK_DIR, "cache", f"{args.workload}-s{args.seed}")
    # a child process, so preparation memory is not the driver's
    _set_ray_env()
    subprocess.run(
        [sys.executable, "-c", "import sys; from perfbench.workloads import prepare; "
         "prepare(sys.argv[1], sys.argv[2], int(sys.argv[3]))",
         args.workload, cache_dir, str(args.seed)],
        check=True,
    )
    workload = cls(cache_dir, args.seed)

    ray_tmp = _ray_tmp()
    try:
        if not args.trace:
            with Session(ray_tmp, workload.info) as s:
                setups = [s.setup_s]
                passes = run_window(workload, trace.NullRecorder(), args.seconds)
            for _ in range(SETUPS - 1):
                with Session(ray_tmp, workload.info) as s:
                    setups.append(s.setup_s)
            all_passes = passes
        else:
            with Session(ray_tmp, workload.info):
                untraced = run_window(workload, trace.NullRecorder(), args.seconds)
            trace_dir = os.path.join(WORK_DIR, "trace", f"{args.workload}-s{args.seed}")
            shutil.rmtree(trace_dir, ignore_errors=True)
            os.makedirs(trace_dir)
            rec = trace.Recorder(trace_dir)
            with Session(ray_tmp, workload.info, trace_dir=trace_dir):
                uninstall = trace.install(rec)
                try:
                    traced = run_window(workload, rec, args.seconds)
                finally:
                    uninstall()
            all_passes = untraced + traced
    finally:
        shutil.rmtree(ray_tmp, ignore_errors=True)

    failed = sum(p is None or not p.ok for p in all_passes)
    if all(p is None for p in all_passes):
        print("every pass raised; nothing was measured", file=sys.stderr)
        return 1
    if args.trace:
        spans = trace.load_spans(trace_dir)
        annotate_waves(spans)
        with open(os.path.join(trace_dir, "trace.jsonl"), "w") as f:
            f.writelines(json.dumps(s) + "\n" for s in spans)
        metrics = per_layer(spans, untraced, traced)
    else:
        metrics = end_to_end(setups, passes)

    print(f"workload {args.workload} seed {args.seed} passes {len(all_passes)}")
    print(f"failed_frac {failed / len(all_passes)} ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    if args.trace:
        print(overhead_note(untraced, traced))
    result = {
        "correct": failed == 0,
        "attempted": len(all_passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
