"""The crawl engine: BFS waves as iterative Ray Data passes.

One wave (cf. SURVEY.md §3 E1 restatement; reference loop crawler.go:481-551):

    frontier_d (Parquet, url/depth/host/bucket)
      → politeness gate   row-local (no budget) / driver-side or bucketed
                          groupby(hash(key)).map_groups (budget)   [A2-A3]
      → corpus fetch      map_batches(fetch_batch)               [selective bucket read]
      → link extraction   map_batches(extract_links_batch)       [zero-copy Arrow]
      → results_d         deterministic per-block side-effect write
      → candidates        map_batches(flatten_candidates)        [admission filter M5]
      → wave dedup        groupby(url).min(depth)  [G1 — only when depths mix]
      → seen claim        map_batches(claim_batch → SeenSet)     [A1 LoadOrStore]
      → frontier_{d+1}    (∪ deferred) write_parquet checkpoint

Physical strategies (see SURVEY.md §3): the no-budget fast path fuses the
whole wave into ONE shuffle-free streaming execution; budgeted waves under
``driver_sort_limit`` rows gate + sort driver-side then run the same fused
chain (_run_wave_budget_hybrid); larger budgeted frontiers use the fully
distributed bucketed-groupby + sort path. All bulk data streams through
Datasets with backpressure. Waves smaller than ``small_wave_rows`` run the
*same pure stage functions* driver-side (pyarrow only) — the BFS head and
tail are a handful of rows and don't justify distributed scheduling
overhead; the artifacts written are byte-compatible either way, so resume
and output don't care which path produced a wave. At 10^10-URL scale every
interesting wave takes the distributed path.

Every wave checkpoints frontier, results and seen-set delta as Parquet with
a lineage manifest, written last and atomically (temp file + rename), so a
wave is complete exactly when its manifest parses; ``crawl(...,
resume=True)`` restarts from the last complete wave (rebuilding the seen
shards from the deltas).

Each URL is processed exactly once: candidates are claimed atomically in the
sharded seen set before entering a frontier (the reference's
claim-before-enqueue, crawler.go:754-756), so the final visited output is
the concatenation of all admitted results — no terminal dedup needed.

Where the seen set lives (state/seen.py): each ``crawl()`` starts it in the
driver, and restores a checkpoint there when its journals hold at most
``driver_sort_limit`` URLs, so driver-side waves claim without RPCs and start
no actor. ``SeenSet.distribute()`` moves it to one actor per shard, for the
rest of that crawl, before the first claim made from Ray tasks, at a wave
boundary once it holds more than ``driver_sort_limit`` URLs, and before a
restore of a larger checkpoint (which then stays shard-local). That move is
the only place URL lists pass through the driver, and it is bounded by
``driver_sort_limit``. Either way the fail-stop unit is the wave.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from dataclasses import asdict, dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray
import ray.data

from ..config import CrawlConfig
from ..corpus import CorpusInfo
from ..extract import extract_links_batch
from ..state.seen import SeenSet
from ..stages.fetch import fetch_batch
from ..stages.links import claim_batch, flatten_candidates, frontier_columns
from ..stages.politeness import PolitenessGate, gate_group, gate_rows
from ..urlnorm import URLError, is_valid_url, normalize_url

RESULTS_COLS = ["url", "depth", "attempt", "host", "bucket", "verdict", "status", "links"]


@dataclass
class WaveStats:
    wave: int
    frontier: int = 0
    admitted: int = 0
    deferred: int = 0
    skipped_robots: int = 0
    skipped_depth: int = 0
    results: int = 0
    failed: int = 0
    new_urls: int = 0
    #: transient fetch failures re-enqueued for the next wave (verdict
    #: "retry": flaky page within its window, attempts left — client.go
    #: :63-83 parity as data)
    retried: int = 0
    seconds: float = 0.0
    mode: str = "ray"


@dataclass
class CrawlOutcome:
    checkpoint_dir: str
    waves: list[WaveStats] = field(default_factory=list)
    #: True when the crawl stopped at a wave boundary on request_stop()
    #: (SIGINT/SIGTERM in the CLI, reference main.go:182-220) — the waves
    #: recorded so far are complete and checkpointed, so visited output is
    #: valid-partial and crawl(resume=True) continues from here.
    interrupted: bool = False

    @property
    def total_results(self) -> int:
        return sum(w.admitted for w in self.waves)

    @property
    def max_depth_reached(self) -> int:
        return max((w.wave for w in self.waves if w.admitted), default=0)


def _count_rows(path: str) -> int:
    files = _files(path)
    if not files:
        return 0
    return sum(pq.read_metadata(f).num_rows for f in files)


class _WaveTicker:
    """Sub-wave live progress (reference progress.go:200-254, which updates
    every 500 ms with active workers / queue size): a daemon thread samples
    the wave's results checkpoint every ``interval`` seconds while the
    streaming execution runs and emits ``{wave, elapsed, frontier, fetched,
    rate}``. It reads only parquet FOOTERS of completed block files —
    O(files) metadata, no data pages — so ticking never competes with the
    wave for bandwidth; files mid-write are skipped until complete. No-op
    when ``emit`` is None (quiet mode, bench, tests)."""

    def __init__(self, emit, wave: int, n_frontier: int, results_path: str, interval: float):
        self.emit = emit
        self.wave = wave
        self.n_frontier = n_frontier
        self.results_path = results_path
        self.interval = interval
        self._stop = None

    def _rows_so_far(self) -> int:
        n = 0
        for f in _files(self.results_path):
            try:
                n += pq.read_metadata(f).num_rows
            except Exception:  # footer not landed yet — count it next tick
                pass
        return n

    def _run(self, t0: float) -> None:
        while not self._stop.wait(self.interval):
            elapsed = time.time() - t0
            fetched = self._rows_so_far()
            try:
                self.emit(
                    {
                        "wave": self.wave,
                        "elapsed": elapsed,
                        "frontier": self.n_frontier,
                        "fetched": fetched,
                        "rate": fetched / elapsed if elapsed > 0 else 0.0,
                    }
                )
            except Exception:
                return  # reporting must never kill a crawl

    def __enter__(self):
        if self.emit is not None:
            import threading

            self._stop = threading.Event()
            self._thread = threading.Thread(
                target=self._run, args=(time.time(),), daemon=True
            )
            self._thread.start()
        return self

    def __exit__(self, *exc):
        if self._stop is not None:
            self._stop.set()
            self._thread.join(timeout=self.interval * 4)
        return False


def _files(path: str) -> list[str]:
    if not os.path.isdir(path):
        return []
    return sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
    )


class CrawlEngine:
    def __init__(
        self,
        corpus: CorpusInfo,
        cfg: CrawlConfig = CrawlConfig(),
        checkpoint_dir: str | None = None,
        seen_shards: int = 4,
        wave_seconds: float = 300.0,
        small_wave_rows: int = 1000,
        on_wave=None,
        on_tick=None,
        tick_seconds: float = 0.5,
    ):
        self.corpus = corpus
        self.cfg = cfg
        self.ckpt = checkpoint_dir or os.path.join(corpus.dir, "ckpt")
        self.seen_shards = seen_shards
        self.wave_seconds = wave_seconds
        self.small_wave_rows = small_wave_rows
        #: Sub-wave progress hook: called every tick_seconds DURING a
        #: distributed wave's execution with {wave, elapsed, frontier,
        #: fetched, rate} (reference progress.go:200-254). None = off.
        self.on_tick = on_tick
        self.tick_seconds = tick_seconds
        self._robots_bodies: dict[str, str] | None = None
        self._robots_ref = None
        self._local_gate: PolitenessGate | None = None
        self._stop_requested = False
        #: Progress hook, called with (WaveStats, cumulative CrawlOutcome)
        #: after each completed wave — the reference's live ticker
        #: (progress.go:200-254) mapped onto wave granularity. Exceptions
        #: are swallowed: reporting must never kill a crawl.
        self.on_wave = on_wave

    def request_stop(self) -> None:
        """Ask the crawl loop to stop at the next wave boundary.

        Safe to call from a signal handler: it only flips a flag; the
        in-flight wave runs to completion and is checkpointed, so the
        resulting outcome is a valid resumable prefix of the full crawl
        (reference main.go:182-220 drains in-flight fetches the same way)."""
        self._stop_requested = True

    # -- helpers -----------------------------------------------------------

    def _wave_dir(self, d: int) -> str:
        return os.path.join(self.ckpt, f"wave-{d:04d}")

    def robots_bodies(self) -> dict[str, str]:
        if self._robots_bodies is None:
            if self.cfg.respect_robots and os.path.exists(self.corpus.robots_path):
                tbl = pq.read_table(self.corpus.robots_path)
                self._robots_bodies = dict(
                    zip(tbl.column("origin").to_pylist(), tbl.column("content").to_pylist())
                )
            else:
                self._robots_bodies = {}
        return self._robots_bodies

    def _needs_host_gate(self) -> bool:
        return self.cfg.respect_robots or self.cfg.per_host_budget is not None

    def _gate_kwargs(self) -> dict:
        return dict(
            user_agent=self.cfg.user_agent,
            per_host_budget=self.cfg.per_host_budget,
            respect_robots=self.cfg.respect_robots,
            max_depth=self.cfg.max_depth,
            wave_seconds=self.wave_seconds,
            priority=self.cfg.priority,
        )

    def _salted_gate_kwargs(self) -> dict:
        kw = self._gate_kwargs()
        k = self.cfg.hot_host_salt
        if k > 0:
            if kw["per_host_budget"] is not None:
                kw["per_host_budget"] = -(-kw["per_host_budget"] // k)  # ceil
            kw["wave_seconds"] = kw["wave_seconds"] / k  # scale crawl-delay cap
        return kw

    def warmup(self) -> None:
        """Start Ray worker processes and pay module-import cost before any
        timed work (first-wave latency otherwise includes ~5s of worker
        spawn + imports). Benchmarks call this; correctness paths don't
        need to."""
        n = int(ray.cluster_resources().get("CPU", 4))
        ray.data.range(n * 4, override_num_blocks=n * 4).map_batches(
            _warm_worker, batch_format="pyarrow"
        ).materialize()

    # -- main loop ---------------------------------------------------------

    def crawl(self, seed_url: str | list[str], resume: bool = False) -> CrawlOutcome:
        seed_list = [seed_url] if isinstance(seed_url, str) else list(seed_url)
        for s in seed_list:
            if not is_valid_url(s):
                raise URLError(f"invalid start URL: {s}")
        seeds = [normalize_url(s) for s in seed_list]
        outcome = CrawlOutcome(self.ckpt)

        start_wave = 0
        seen = SeenSet(self.seen_shards)  # in the driver until distribute()
        if resume:
            start_wave = self._restore(seen, outcome)
        if start_wave == 0:
            if os.path.exists(self.ckpt):
                shutil.rmtree(self.ckpt)
            os.makedirs(self.ckpt, exist_ok=True)
            seen.contains_and_add(seeds)
            f0 = os.path.join(self.ckpt, "frontier-0")
            os.makedirs(f0, exist_ok=True)
            pq.write_table(
                frontier_columns(seeds, [0] * len(seeds), self.corpus.partitions),
                os.path.join(f0, "part-0.parquet"),
            )

        d = start_wave
        self._stop_requested = False
        try:
            while True:
                if self._stop_requested:
                    outcome.interrupted = True
                    break
                frontier_path = (
                    os.path.join(self.ckpt, "frontier-0")
                    if d == 0
                    else os.path.join(self._wave_dir(d - 1), "next_frontier")
                )
                n_frontier = _count_rows(frontier_path)
                if n_frontier == 0:
                    break
                if not seen.distributed and seen.total() > self.driver_sort_limit:
                    seen.distribute()
                t0 = time.time()
                wdir = self._wave_dir(d)
                if os.path.exists(wdir):
                    shutil.rmtree(wdir)
                os.makedirs(wdir)
                if n_frontier <= self.small_wave_rows:
                    stats = self._run_wave_local(d, frontier_path, n_frontier, seeds, seen)
                else:
                    stats = self._run_wave_ray(d, frontier_path, n_frontier, seeds, seen)
                stats.seconds = time.time() - t0
                t_ck = time.time()
                self._checkpoint_seen_and_manifest(d, frontier_path, stats, seeds, seen)
                if os.environ.get("URLMAP_STATS"):
                    print(
                        f"wave {d}: total {stats.seconds:.2f}s ckpt {time.time() - t_ck:.2f}s mode={stats.mode}",
                        flush=True,
                    )
                outcome.waves.append(stats)
                if self.on_wave is not None:
                    try:
                        self.on_wave(stats, outcome)
                    except Exception:
                        pass
                d += 1
        finally:
            # Always release the seen-shard actors, if the set was
            # distributed — including on a failed wave (claim tasks are
            # fail-stop; recovery is crawl(resume=True) with a FRESH SeenSet
            # rebuilt from checkpointed journals, so a failed wave's
            # uncheckpointed claims never survive).
            seen.shutdown()
        return outcome

    # -- shared fused stages ----------------------------------------------

    def _slice_blocks(self, tbl: pa.Table):
        """Sorted driver-side table → ``from_arrow`` Dataset whose block
        count scales with the cluster: ~6 wave tasks per CPU, so the
        per-task tail (heavy pages, wide fetch ranges) amortizes instead of
        capping effective concurrency. from_arrow slices pin the block
        layout exactly (read_parquet would re-pack small files into fewer
        tasks). (URLMAP_CHUNK_ROWS overrides rows/chunk for tuning.)"""
        n = tbl.num_rows
        env_rows = os.environ.get("URLMAP_CHUNK_ROWS")
        if env_rows:
            n_chunks = max(1, n // int(env_rows))
        else:
            cpus = int(ray.cluster_resources().get("CPU", 8))
            n_chunks = max(16, min(1024, cpus * 6, n // 64))
        step = max(64, -(-n // n_chunks))
        return ray.data.from_arrow([tbl.slice(off, step) for off in range(0, n, step)])

    def _fetch_extract_flatten(self, ds, results_path: str, seeds):
        """The wave's fused per-block chain: fetch → extract →
        results-checkpoint side effect → flatten/admit candidates."""
        return (
            ds.map_batches(
                _fetch_gated,
                fn_kwargs=dict(
                    pages_dir=self.corpus.pages_path,
                    partitions=self.corpus.partitions,
                    max_attempts=self.cfg.max_attempts,
                ),
                batch_format="pyarrow",
            )
            .map_batches(
                extract_links_batch,
                fn_kwargs=dict(same_domain=self.cfg.same_domain, drop_html=True),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .map_batches(
                _checkpoint_results_passthrough,
                fn_kwargs=dict(results_path=results_path),
                batch_format="pyarrow",
            )
            .map_batches(
                flatten_candidates,
                fn_kwargs=dict(
                    seed_urls=seeds,
                    same_domain=self.cfg.same_domain,
                    same_path_prefix=self.cfg.same_path_prefix,
                    partitions=self.corpus.partitions,
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        )

    def _ticker(self, d: int, n_frontier: int, results_path: str) -> _WaveTicker:
        return _WaveTicker(self.on_tick, d, n_frontier, results_path, self.tick_seconds)

    def _claim_stage(self, ds, seen):
        """Seen-shard claim from Ray tasks, which first moves the set to its
        actors (a no-op once it is there). Claims are side effects on the
        shards: a silently retried task would find its URLs already claimed
        and drop them (lost work). Fail-stop instead — a worker death fails
        the wave, and crawl(resume=True) re-runs it exactly-once (journals
        checkpoint only at wave completion, so a failed wave's claims never
        persist)."""
        seen.distribute()
        return ds.map_batches(
            claim_batch,
            fn_kwargs=dict(seen=seen),
            batch_format="pyarrow",
            max_retries=0,
        )

    # -- distributed wave --------------------------------------------------

    def _run_wave_ray(self, d, frontier_path, n_frontier, seeds, seen) -> WaveStats:
        """No-budget fast path: the entire wave is ONE fused, shuffle-free
        execution — read → gate(row-local) → fetch → extract →
        [side-effect results checkpoint] → flatten/admit → claim → write
        next frontier. With a uniform-depth frontier (no deferral) the
        wave-level groupby-min is a no-op (all candidates share depth d+1),
        so the only cross-task coordination is the seen-shard claim.
        Budgeted crawls take the two-execution path (_run_wave_ray_budget):
        per-host admission needs whole host groups and mixes depths."""
        if self.cfg.per_host_budget is not None:
            return self._run_wave_ray_budget(d, frontier_path, n_frontier, seeds, seen)
        stats = WaveStats(wave=d, frontier=n_frontier, mode="ray")
        stats._t0 = time.time()
        wdir = self._wave_dir(d)
        results_path = os.path.join(wdir, "results")
        next_path = os.path.join(wdir, "next_frontier")
        os.makedirs(results_path, exist_ok=True)

        ds = self._clustered_frontier(frontier_path, n_frontier, wdir)
        if self.cfg.respect_robots:
            # row-local robots+depth verdicts (gate_group routes to gate_rows
            # when no budget is set — robots checked before depth, matching
            # processJob order, crawler.go:583-622)
            if self._robots_ref is None:
                self._robots_ref = ray.put(self.robots_bodies())
            ds = ds.map_batches(
                gate_group,
                fn_kwargs=dict(robots_ref=self._robots_ref, **self._gate_kwargs()),
                batch_format="pyarrow",
            )
        else:
            ds = ds.map_batches(
                _depth_gate,
                fn_kwargs=dict(max_depth=self.cfg.max_depth),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        ds = self._claim_stage(
            self._fetch_extract_flatten(ds, results_path, seeds), seen
        )
        t_exec = time.time()
        with self._ticker(d, n_frontier, results_path):
            ds.write_parquet(next_path, row_group_size=512)
        t_write = time.time()
        if os.environ.get("URLMAP_STATS") == "2":
            print(f"--- wave {d} fused stats ---\n{ds.stats()}", flush=True)
        self._tally_verdicts(results_path, stats)
        if stats.retried:
            self._append_retries(results_path, next_path)
        t_tally = time.time()
        stats.new_urls = _count_rows(next_path) - stats.retried
        if os.environ.get("URLMAP_STATS"):
            print(
                f"wave {d}: setup+sort {t_exec - stats._t0:.2f}s exec {t_write - t_exec:.2f}s "
                f"tally {t_tally - t_write:.2f}s count {time.time() - t_tally:.2f}s",
                flush=True,
            )
        return stats

    # Frontier rows must reach fetch tasks clustered by (bucket, url): each
    # task then reads one contiguous, row-group-pruned slice of one bucket
    # file. Without clustering, hash-spread URLs make every task touch
    # nearly every row group — N_tasks full-corpus decompressions per wave,
    # which flatlines scaling. Below ``driver_sort_limit`` rows the sort is
    # a driver-side pyarrow take (~100ms for 300k rows) spilled as aligned
    # chunk files; Ray's distributed sort (multi-second barrier per wave)
    # only pays for itself on frontiers too big for one process. The same
    # limit caps the seen set kept in the driver (see SeenSet.distribute).
    driver_sort_limit = 5_000_000

    def _clustered_frontier(self, frontier_path: str, n_frontier: int, wdir: str):
        if n_frontier > self.driver_sort_limit:
            return ray.data.read_parquet(frontier_path).sort(["bucket", "url"])
        tbl = pads.dataset(frontier_path, format="parquet").to_table()
        tbl = tbl.take(
            pc.sort_indices(
                tbl, sort_keys=[("bucket", "ascending"), ("url", "ascending")]
            )
        ).combine_chunks()
        return self._slice_blocks(tbl)

    def _run_wave_budget_hybrid(self, d, frontier_path, n_frontier, seeds, seen) -> WaveStats:
        """Budgeted wave, frontier ≤ driver_sort_limit: the gate + admission
        sort run driver-side (pure pyarrow, same PolitenessGate as the
        distributed gate), then ONE fused distributed execution does
        fetch → extract → results checkpoint → flatten → claim → next
        frontier — no per-wave groupby/sort barriers. Budget crawls defer
        heavily (many small waves), so per-wave barrier cost dominates the
        fully-distributed path; this mirrors the no-budget fast path. The
        wave-level min-depth groupby only runs when the frontier actually
        mixes depths (deferral backlog); uniform-depth waves skip it —
        claim-first then equals groupby-min exactly."""
        stats = WaveStats(wave=d, frontier=n_frontier, mode="ray")
        wdir = self._wave_dir(d)
        results_path = os.path.join(wdir, "results")
        next_path = os.path.join(wdir, "next_frontier")
        os.makedirs(results_path, exist_ok=True)
        os.makedirs(next_path, exist_ok=True)

        frontier = pads.dataset(frontier_path, format="parquet").to_table()
        gated = self._gate_local(frontier)
        admit_mask = pc.equal(gated.column("verdict"), "admit")
        admit = gated.filter(admit_mask)
        if admit.num_rows <= self.small_wave_rows:
            # Budget waves carry a big deferral BACKLOG but admit only
            # ~budget×live-hosts rows — routing on frontier size alone
            # sent ~250-row fetches through a full Dataset execution,
            # paying the ~0.2-0.3s startup floor dozens of times per
            # budget crawl (VERDICT r4 #4). Route on the ADMITTED size
            # instead: the driver-side tail is identical semantics (same
            # gate output, same batch fns, same claim shards), and at
            # 10^10-URL scale a wave admitting fewer than small_wave_rows
            # is a drain-tail wave where driver-side is right anyway.
            stats.mode = "local"
            return self._finish_wave_local(
                stats, gated, results_path, next_path, seeds, seen
            )
        rest = gated.filter(pc.invert(admit_mask))
        if rest.num_rows:
            # defer/skip rows: record in results directly (no fetch), exactly
            # the schema _fetch_gated+extract give them on the fused path
            rest_out = pa.table(
                {
                    "url": rest.column("url"),
                    "depth": rest.column("depth"),
                    "attempt": _attempt_col(rest),
                    "host": rest.column("host"),
                    "bucket": rest.column("bucket"),
                    "verdict": rest.column("verdict"),
                    "status": pa.array([-1] * rest.num_rows, pa.int32()),
                    "html": pa.array([None] * rest.num_rows, pa.binary()),
                }
            )
            rest_results = extract_links_batch(
                rest_out, same_domain=self.cfg.same_domain, drop_html=True
            )
            pq.write_table(
                rest_results,
                os.path.join(results_path, "part-rest.parquet"),
                row_group_size=4096,
            )
        if admit.num_rows:
            admit = admit.take(
                pc.sort_indices(
                    admit, sort_keys=[("bucket", "ascending"), ("url", "ascending")]
                )
            ).combine_chunks()
            ds = self._fetch_extract_flatten(
                self._slice_blocks(admit), results_path, seeds
            )
            if len(pc.unique(admit.column("depth"))) > 1:
                ds = (
                    ds.groupby("url")
                    .min("depth")
                    .map_batches(
                        _rebuild_frontier_cols,
                        fn_kwargs=dict(partitions=self.corpus.partitions),
                        batch_format="pyarrow",
                    )
                )
            ds = self._claim_stage(ds, seen)
            with self._ticker(d, n_frontier, results_path):
                ds.write_parquet(next_path, row_group_size=512)
        deferred = rest.filter(pc.equal(rest.column("verdict"), "defer"))
        if deferred.num_rows:
            pq.write_table(
                _cast_frontier(deferred),
                os.path.join(next_path, "part-deferred.parquet"),
                row_group_size=512,
            )
        self._tally_verdicts(results_path, stats)
        if stats.retried:
            self._append_retries(results_path, next_path)
        stats.new_urls = max(0, _count_rows(next_path) - stats.deferred - stats.retried)
        return stats

    def _run_wave_ray_budget(self, d, frontier_path, n_frontier, seeds, seen) -> WaveStats:
        if n_frontier <= self.driver_sort_limit:
            return self._run_wave_budget_hybrid(d, frontier_path, n_frontier, seeds, seen)
        stats = WaveStats(wave=d, frontier=n_frontier, mode="ray")
        wdir = self._wave_dir(d)
        results_path = os.path.join(wdir, "results")
        next_path = os.path.join(wdir, "next_frontier")

        ds = ray.data.read_parquet(frontier_path)
        if self._robots_ref is None:
            self._robots_ref = ray.put(self.robots_bodies())
        # Per-host deterministic admission needs whole host groups. With
        # hot_host_salt=k the group key becomes (host, url_hash%k) and each
        # shard gets ceil(budget/k) quota — a hot host's frontier never
        # lands in one gate task (north_rule skew salting).
        salt = self.cfg.hot_host_salt
        if salt > 0:
            ds = ds.map_batches(
                _add_gate_key, fn_kwargs=dict(salt=salt), batch_format="pyarrow"
            )
            key = "gate_key"
        else:
            key = "host"
        # Group by a fixed HASH BUCKET of the admission key, not the raw key:
        # the shuffle is identical (every key's rows co-locate) but the group
        # count stays ~1k regardless of host count — at 10^8 hosts a raw
        # per-host groupby drowns in per-group dispatch. The gate re-splits
        # buckets by key internally, so verdicts are bucket-count-invariant.
        ds = ds.map_batches(
            _add_group_bucket, fn_kwargs=dict(key=key), batch_format="pyarrow"
        )
        ds = ds.groupby("gb").map_groups(
            gate_group,
            fn_kwargs=dict(robots_ref=self._robots_ref, **self._salted_gate_kwargs()),
            batch_format="pyarrow",
        )
        drop = ["gb"] + (["gate_key"] if salt > 0 else [])
        ds = ds.map_batches(
            lambda t: t.drop_columns([c for c in drop if c in t.column_names]),
            batch_format="pyarrow",
        )
        ds = ds.sort(["bucket", "url"])  # cluster fetch reads (budget path keeps
        # the distributed sort: gated output is already materialized per wave)
        ds = ds.map_batches(
            _fetch_gated,
            fn_kwargs=dict(
                pages_dir=self.corpus.pages_path,
                partitions=self.corpus.partitions,
                max_attempts=self.cfg.max_attempts,
            ),
            batch_format="pyarrow",
        ).map_batches(
            extract_links_batch,
            fn_kwargs=dict(same_domain=self.cfg.same_domain, drop_html=True),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        with self._ticker(d, n_frontier, results_path):
            ds.write_parquet(results_path)
        if os.environ.get("URLMAP_STATS"):
            print(f"--- wave {d} results stats ---\n{ds.stats()}", flush=True)
        self._tally_verdicts(results_path, stats)

        survivors = (
            ray.data.read_parquet(
                results_path,
                columns=["url", "depth", "links"],
                filter=pc.field("verdict") == "admit",
            )
            .map_batches(
                flatten_candidates,
                fn_kwargs=dict(
                    seed_urls=seeds,
                    same_domain=self.cfg.same_domain,
                    same_path_prefix=self.cfg.same_path_prefix,
                    partitions=self.corpus.partitions,
                ),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
            .groupby("url")
            .min("depth")
            .map_batches(
                _rebuild_frontier_cols,
                fn_kwargs=dict(partitions=self.corpus.partitions),
                batch_format="pyarrow",
            )
        )
        survivors = self._claim_stage(survivors, seen)
        if stats.deferred:
            deferred = ray.data.read_parquet(
                results_path,
                columns=["url", "depth", "host", "bucket", "attempt"],
                filter=pc.field("verdict") == "defer",
            ).map_batches(_cast_frontier, batch_format="pyarrow")
            survivors = survivors.union(deferred)
        survivors.write_parquet(next_path)
        if stats.retried:
            self._append_retries(results_path, next_path)
        if os.environ.get("URLMAP_STATS"):
            print(f"--- wave {d} survivors stats ---\n{survivors.stats()}", flush=True)
        stats.new_urls = max(0, _count_rows(next_path) - stats.deferred - stats.retried)
        return stats

    # -- driver-local wave (same stage functions, pyarrow only) ------------

    def _gate_local(self, frontier: pa.Table) -> pa.Table:
        """Driver-side politeness/depth verdicts for one wave's frontier
        (pure pyarrow; same PolitenessGate as the distributed gate)."""
        if not self._needs_host_gate():
            return _depth_gate(frontier, max_depth=self.cfg.max_depth)
        if self._local_gate is None:
            self._local_gate = PolitenessGate(
                self.robots_bodies(), **self._salted_gate_kwargs()
            )
        if self.cfg.per_host_budget is None:
            return gate_rows(self._local_gate, frontier)
        salted = self.cfg.hot_host_salt > 0
        if salted:
            frontier = _add_gate_key(frontier, self.cfg.hot_host_salt)
        # PolitenessGate splits its input by gate_key/host internally
        # (sort + run slicing), so one call gates the whole frontier.
        gated = self._local_gate(frontier)
        if salted:
            gated = gated.drop_columns(["gate_key"])
        return gated

    def _run_wave_local(self, d, frontier_path, n_frontier, seeds, seen) -> WaveStats:
        stats = WaveStats(wave=d, frontier=n_frontier, mode="local")
        wdir = self._wave_dir(d)
        results_path = os.path.join(wdir, "results")
        next_path = os.path.join(wdir, "next_frontier")
        os.makedirs(results_path, exist_ok=True)
        os.makedirs(next_path, exist_ok=True)

        frontier = pads.dataset(frontier_path, format="parquet").to_table()
        gated = self._gate_local(frontier)
        return self._finish_wave_local(
            stats, gated, results_path, next_path, seeds, seen
        )

    def _finish_wave_local(
        self, stats, gated, results_path, next_path, seeds, seen
    ) -> WaveStats:
        """Driver-side wave tail shared by the local path and the budget
        hybrid's small-admit route: fetch admitted rows, extract, record
        results, flatten/claim, carry deferred+retry rows — all pure
        pyarrow, no Dataset execution. Semantics are identical to the
        fused distributed tail by construction (same gate output, same
        batch functions, same seen set, in the driver or on its actors)."""
        fetched = _fetch_gated(
            gated,
            pages_dir=self.corpus.pages_path,
            partitions=self.corpus.partitions,
            max_attempts=self.cfg.max_attempts,
        )
        results = extract_links_batch(fetched, same_domain=self.cfg.same_domain, drop_html=True)
        pq.write_table(
            results, os.path.join(results_path, "part-0.parquet"), row_group_size=512
        )
        self._tally_verdicts(results_path, stats)

        admitted = results.filter(pc.equal(results.column("verdict"), "admit"))
        # flatten_candidates dedups (min depth) within its input batch; the
        # local path passes the whole wave as one batch, so its output is
        # already the wave-level groupby-min result.
        cands = _cast_frontier(
            flatten_candidates(
                admitted.select(["url", "depth", "links"]),
                seed_urls=seeds,
                same_domain=self.cfg.same_domain,
                same_path_prefix=self.cfg.same_path_prefix,
                partitions=self.corpus.partitions,
            )
        )
        survivors = claim_batch(cands, seen=seen)
        deferred = results.filter(pc.equal(results.column("verdict"), "defer")).select(
            ["url", "depth", "host", "bucket", "attempt"]
        )
        retries = results.filter(pc.equal(results.column("verdict"), "retry")).select(
            ["url", "depth", "host", "bucket", "attempt"]
        )
        if retries.num_rows:
            retries = retries.set_column(
                retries.schema.get_field_index("attempt"),
                "attempt",
                pc.add(pc.cast(retries.column("attempt"), pa.int32()), 1),
            )
        nxt = pa.concat_tables(
            [survivors, _cast_frontier(deferred), _cast_frontier(retries)]
        )
        if nxt.num_rows:
            # small row groups → the next distributed wave can split this
            # single file into parallel blocks
            pq.write_table(
                nxt, os.path.join(next_path, "part-0.parquet"), row_group_size=512
            )
        stats.new_urls = survivors.num_rows
        return stats

    # -- shared wave bookkeeping ------------------------------------------

    def _append_retries(self, results_path: str, next_path: str) -> int:
        """Re-enqueue this wave's transient failures (verdict "retry") into
        the next frontier at attempt+1, unchanged depth. Columnar filtered
        read of only the retry rows (a small fraction of results; the
        verdict predicate prunes row groups), written as one sidecar file
        alongside the claim stage's output — schema-identical, so the next
        wave reads both transparently. Returns the retry count."""
        ds = pads.dataset(results_path, format="parquet")
        if "attempt" not in ds.schema.names:
            return 0
        tbl = ds.to_table(
            columns=["url", "depth", "host", "bucket", "attempt"],
            filter=pc.field("verdict") == "retry",
        )
        if tbl.num_rows == 0:
            return 0
        out = _cast_frontier(
            tbl.set_column(
                tbl.schema.get_field_index("attempt"),
                "attempt",
                pc.add(pc.cast(tbl.column("attempt"), pa.int32()), 1),
            )
        )
        os.makedirs(next_path, exist_ok=True)
        pq.write_table(
            out, os.path.join(next_path, "part-retries.parquet"), row_group_size=512
        )
        return tbl.num_rows

    def _tally_verdicts(self, results_path: str, stats: WaveStats) -> None:
        tbl = pads.dataset(results_path, format="parquet").to_table(columns=["verdict", "status"])
        counts = {
            r["values"]: r["counts"] for r in pc.value_counts(tbl.column("verdict")).to_pylist()
        }
        stats.admitted = counts.get("admit", 0)
        stats.deferred = counts.get("defer", 0)
        stats.retried = counts.get("retry", 0)
        stats.skipped_robots = counts.get("skip_robots", 0)
        stats.skipped_depth = counts.get("skip_depth", 0)
        stats.results = stats.admitted
        stats.failed = pc.sum(
            pc.and_(
                pc.equal(tbl.column("verdict"), "admit"),
                pc.not_equal(tbl.column("status"), 200),
            ).cast(pa.int64())
        ).as_py() or 0

    def _checkpoint_seen_and_manifest(self, d, frontier_path, stats, seeds, seen) -> None:
        wdir = self._wave_dir(d)
        seen_dir = os.path.join(wdir, "seen")
        os.makedirs(seen_dir, exist_ok=True)
        seen_rows = seen.checkpoint_journals(seen_dir)
        # Row counts are DERIVED from wave accounting, not re-read from
        # footers: every gated frontier row lands in results exactly once,
        # and the next frontier is claims + deferrals + retries. At scale a
        # wave writes hundreds of block files per dir; three serial
        # footer-scan passes per wave boundary were measurable driver time.
        rows = {
            "results": stats.frontier,
            "next_frontier": stats.new_urls + stats.deferred + stats.retried,
            "seen_delta": seen_rows,
        }
        manifest = {
            "wave": d,
            "seeds": seeds,
            "seen_shards": self.seen_shards,
            "config": asdict(self.cfg),
            "input_frontier": {"path": frontier_path, "rows": stats.frontier},
            "outputs": {
                name: {
                    "path": p,
                    "files": [os.path.basename(f) for f in _files(p)],
                    "rows": rows[name],
                }
                for name, p in [
                    ("results", os.path.join(wdir, "results")),
                    ("next_frontier", os.path.join(wdir, "next_frontier")),
                    ("seen_delta", seen_dir),
                ]
            },
            "stats": asdict(stats),
            "parent_manifest": None
            if d == 0
            else os.path.join(self._wave_dir(d - 1), "manifest.json"),
        }
        # The manifest is the wave's commit point: write it whole or not at all.
        path = os.path.join(wdir, "manifest.json")
        tmp = f"{path}.tmp"
        with open(tmp, "w") as f:
            json.dump(manifest, f, indent=1)
        os.replace(tmp, path)

    # -- resume ------------------------------------------------------------

    def _restore(self, seen: SeenSet, outcome: CrawlOutcome) -> int:
        """Rebuild seen shards from checkpointed deltas; return next wave.

        A wave is complete when its manifest parses; the first missing or
        unparsable (torn) one marks the incomplete wave. Checkpoints whose
        journals hold at most ``driver_sort_limit`` URLs are loaded in the
        driver; larger ones distribute the set first and restore
        shard-locally — the driver only ships PATHS to the shard actors
        (seen.restore_from_journals), so restore memory is per-shard, not
        corpus-wide."""
        manifests: list[dict] = []
        while True:
            path = os.path.join(self._wave_dir(len(manifests)), "manifest.json")
            try:
                with open(path) as fh:
                    manifests.append(json.load(fh))
            except (FileNotFoundError, ValueError):
                break
        incomplete = self._wave_dir(len(manifests))
        if os.path.exists(incomplete):
            shutil.rmtree(incomplete)
        if not manifests:
            return 0
        written_shards: int | None = None
        for m in manifests:
            outcome.waves.append(WaveStats(**m["stats"]))
            written_shards = m.get("seen_shards", written_shards)
        n_seen = sum(m["outputs"]["seen_delta"]["rows"] for m in manifests)
        if n_seen > self.driver_sort_limit:
            seen.distribute()
        seen.restore_from_journals(
            [os.path.join(self._wave_dir(d), "seen") for d in range(len(manifests))],
            written_shards,
        )
        return len(manifests)

    # -- outputs -----------------------------------------------------------

    def visited_dataset(self, with_attempt: bool = False) -> ray.data.Dataset:
        """All crawled URLs (admit verdicts, incl. fetch failures — matching
        output.go:44-78) with depth/status, sorted lexicographically.
        Transient failures that were re-enqueued (verdict "retry") are not
        results; each URL appears exactly once, with its FINAL attempt's
        status (and, with with_attempt=True, how many fetches it took)."""
        paths = [
            f
            for w in sorted(os.listdir(self.ckpt))
            if w.startswith("wave-")
            for f in _files(os.path.join(self.ckpt, w, "results"))
        ]
        cols = ["url", "depth", "status"] + (["attempt"] if with_attempt else [])
        ds = ray.data.read_parquet(
            paths,
            columns=cols,
            filter=pc.field("verdict") == "admit",
        )
        return ds.sort("url")

    def visited_urls(self) -> list[str]:
        """Driver-side sorted URL list (test-scale only)."""
        return [r["url"] for r in self.visited_dataset().select_columns(["url"]).take_all()]


# -- row-local stage helpers (shared by both wave paths) -------------------


def _warm_worker(batch: pa.Table) -> pa.Table:
    import urlmap_ray.extract  # noqa: F401
    import urlmap_ray.stages.fetch  # noqa: F401
    import urlmap_ray.stages.links  # noqa: F401

    time.sleep(0.05)  # hold the slot so Ray actually spawns distinct workers
    return batch


def _checkpoint_results_passthrough(batch: pa.Table, results_path: str) -> pa.Table:
    """Side-effect checkpoint write inside the fused wave chain: each batch
    lands in the results dir, then flows on (minus the columns downstream
    doesn't need). Partial files from a crashed wave are harmless — resume
    discards any wave dir without a manifest.

    The filename is a DETERMINISTIC function of the block (its first URL —
    blocks are disjoint sorted frontier slices, so first URLs are unique
    within a wave): a Ray task retry overwrites its own file instead of
    appending a duplicate, keeping the results checkpoint exactly-once."""
    import hashlib

    if batch.num_rows:
        key = hashlib.md5(batch.column("url")[0].as_py().encode()).hexdigest()[:16]
        pq.write_table(
            batch,
            os.path.join(results_path, f"part-{key}.parquet"),
            row_group_size=4096,
        )
    return batch.select(["url", "depth", "links"])


def _depth_gate(batch: pa.Table, max_depth: int) -> pa.Table:
    if max_depth >= 0:
        verdict = pc.if_else(
            pc.greater(batch.column("depth"), max_depth),
            pa.scalar("skip_depth"),
            pa.scalar("admit"),
        )
    else:
        verdict = pa.array(["admit"] * batch.num_rows, pa.string())
    return batch.append_column("verdict", verdict)


def _attempt_col(tbl: pa.Table) -> pa.ChunkedArray | pa.Array:
    if "attempt" in tbl.column_names:
        return pc.cast(tbl.column("attempt"), pa.int32())
    return pa.array([1] * tbl.num_rows, pa.int32())


def _fetch_gated(
    batch: pa.Table, *, pages_dir: str, partitions: int, max_attempts: int = 3
) -> pa.Table:
    """Fetch bodies for admitted rows; defer/skip rows pass through with
    status=-1 and no html. A transient failure (flaky page within its
    window) with attempts left flips the verdict to "retry" — the engine
    re-enqueues it next wave; the attempt that exhausts max_attempts keeps
    verdict "admit" and lands as a final 503 error result."""
    admit_mask = pc.equal(batch.column("verdict"), "admit")
    admitted = batch.filter(admit_mask)
    rest = batch.filter(pc.invert(admit_mask))
    fetched = fetch_batch(admitted, pages_dir=pages_dir, partitions=partitions)
    retry = pc.and_(
        fetched.column("transient"),
        pc.less(fetched.column("attempt"), pa.scalar(max_attempts, pa.int32())),
    )
    verdict = pc.if_else(retry, pa.scalar("retry"), pa.scalar("admit"))
    fetched = pa.table(
        {
            "url": fetched.column("url"),
            "depth": fetched.column("depth"),
            "attempt": fetched.column("attempt"),
            "host": admitted.column("host"),
            "bucket": admitted.column("bucket"),
            "verdict": verdict,
            "status": fetched.column("status"),
            "html": fetched.column("html"),
        }
    )
    if rest.num_rows == 0:
        return fetched
    rest_out = pa.table(
        {
            "url": rest.column("url"),
            "depth": rest.column("depth"),
            "attempt": _attempt_col(rest),
            "host": rest.column("host"),
            "bucket": rest.column("bucket"),
            "verdict": rest.column("verdict"),
            "status": pa.array([-1] * rest.num_rows, pa.int32()),
            "html": pa.array([None] * rest.num_rows, pa.binary()),
        }
    )
    return pa.concat_tables([fetched, rest_out])


def _add_group_bucket(batch: pa.Table, key: str, buckets: int = 1024) -> pa.Table:
    from ..state.seen import url_hash

    vals = batch.column(key).to_pylist()
    gb = (url_hash(vals) % buckets).astype(np.int64) if vals else np.zeros(0, np.int64)
    return batch.append_column("gb", pa.array(gb, pa.int64()))


def _add_gate_key(batch: pa.Table, salt: int) -> pa.Table:
    from ..state.seen import url_hash

    urls = batch.column("url").to_pylist()
    hosts = batch.column("host").to_pylist()
    shards = url_hash(urls) % salt if urls else []
    keys = [f"{h}#{s}" for h, s in zip(hosts, shards)]
    return batch.append_column("gate_key", pa.array(keys, pa.string()))


def _cast_frontier(batch: pa.Table) -> pa.Table:
    return pa.table(
        {
            "url": pc.cast(batch.column("url"), pa.string()),
            "depth": pc.cast(batch.column("depth"), pa.int32()),
            "host": pc.cast(batch.column("host"), pa.string()),
            "bucket": pc.cast(batch.column("bucket"), pa.int32()),
            "attempt": _attempt_col(batch),
        }
    )


def _rebuild_frontier_cols(batch: pa.Table, partitions: int) -> pa.Table:
    cols = {c: batch.column(c) for c in batch.column_names}
    depth = cols.get("min(depth)", cols.get("depth"))
    urls = cols["url"].to_pylist()
    return frontier_columns(urls, pc.cast(depth, pa.int32()).to_pylist(), partitions)
