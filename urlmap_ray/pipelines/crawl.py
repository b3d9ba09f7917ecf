"""The crawl engine: BFS waves as iterative Ray Data passes.

One wave (cf. SURVEY.md §3 E1 restatement; reference loop crawler.go:481-551)
is three steps of ``CrawlEngine._run_wave``, the only wave method:

    frontier_d (Parquet, url/depth/host/bucket/attempt)
    plan      politeness gate    driver-side, or above driver_sort_limit a
                                 row-local map_batches (no budget) / bucketed
                                 groupby(hash(key)).map_groups (budget) [A2-A3]
              cluster            admitted rows sorted by (bucket, url)
    execute   corpus fetch       fetch_batch               [cached row groups]
              link extraction    extract_links_batch       [zero-copy Arrow]
              results_d          deterministic per-block write (part-<md5>)
              candidates         flatten_candidates        [admission filter M5]
              wave dedup         groupby(url).min(depth)   [G1 — when depths mix]
              seen claim         claim_batch → SeenSet     [A1 LoadOrStore]
    finalize  one scan of results_d: verdict tally, and the defer and retry
              rows (retries at attempt+1, same depth) carried into frontier_{d+1}

Plan gates frontiers of at most ``driver_sort_limit`` rows in the driver (pure
pyarrow) and writes the non-admitted rows' results there; bigger frontiers are
gated and sorted as a Dataset. Execute runs one stage list two ways: folded
in-process over the Arrow table when the wave admits at most
``small_wave_rows`` rows (the BFS head and tail and a budget crawl's drain
waves: too few rows to pay for distributed scheduling; ``WaveStats.mode``
"local"), otherwise as chained ``map_batches`` over the sorted rows (mode
"ray"). Same stage functions, same artifacts, so resume and output don't care
which route produced a wave. Deferred and retried rows re-enter at their own
depth, so a frontier can mix depths; the fold sees the whole wave in one
batch, and the Dataset route runs the wave min-depth groupby whenever the
admitted depths mix (always above ``driver_sort_limit``, where the driver does
not see them). Each step's seconds land in ``WaveStats.stages``.

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
import threading
import time
from collections import Counter
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
    #: wall seconds of the wave's steps: "plan", "execute" and "finalize"
    #: (together nearly all of ``seconds``) and "checkpoint", the seen-journal
    #: write that follows ``seconds``
    stages: dict[str, float] = field(default_factory=dict)


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
    return sum(pq.read_metadata(f).num_rows for f in _files(path))


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
        kw = dict(
            user_agent=self.cfg.user_agent,
            per_host_budget=self.cfg.per_host_budget,
            respect_robots=self.cfg.respect_robots,
            max_depth=self.cfg.max_depth,
            wave_seconds=self.wave_seconds,
            priority=self.cfg.priority,
        )
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
                stats = self._run_wave(d, frontier_path, n_frontier, seeds, seen)
                stats.seconds = time.time() - t0
                self._checkpoint_seen_and_manifest(d, frontier_path, stats, seeds, seen)
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

    # -- one wave: plan → execute → finalize --------------------------------

    def _run_wave(self, d, frontier_path, n_frontier, seeds, seen) -> WaveStats:
        """Run wave ``d`` and return its stats; the only wave method, so the
        routing and the wave min-depth rule are decided here and nowhere
        else (see the module docstring)."""
        stats = WaveStats(wave=d, frontier=n_frontier)
        wdir = self._wave_dir(d)
        results_path = os.path.join(wdir, "results")
        next_path = os.path.join(wdir, "next_frontier")
        os.makedirs(results_path)
        os.makedirs(next_path)
        t0 = time.time()
        admitted = self._plan(frontier_path, n_frontier, results_path)
        t1 = time.time()
        stats.mode = self._execute(d, admitted, n_frontier, results_path, next_path, seeds, seen)
        t2 = time.time()
        self._finalize(stats, results_path, next_path)
        stats.stages = {"plan": t1 - t0, "execute": t2 - t1, "finalize": time.time() - t2}
        return stats

    # Frontier rows must reach fetch tasks clustered by (bucket, url): each
    # task then reads one contiguous, row-group-pruned slice of one bucket
    # file. Without clustering, hash-spread URLs make every task touch
    # nearly every row group — N_tasks full-corpus decompressions per wave,
    # which flatlines scaling. Up to ``driver_sort_limit`` rows the gate and
    # the sort run in the driver (a pyarrow take is ~100ms for 300k rows);
    # Ray's distributed sort (multi-second barrier per wave) only pays for
    # itself on frontiers too big for one process. The same limit caps the
    # seen set kept in the driver (see SeenSet.distribute).
    driver_sort_limit = 5_000_000

    def _plan(self, frontier_path: str, n_frontier: int, results_path: str):
        """Gate the frontier. Returns the admitted rows sorted by (bucket,
        url) as an Arrow table, after writing the other rows' results (no
        fetch), or, above ``driver_sort_limit``, the whole gated frontier as
        a sorted Dataset."""
        if n_frontier > self.driver_sort_limit:
            return self._gate_dataset(frontier_path).sort(["bucket", "url"])
        gated = self._gate_local(pads.dataset(frontier_path, format="parquet").to_table())
        admit_mask = pc.equal(gated.column("verdict"), "admit")
        rest = gated.filter(pc.invert(admit_mask))
        if rest.num_rows:
            rest_results = _unfetched(rest).drop_columns(["html"]).append_column(
                "links", pa.array([[]] * rest.num_rows, pa.list_(pa.string()))
            )
            pq.write_table(
                rest_results,
                os.path.join(results_path, "part-rest.parquet"),
                row_group_size=4096,
            )
        admitted = gated.filter(admit_mask)
        return admitted.take(
            pc.sort_indices(admitted, sort_keys=[("bucket", "ascending"), ("url", "ascending")])
        ).combine_chunks()

    def _gate_local(self, frontier: pa.Table) -> pa.Table:
        """Driver-side politeness/depth verdicts for one wave's frontier
        (pure pyarrow; same PolitenessGate as the distributed gate)."""
        if not self._needs_host_gate():
            return _depth_gate(frontier, max_depth=self.cfg.max_depth)
        if self._local_gate is None:
            self._local_gate = PolitenessGate(self.robots_bodies(), **self._gate_kwargs())
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

    def _gate_dataset(self, frontier_path: str):
        """The gate as a Dataset, for frontiers too big for the driver:
        row-local robots + depth verdicts without a budget (robots checked
        before depth, matching processJob order, crawler.go:583-622), and
        with one the budget's per-host admission, which needs whole host
        groups."""
        ds = ray.data.read_parquet(frontier_path)
        if not self._needs_host_gate():
            return ds.map_batches(
                _depth_gate,
                fn_kwargs=dict(max_depth=self.cfg.max_depth),
                batch_format="pyarrow",
                zero_copy_batch=True,
            )
        if self._robots_ref is None:
            self._robots_ref = ray.put(self.robots_bodies())
        gate_kw = dict(robots_ref=self._robots_ref, **self._gate_kwargs())
        if self.cfg.per_host_budget is None:
            return ds.map_batches(gate_group, fn_kwargs=gate_kw, batch_format="pyarrow")
        # With hot_host_salt=k the group key becomes (host, url_hash%k) and
        # each shard gets ceil(budget/k) quota — a hot host's frontier never
        # lands in one gate task (north_rule skew salting).
        salt = self.cfg.hot_host_salt
        key = "gate_key" if salt > 0 else "host"
        if salt > 0:
            ds = ds.map_batches(
                _add_gate_key, fn_kwargs=dict(salt=salt), batch_format="pyarrow"
            )
        # Group by a fixed HASH BUCKET of the admission key, not the raw key:
        # the shuffle is identical (every key's rows co-locate) but the group
        # count stays ~1k regardless of host count — at 10^8 hosts a raw
        # per-host groupby drowns in per-group dispatch. The gate re-splits
        # buckets by key internally, so verdicts are bucket-count-invariant.
        ds = ds.map_batches(
            _add_group_bucket, fn_kwargs=dict(key=key), batch_format="pyarrow"
        ).groupby("gb").map_groups(gate_group, fn_kwargs=gate_kw, batch_format="pyarrow")
        drop = ["gb"] + (["gate_key"] if salt > 0 else [])
        return ds.map_batches(
            lambda t: t.drop_columns([c for c in drop if c in t.column_names]),
            batch_format="pyarrow",
        )

    def _wave_stages(self, results_path: str, seeds) -> list[tuple]:
        """fetch → extract → results passthrough → flatten, as (function,
        kwargs, map_batches options). Built per wave so that the module's
        stage functions are looked up when the wave runs, which is what lets
        a tracer replace them."""
        zero_copy = dict(zero_copy_batch=True)
        return [
            (
                _fetch_gated,
                dict(
                    pages_dir=self.corpus.pages_path,
                    max_attempts=self.cfg.max_attempts,
                ),
                {},
            ),
            (
                extract_links_batch,
                dict(same_domain=self.cfg.same_domain, drop_html=True),
                zero_copy,
            ),
            (_checkpoint_results_passthrough, dict(results_path=results_path), {}),
            (
                flatten_candidates,
                dict(
                    seed_urls=seeds,
                    same_domain=self.cfg.same_domain,
                    same_path_prefix=self.cfg.same_path_prefix,
                    partitions=self.corpus.partitions,
                ),
                zero_copy,
            ),
        ]

    def _execute(self, d, admitted, n_frontier, results_path, next_path, seeds, seen) -> str:
        """Fetch, extract and record the admitted rows, then claim their
        candidates and write the claimed ones as the next frontier. Returns
        the route taken: ``"local"`` (folded in-process) or ``"ray"``."""
        stages = self._wave_stages(results_path, seeds)
        if isinstance(admitted, pa.Table) and admitted.num_rows <= self.small_wave_rows:
            # One batch holds the whole wave, so flatten's own min depth per
            # URL is already the wave-level groupby-min.
            batch = admitted
            for fn, kwargs, _ in stages:
                batch = fn(batch, **kwargs)
            survivors = claim_batch(batch, seen=seen)
            if survivors.num_rows:
                # small row groups → the next distributed wave can split this
                # single file into parallel blocks
                pq.write_table(
                    survivors, os.path.join(next_path, "part-0.parquet"), row_group_size=512
                )
            return "local"
        if isinstance(admitted, pa.Table):
            mixed_depths = len(pc.unique(admitted.column("depth"))) > 1
            ds = self._slice_blocks(admitted)
        else:
            mixed_depths = True  # rows are not visible to the driver
            ds = admitted
        for fn, kwargs, options in stages:
            ds = ds.map_batches(fn, fn_kwargs=kwargs, batch_format="pyarrow", **options)
        if mixed_depths:
            # Deferred and retried rows re-enter at their own depth, so two
            # blocks can propose one URL at different depths; claim-first
            # alone would keep whichever block claimed first.
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
        return "ray"

    def _slice_blocks(self, tbl: pa.Table):
        """Sorted driver-side table → ``from_arrow`` Dataset whose block
        count scales with the cluster: ~6 wave tasks per CPU, so the
        per-task tail (heavy pages, wide fetch ranges) amortizes instead of
        capping effective concurrency. from_arrow slices pin the block
        layout exactly (read_parquet would re-pack small files into fewer
        tasks)."""
        n = tbl.num_rows
        cpus = int(ray.cluster_resources().get("CPU", 8))
        n_chunks = max(16, min(1024, cpus * 6, n // 64))
        step = max(64, -(-n // n_chunks))
        return ray.data.from_arrow([tbl.slice(off, step) for off in range(0, n, step)])

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

    def _finalize(self, stats: WaveStats, results_path: str, next_path: str) -> None:
        """One columnar scan of the wave's results: tally the verdicts, and
        carry the defer rows, plus the retry rows at attempt+1 and unchanged
        depth (oracle.py's wave re-enqueue), into the next frontier as one
        sidecar file beside the claimed URLs. The scan streams batch by
        batch, so driver memory is bounded by a batch, not by the wave."""
        stats.new_urls = _count_rows(next_path)
        counts: Counter = Counter()
        failed = 0
        writer = None
        scan = pads.dataset(results_path, format="parquet").to_batches(
            columns=["url", "depth", "host", "bucket", "attempt", "verdict", "status"]
        )
        for batch in scan:
            tbl = pa.Table.from_batches([batch])
            verdict = tbl.column("verdict")
            counts.update(
                {r["values"]: r["counts"] for r in pc.value_counts(verdict).to_pylist()}
            )
            failed += pc.sum(
                pc.and_(
                    pc.equal(verdict, "admit"), pc.not_equal(tbl.column("status"), 200)
                ).cast(pa.int64())
            ).as_py() or 0
            carry = tbl.filter(pc.is_in(verdict, pa.array(["defer", "retry"])))
            if carry.num_rows:
                retry = pc.cast(pc.equal(carry.column("verdict"), "retry"), pa.int32())
                carry = _cast_frontier(carry)
                carry = carry.set_column(
                    carry.schema.get_field_index("attempt"),
                    "attempt",
                    pc.add(carry.column("attempt"), retry),
                )
                if writer is None:
                    writer = pq.ParquetWriter(
                        os.path.join(next_path, "part-carry.parquet"), carry.schema
                    )
                writer.write_table(carry, row_group_size=512)
        if writer is not None:
            writer.close()
        stats.admitted = stats.results = counts["admit"]
        stats.deferred = counts["defer"]
        stats.retried = counts["retry"]
        stats.skipped_robots = counts["skip_robots"]
        stats.skipped_depth = counts["skip_depth"]
        stats.failed = failed

    # -- shared wave bookkeeping ------------------------------------------

    def _checkpoint_seen_and_manifest(self, d, frontier_path, stats, seeds, seen) -> None:
        wdir = self._wave_dir(d)
        seen_dir = os.path.join(wdir, "seen")
        os.makedirs(seen_dir, exist_ok=True)
        t0 = time.time()
        seen_rows = seen.checkpoint_journals(seen_dir)
        stats.stages["checkpoint"] = time.time() - t0
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

    def _complete_manifest(self, d: int) -> dict | None:
        """Wave ``d``'s manifest if the wave is complete, else None.

        Complete means the manifest parses (a missing or torn one does
        not) and every file its ``outputs.*.files`` lists is present,
        checked with one listdir per output dir. Output dirs are taken
        relative to the wave dir, so a moved checkpoint still restores."""
        wdir = self._wave_dir(d)
        try:
            with open(os.path.join(wdir, "manifest.json")) as fh:
                manifest = json.load(fh)
        except (FileNotFoundError, ValueError):
            return None
        for out in manifest["outputs"].values():
            out_dir = os.path.join(wdir, os.path.basename(out["path"]))
            present = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
            if not present.issuperset(out["files"]):
                return None
        return manifest

    def _restore(self, seen: SeenSet, outcome: CrawlOutcome) -> int:
        """Rebuild seen shards from checkpointed deltas; return next wave.

        The first wave that is not complete (``_complete_manifest``) is
        the incomplete one: its dir and every later wave's dir are removed.
        Checkpoints whose journals hold at most ``driver_sort_limit`` URLs
        are loaded in the driver; larger ones distribute the set first and
        restore shard-locally — the driver only ships PATHS to the shard
        actors (seen.restore_from_journals), so restore memory is
        per-shard, not corpus-wide."""
        manifests: list[dict] = []
        while (m := self._complete_manifest(len(manifests))) is not None:
            manifests.append(m)
        if os.path.isdir(self.ckpt):
            for name in os.listdir(self.ckpt):
                if name.startswith("wave-") and int(name[5:]) >= len(manifests):
                    shutil.rmtree(os.path.join(self.ckpt, name))
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


# -- row-local stage helpers ------------------------------------------------


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


def _fetch_gated(batch: pa.Table, *, pages_dir: str, max_attempts: int = 3) -> pa.Table:
    """Fetch bodies for admitted rows; defer/skip rows pass through with
    status=-1 and no html. A transient failure (flaky page within its
    window) with attempts left flips the verdict to "retry" — the engine
    re-enqueues it next wave; the attempt that exhausts max_attempts keeps
    verdict "admit" and lands as a final 503 error result."""
    admit_mask = pc.equal(batch.column("verdict"), "admit")
    admitted = batch.filter(admit_mask)
    rest = batch.filter(pc.invert(admit_mask))
    fetched = fetch_batch(admitted, pages_dir=pages_dir)
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
    return pa.concat_tables([fetched, _unfetched(rest)])


def _unfetched(rest: pa.Table) -> pa.Table:
    """Result rows, before extraction, for gated rows that are not fetched
    (defer and skip verdicts): status -1 and no html."""
    return pa.table(
        {
            "url": rest.column("url"),
            "depth": rest.column("depth"),
            "attempt": _attempt_col(rest),
            "host": rest.column("host"),
            "bucket": rest.column("bucket"),
            "verdict": rest.column("verdict"),
            "status": pa.array([-1] * rest.num_rows, pa.int32()),
            "html": pa.nulls(rest.num_rows, pa.binary()),
        }
    )


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
    depths = pc.cast(batch.column("min(depth)"), pa.int32()).to_pylist()
    return frontier_columns(batch.column("url").to_pylist(), depths, partitions)
