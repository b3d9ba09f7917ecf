"""Sharded URL-seen set — the distributed form of the reference's
``visited sync.Map`` claim-before-enqueue semantics (crawler.go:68, 754-756).

``LoadOrStore`` becomes ``contains_and_add`` on shards routed by
``hash(canonical_url) % num_shards``. Each shard is an exact Python set of
canonical URLs plus a journal of the additions since the last checkpoint.

Where the set lives: a :class:`SeenSet` starts with its shards IN the driver
process, so a crawl whose waves all run driver-side (the BFS head and tail,
budget drain waves, a restore of a small checkpoint) claims with plain method
calls and starts no process. :meth:`SeenSet.distribute` moves it, once and for
the rest of that crawl, to one ``SeenShard`` actor per shard: the engine calls
it before the first claim made from Ray tasks and at a wave boundary once the
set outgrows ``driver_sort_limit`` URLs. ``distribute()`` ships each shard's
exact set and pending journal to its actor; it is the only place URL lists
pass through the driver, bounded by that limit. At cluster scale the shard
count is sized so each exact set fits one worker's heap (10^10 URLs / 4096
shards ≈ 2.4M URLs/shard ≈ 200MB).

Shards journal their additions per wave so the whole set can be rebuilt from
Parquet checkpoints after a failure (see pipelines/crawl.py). The files are
the same under either placement, so a checkpoint written in the driver
resumes on actors and vice versa.

Failure model — deliberately FAIL-STOP at wave granularity, in both places.
Actors are created WITHOUT ``max_restarts``, so a dead shard raises out of the
next ``ray.get`` instead of being silently replaced by an empty restart (a
fresh shard would drop its claims → re-crawled URLs → duplicate output, the
one wrongness the engine may never emit); in-driver shards die with the
driver. The crash-consistent unit is the WAVE: the journals checkpoint at each
wave boundary, and resume (``restore_from_journals``) replays the crawl from
the last complete wave with the identical final output (test-pinned by
test_resume_identical).

There is no approximate filter in front of the exact set. A cuckoo or Bloom
filter only pays when a miss saves a trip to an exact set that is off-heap or
remote (on disk, or across the network from the caller); bring one back only
for such a set. Here each exact set is in the heap of the process that probes
it, and a set lookup is cheaper than a filter probe.

This is the one deliberately non-Dataset piece of the engine: a shared
mutable index that map_batches tasks consult mid-stream cannot be expressed
as a Dataset op without materializing an anti-join per wave. (The bulk
*wave-level* dedup IS a Dataset groupby — the shards only arbitrate claims
across waves.)
"""

from __future__ import annotations

import os
from collections.abc import Iterable

import numpy as np
import pandas as pd
import ray


def url_hash(urls) -> np.ndarray:
    """Stable 64-bit hash of canonical URLs (pandas hash_array: vectorized,
    process-independent). Used for shard routing and bucketing."""
    arr = np.asarray(urls, dtype=object)
    if len(arr) == 0:
        return np.zeros(0, dtype=np.uint64)
    return pd.util.hash_array(arr, categorize=False)


class SeenShard:
    """One shard of the URL-seen set. All URLs routed here satisfy
    ``url_hash(url) % num_shards == shard_id``. A plain object in the driver;
    :data:`SeenShardActor` is the same class as a Ray actor."""

    def __init__(self, shard_id: int, exact: Iterable[str] = (), journal: Iterable[str] = ()):
        self.shard_id = shard_id
        self.exact = set(exact)
        self.journal = list(journal)  # additions since the last checkpoint

    def contains_and_add(self, urls: list[str]) -> np.ndarray:
        """Atomic LoadOrStore over a batch: returns mask of NEW urls (True =
        first claim, caller may enqueue). Duplicate urls within the batch:
        first occurrence wins."""
        new_mask = np.zeros(len(urls), dtype=bool)
        for i, u in enumerate(urls):
            if u not in self.exact:
                self.exact.add(u)
                self.journal.append(u)
                new_mask[i] = True
        return new_mask

    def bulk_load_files(self, paths: list[str], filter_mod: int | None = None) -> int:
        """Restore from journal Parquet files, without journaling. On an
        actor the files are read INSIDE it — the driver passes paths, never
        URL lists (at 10^10 URLs a driver-side relay is an OOM).
        ``filter_mod`` is set when the checkpoint was written with a
        different shard count: this shard then keeps only the urls routed to
        it under the CURRENT layout (url_hash % filter_mod == shard_id); with
        a matching layout each shard reads exactly its own files unfiltered."""
        import pyarrow.parquet as pq

        for p in paths:
            urls = pq.read_table(p, columns=["url"]).column("url").to_pylist()
            if filter_mod is not None and urls:
                mask = (url_hash(urls) % filter_mod) == self.shard_id
                urls = [u for u, m in zip(urls, mask) if m]
            self.exact.update(urls)
        return len(self.exact)

    def checkpoint_journal(self, path: str) -> int:
        """Write (and clear) this shard's journal as Parquet — inside the
        actor when distributed, so the driver never relays the URL lists."""
        n = len(self.journal)
        if n:
            import pyarrow as pa
            import pyarrow.parquet as pq

            pq.write_table(
                pa.table({"url": pa.array(self.journal, pa.string())}), path
            )
            self.journal = []
        return n

    def size(self) -> int:
        return len(self.exact)


SeenShardActor = ray.remote(num_cpus=0.25)(SeenShard)


class SeenSet:
    """Driver-side handle for the shards: in-process until :meth:`distribute`,
    then actor handles (the only form that may be shipped to Ray tasks)."""

    def __init__(self, num_shards: int):
        self.num_shards = num_shards
        self.local: list[SeenShard] | None = [SeenShard(i) for i in range(num_shards)]
        self.shards: list = []  # actor handles once distributed

    @property
    def distributed(self) -> bool:
        return self.local is None

    def distribute(self) -> None:
        """Move every shard, with its exact set and pending journal, to its
        own actor; from here on the actors are the authority. No-op when the
        set is already distributed."""
        if self.local is None:
            return
        self.shards = [
            SeenShardActor.remote(s.shard_id, s.exact, s.journal) for s in self.local
        ]
        self.local = None

    def __getstate__(self):
        if self.local is not None:
            # a copy of in-driver shards would claim against itself and lose
            # every claim it makes
            raise TypeError("an in-driver SeenSet cannot be pickled; call distribute() first")
        return self.__dict__

    def _call(self, method: str, args_by_shard: dict[int, tuple]) -> dict[int, object]:
        """Run ``method`` on the given shards, in the driver or on the
        actors (all actor calls in flight at once)."""
        if self.local is not None:
            return {i: getattr(self.local[i], method)(*a) for i, a in args_by_shard.items()}
        futs = [getattr(self.shards[i], method).remote(*a) for i, a in args_by_shard.items()]
        return dict(zip(args_by_shard, ray.get(futs)))

    def contains_and_add(self, urls: list[str]) -> np.ndarray:
        """Batch claim across shards; preserves input order in the mask."""
        if not urls:
            return np.zeros(0, dtype=bool)
        shard_of = (url_hash(urls) % self.num_shards).astype(np.int64)
        idxs = {}
        for s in range(self.num_shards):
            idx = np.flatnonzero(shard_of == s)
            if len(idx):
                idxs[s] = idx
        out = self._call(
            "contains_and_add", {s: ([urls[i] for i in idx],) for s, idx in idxs.items()}
        )
        mask = np.zeros(len(urls), dtype=bool)
        for s, idx in idxs.items():
            mask[idx] = out[s]
        return mask

    def checkpoint_journals(self, seen_dir: str) -> int:
        """Every shard writes its delta (in parallel when distributed);
        returns total new urls."""
        paths = {
            i: (os.path.join(seen_dir, f"shard-{i:04d}.parquet"),) for i in range(self.num_shards)
        }
        return sum(self._call("checkpoint_journal", paths).values())

    def restore_from_journals(self, seen_dirs: list[str], written_shards: int | None) -> None:
        """Rebuild the shards from checkpointed journal files.

        Journal files are named shard-%04d.parquet by the shard that wrote
        them. When ``written_shards`` matches this set's layout each shard
        reads only its own files; otherwise (or when the writer count is
        unknown — old manifests) every shard scans all files filtered by the
        current hash routing. When distributed, URLs flow storage → shard
        actor directly; the driver only lists paths."""
        if written_shards == self.num_shards:
            args = {}
            for i in range(self.num_shards):
                mine = [
                    p
                    for d in seen_dirs
                    for p in [os.path.join(d, f"shard-{i:04d}.parquet")]
                    if os.path.exists(p)
                ]
                if mine:
                    args[i] = (mine, None)
        else:
            all_files = [
                os.path.join(d, f)
                for d in seen_dirs
                if os.path.isdir(d)
                for f in sorted(os.listdir(d))
                if f.endswith(".parquet")
            ]
            args = {i: (all_files, self.num_shards) for i in range(self.num_shards) if all_files}
        self._call("bulk_load_files", args)

    def total(self) -> int:
        return sum(self._call("size", {i: () for i in range(self.num_shards)}).values())

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []
