"""Microbench for the seen set's claim path (state/seen.py).

    python tools/seen_bench.py [--batches 20] [--batch-size 2000] [--reps 3]

Prints, one ``name value unit`` line each:

- ``claim_inproc_us_per_url``: ``SeenShard.contains_and_add`` called in this
  process, per URL, on batches of ``--batch-size`` URLs;
- ``claim_actor_us_per_url``: the same batches through a ``SeenShardActor``
  (round trip included);
- ``spawn_to_first_claim_s``: a 2-shard ``SeenSet`` moved to its actors
  (``distribute()``) and its first batch claimed, from a cold start;
- ``first_claim_inproc_s``: the same first claim with the set left in the
  driver.

Half of each batch is URLs an earlier batch claimed, as in a crawl, where
most extracted links are already seen. Timings are medians over ``--reps``
repetitions. It starts a 2-CPU local Ray session and shuts it down.
"""

from __future__ import annotations

import argparse
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)


def _batches(n_batches: int, size: int) -> list[list[str]]:
    """Batch b holds the second half of batch b-1's URLs and ``size // 2``
    new ones."""
    half = size // 2
    urls = [f"https://h{i % 20:05d}.example.org/p/{i}" for i in range((n_batches + 1) * half)]
    return [urls[b * half : b * half + size] for b in range(n_batches)]


def _per_url(claim, batches: list[list[str]]) -> float:
    t0 = time.perf_counter()
    for b in batches:
        claim(b)
    return (time.perf_counter() - t0) / sum(map(len, batches)) * 1e6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--batches", type=int, default=20)
    ap.add_argument("--batch-size", type=int, default=2000)
    ap.add_argument("--reps", type=int, default=3)
    args = ap.parse_args(argv)

    import ray

    from urlmap_ray.state.seen import SeenSet, SeenShard, SeenShardActor

    batches = _batches(args.batches, args.batch_size)
    # the actors import the seen module from this checkout
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in [ROOT, os.environ.get("PYTHONPATH")] if p
    )
    ray.init(address="local", num_cpus=2, include_dashboard=False, logging_level="ERROR")
    try:
        inproc = [_per_url(SeenShard(0).contains_and_add, batches) for _ in range(args.reps)]
        actor = []
        for _ in range(args.reps):
            a = SeenShardActor.remote(0)
            ray.get(a.size.remote())  # started: time the claims, not the spawn
            actor.append(_per_url(lambda b: ray.get(a.contains_and_add.remote(b)), batches))
            ray.kill(a)
        spawn, local = [], []
        for _ in range(args.reps):
            t0 = time.perf_counter()
            seen = SeenSet(2)
            seen.distribute()
            seen.contains_and_add(batches[0])
            spawn.append(time.perf_counter() - t0)
            seen.shutdown()
            t0 = time.perf_counter()
            SeenSet(2).contains_and_add(batches[0])
            local.append(time.perf_counter() - t0)
    finally:
        ray.shutdown()
    print(f"claim_inproc_us_per_url {statistics.median(inproc):.3f} us/url")
    print(f"claim_actor_us_per_url {statistics.median(actor):.3f} us/url")
    print(f"spawn_to_first_claim_s {statistics.median(spawn):.4f} s")
    print(f"first_claim_inproc_s {statistics.median(local):.6f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
