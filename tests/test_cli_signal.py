"""CLI SIGINT semantics (reference main.go:182-220, e2e_test.go:440-510):
a mid-crawl interrupt still emits the partial sorted URL set, exits 130 with
the checkpoint resumable, and --resume completes to the full visited set.

Runs the CLI in a subprocess (it owns its own Ray session) against a small
corpus, rate-limited so the crawl spans many cheap waves and the signal
deterministically lands mid-crawl.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from urlmap_ray.corpus import generate_corpus
from urlmap_ray.oracle import crawl_sequential, load_corpus_dict

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("sigcorpus")
    return generate_corpus(str(out), 400)


def _cli(info, ck, *extra):
    env = dict(os.environ, PYTHONPATH=REPO, PYTHONUNBUFFERED="1")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "urlmap_ray.cli",
            info.seeds[0],
            "--corpus",
            info.dir,
            "-r",
            "5",
            "--checkpoint",
            ck,
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        text=True,
        cwd=REPO,
    )


def test_cli_sigint_partial_then_resume(small_corpus, tmp_path):
    info = small_corpus
    ck = str(tmp_path / "ck")
    proc = _cli(info, ck)
    # Wait for the first completed wave (its manifest lands atomically at
    # checkpoint time), then interrupt — budget 5/host/wave stretches the
    # crawl over dozens of waves, so the signal lands mid-crawl.
    deadline = time.time() + 120
    first_manifest = os.path.join(ck, "wave-0000", "manifest.json")
    while not os.path.exists(first_manifest):
        assert proc.poll() is None, proc.communicate()
        assert time.time() < deadline, "first wave never completed"
        time.sleep(0.05)
    proc.send_signal(signal.SIGINT)
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 130, (out, err)
    assert "crawl interrupted" in err
    partial = [l for l in out.splitlines() if l.startswith("http")]
    assert partial == sorted(partial)
    assert 0 < len(partial)

    oracle = crawl_sequential(load_corpus_dict(info.pages_path), info.seeds[0])
    assert set(partial) < set(oracle.output_urls)

    proc2 = _cli(info, ck, "--resume")
    out2, err2 = proc2.communicate(timeout=300)
    assert proc2.returncode == 0, (out2, err2)
    assert "crawl complete" in err2
    full = [l for l in out2.splitlines() if l.startswith("http")]
    assert full == oracle.output_urls
