import dataclasses
import json
import os
import subprocess
import sys

import pytest

import trifuse
from trifuse.bench import BenchRow
from trifuse.cli import _THREAD_VARS
from trifuse.config import RunConfig


def make_tiny_cfg(**overrides) -> RunConfig:
    """A config small enough for whole training runs inside unit tests."""
    base = RunConfig(embed_dim=8, layers=2, heads=2, patch=4,
                     image_h=8, image_w=8, channels=1, n_prompts=2,
                     d_state=2, dt_rank=2, ma_blocks=1,
                     steps=4, eval_every=2, batch_p=2, batch_k=2,
                     num_ids=4, instances_per_id=3,
                     eval_instances_per_id=2, eval_queries_per_id=1,
                     num_cams=2, latent_dim=4, nuisance_dim=2)
    return dataclasses.replace(base, **overrides)


_PINNED_CHILD = """
import dataclasses, importlib, json, sys
module, name, args, kwargs = json.loads(sys.argv[1])
rows = getattr(importlib.import_module(module), name)(*args, **kwargs)
json.dump([dataclasses.asdict(r) for r in rows], sys.stdout)
"""


def run_pinned_script(source: str, *argv: str):
    """Run ``source`` in a child on a one-thread BLAS pool; returns the JSON
    it prints on stdout.

    The pool size has to be set before numpy loads, and numpy is already
    loaded in this process with the library's default pool. The child sets
    the same variables as ``trifuse --threads 1`` and sees ``argv`` as
    ``sys.argv[1:]``.
    """
    env = dict(os.environ)
    env.update({var: "1" for var in _THREAD_VARS})
    src = os.path.dirname(os.path.dirname(os.path.abspath(trifuse.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", source, *argv],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        pytest.fail(f"child exited {proc.returncode}:\n{proc.stderr}",
                    pytrace=False)
    return json.loads(proc.stdout)


def run_pinned(bench_fn, *args, **kwargs) -> list[BenchRow]:
    """Run a ``trifuse.bench`` function in a child on a one-thread BLAS pool.

    A multi-thread pool can switch the matmuls to another kernel partway
    through a length range, which bends a scaling curve that is linear on
    a fixed pool. The child returns the rows as JSON on stdout.
    """
    spec = json.dumps([bench_fn.__module__, bench_fn.__name__, args, kwargs])
    return [BenchRow(**row)
            for row in run_pinned_script(_PINNED_CHILD, spec)]
