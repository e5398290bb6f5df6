#!/usr/bin/env python3
"""The hyparr benchmark: CLI workloads timed end to end, and traced per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload smoke --seed 1 --seconds 1 --trace 0

Workloads (``perfbench/workloads.py`` holds the items and references):

* ``paper``: ``verify-paper NAME`` for each of the 15 arrangements with a
  published non-modularity claim set: every witness, rank2-empty claim and
  their rank2-criterion claims (45 claims).  It reads the fixed catalog, so
  the seed has no effect.
* ``products``: ``poincare product(file:A,file:B)`` for six factor pairs;
  the seed shuffles the hyperplane order in the factor files.
* ``lattice``: ``lattice FILE`` for six large lattices, cold (build and
  save) and then warm (load only); the seed shuffles hyperplane order.
* ``paper-all``: the full replay ``verify-paper all`` (about 70 s on the
  pure backend), for runs by hand.
* ``smoke``: D4, B2 x A2 and F4 through the same paths, with two traced
  passes whose counts must agree; a few seconds.

Every run starts one fresh worker process (``worker.py``) that runs the
items one after another with ``--threads 1``; no two workers run at once.
With ``--trace 0`` the run also starts a few workers that only import
hyparr, to time set-up, and prints the end-to-end metrics:

* ``wall_s``: seconds of the cold phase, every item called once, averaged
  over the passes;
* ``warm_s``: seconds of one warm pass, which reads each item's lattice back
  from the cache its cold call filled: per item the mean of its warm reads,
  summed over the items;
* ``setup_s``: median seconds from spawning a worker until ``import hyparr``
  and ``hyparr.cli`` have returned;
* ``peak_rss_mb``: the worker's peak resident set size after its passes.

The three times are in reference seconds (``speed.py``): each is scaled by
how long a fixed calibration chunk took while it was measured, so that the
host's slow and fast spells cancel out.  Chunks run on a timer signal inside
the timed calls, and their time is taken out of the calls; cold calls and
warm reads are each scaled by the chunks that ran among them.  For set-up,
chunks run just before each probe.  The stamp line keeps the unscaled
seconds and the factors.

With ``--trace 1`` the worker runs each item untraced and then traced, and
the run prints the per-layer metrics of the traced calls (``tracer.py``).
Items that raise, exit non-zero, miss a hand-written reference or print
other bytes than an earlier call with the same arguments count as failed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it stamps the environment.
Run state (inputs, caches, the determinism ledger, span files) goes to
``.perfbench_state/`` in the checkout.  The worker always runs the
pure-Python kernel (``HYPARR_PURE=1``), the one tier-1 tests run; the stamp
records the backend, and ``compare.py`` refuses to compare results made
with different backends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE = os.path.join(ROOT, ".perfbench_state")
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 10
SETUP_CHUNKS = 20  # calibration chunks before each set-up probe
WORKER_TIMEOUT = 170

sys.path.insert(0, HERE)
import speed  # noqa: E402
from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("warm_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def spawn(args: list[str], env: dict) -> tuple[float, str, str]:
    """Start a worker; return seconds until it printed ``ready``, then its
    remaining stdout and its stderr.  Raises if it fails."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, WORKER] + args, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        out, err = proc.communicate(timeout=WORKER_TIMEOUT)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker failed (exit {proc.returncode}):\n{first}{out}\n{err}")
    return ready, out, err


def setup_seconds(env: dict) -> tuple[float, float]:
    """Median seconds from spawn to ``ready`` over a few workers that only
    import hyparr, and the factor to reference seconds (speed.py) from
    calibration chunks timed just before each spawn."""
    setups, chunks = [], []
    for _ in range(SETUP_PROBES):
        chunks += speed.time_chunks(SETUP_CHUNKS)
        setups.append(spawn(["--probe"], env)[0])
    return statistics.median(setups), speed.scale(sum(chunks), len(chunks))


def git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    path = os.path.join(ROOT, ".git", ref[5:])
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, so that spawn() stops its worker on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isdir(os.path.join(ROOT, "src", "hyparr")):
        print(f"perfbench: no hyparr sources under {ROOT}/src", file=sys.stderr)
        return 2
    env = dict(os.environ, HYPARR_PURE="1")
    smoke = args.workload == "smoke"
    mode = "smoke" if smoke else ("trace" if args.trace else "run")
    _, out, err = spawn(["--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--mode", mode,
                         "--state", STATE], env)
    sys.stderr.write(err)
    result = json.loads(out.strip().splitlines()[-1])
    if result["backend"] != "python":
        print(f"perfbench: the worker ran the {result['backend']} kernel, not the "
              "pure-Python one", file=sys.stderr)
        return 2

    setup = setup_scale = None
    if args.trace:
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit, _ in LAYER_METRICS}
    else:
        setup, setup_scale = setup_seconds(env)
        values = {"wall_s": result["wall"],
                  "warm_s": result["warm"],
                  "setup_s": setup * setup_scale,
                  "peak_rss_mb": result["rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}

    for error in result["errors"]:
        print(f"perfbench: failed: {error}", file=sys.stderr)
    failed, attempted = result["failed"], result["attempted"]
    stamp = {"backend": result["backend"], "nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "git_sha": git_sha(),
             "source_sha256": result["source"], "workload": args.workload,
             "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
             "passes": result["passes"], "failed_frac": failed / attempted,
             "unscaled": {"wall_s": result["raw_wall"], "warm_s": result["raw_warm"],
                          "setup_s": setup},
             "scale": dict(result["scale"], setup=setup_scale), "chunks": result["chunks"],
             "counts": result["counts"]}
    print(json.dumps({"env": stamp}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
