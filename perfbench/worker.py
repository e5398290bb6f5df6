"""One benchmark worker: a fresh interpreter that imports hyparr and runs items.

Started by ``run.py``; not meant to be run by hand.  The first line it
prints is ``ready``, as soon as ``import hyparr`` and ``hyparr.cli`` have
returned, so the parent can time set-up from spawn.  With ``--probe`` it
stops there.  Otherwise it runs the workload's items in a closed loop, one
after another, each as ``cli.main([...])`` with stdout captured, and prints
one JSON line with what it measured.

A pass runs every item cold with a fresh cache directory (the timed
phase); then, in a few rounds over the items, it reads each item's lattice
back from the cache with ``lattice`` (the warm reads).  ``--mode run`` makes as many
passes as take about ``--seconds`` (see ``workloads.SIZES``), with a
``speed.Speedometer`` armed to scale its times; ``--mode trace``
makes one pass that runs each item untraced and then traced, and reports
per-layer metrics; ``--mode smoke`` makes two such passes and checks that
their counts repeat exactly.
"""

from __future__ import annotations

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import hyparr  # noqa: E402
import hyparr.cli  # noqa: E402

if not os.path.abspath(hyparr.__file__).startswith(SRC + os.sep):
    sys.exit(f"hyparr was imported from {hyparr.__file__}, not from {SRC}")
print("ready", flush=True)

if "--probe" in sys.argv:
    sys.exit(0)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import traceback  # noqa: E402

import speed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def call(argv: list[str], meter: speed.Speedometer | None = None,
         tally: list | None = None) -> tuple[int, str, float]:
    """Run one CLI call in this process: exit code, stdout, seconds.

    With an armed ``meter``, the seconds exclude the calibration chunks that
    ran during the call, and those chunks' seconds and count are added to
    ``tally``."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    spent, samples = (meter.seconds, meter.samples) if meter else (0.0, 0)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = hyparr.cli.main(argv)
    except Exception:  # an item that raises counts as failed; keep going
        traceback.print_exc(file=sys.stderr)
        code = -1
    if meter:
        spent, samples = meter.seconds - spent, meter.samples - samples
        tally[0] += spent
        tally[1] += samples
    return code, out.getvalue(), time.perf_counter() - start - spent


def parse(text: str) -> dict | None:
    try:
        return json.loads(text)
    except ValueError:
        return None


class Run:
    """Outputs and failures of every pass one worker makes.

    An item execution is one CLI call: a cold call, or one warm read.  Each
    failed execution is counted once, whatever went wrong with it.
    """

    def __init__(self, items: list[workloads.Item], state: str, key: str, warm_repeats: int):
        self.items = items
        self.state = state
        self.key = key
        self.warm_repeats = warm_repeats
        self.walls: list[float] = []         # cold seconds of each pass, untraced
        self.traced_walls: list[float] = []
        self.warms: dict[str, list[float]] = {}  # item -> seconds of each untraced warm read
        self.meter: speed.Speedometer | None = None
        # seconds and count of the calibration chunks that ran during the
        # untraced cold calls, and during the untraced warm reads
        self.tally = {"cold": [0.0, 0], "warm": [0.0, 0]}
        self.attempted = 0
        self.errors: dict[str, str] = {}
        self.hashes: dict[str, str] = {}   # CLI arguments -> sha256 of stdout
        self.passes = 0

    def fail(self, execution: str, problem: str):
        self.errors.setdefault(execution, problem)

    def record(self, execution: str, argv: list[str], out: str):
        """Every call with the same arguments must print the same bytes."""
        digest = hashlib.sha256(out.encode()).hexdigest()
        if self.hashes.setdefault(" ".join(argv), digest) != digest:
            self.fail(execution, "stdout differs from an earlier call with the same arguments")

    def one_pass(self, tr: tracer.Tracer | None = None) -> list[str]:
        """Run every item once, then the warm reads; return the cache
        directories, which the caller removes.

        With a tracer, each call runs twice in a row, untraced and then
        traced, each against its own cache, so that a slow spell of the
        machine falls on both alike."""
        caches = []
        for variant in range(2 if tr else 1):
            caches.append(os.path.join(self.state, "cache",
                                       f"{self.key}-{os.getpid()}-{self.passes}-{variant}"))
            shutil.rmtree(caches[-1], ignore_errors=True)
        self.passes += 1
        wall = traced = 0.0
        colds = []
        for item in self.items:
            seconds, out, report = self.cold(item, caches[0])
            wall += seconds
            colds.append((item, out, report))
            if tr is not None:
                with tracing(tr):
                    traced += self.cold(item, caches[1], tr)[0]
        self.walls.append(wall)
        if tr is not None:
            self.traced_walls.append(traced)
        for repeat in range(self.warm_repeats):
            for item, out, report in colds:
                self.warm(item, caches[0], out, report, repeat)
                if tr is not None:
                    with tracing(tr):
                        self.warm(item, caches[1], out, report, repeat, tr)
        return caches

    def cold(self, item: workloads.Item, cache: str, tr: tracer.Tracer | None = None):
        """One cold call, checked: its seconds, stdout and parsed report."""
        argv = ["--json", "--cache-dir", cache, "--threads", "1"] + item.argv
        tag = f"pass {self.passes}" + (" traced" if tr else "")
        if tr is None:
            code, out, seconds = call(argv, self.meter, self.tally["cold"])
        else:
            code, out, seconds = tr.item(item.label, lambda: call(argv))
        self.attempted += 1
        report = parse(out)
        problem = workloads.check_cold(item, code, report)
        if problem:
            self.fail(f"{item.label} {tag}", problem)
        self.record(f"{item.label} {tag}", item.argv, out)
        return seconds, out, report

    def warm(self, item: workloads.Item, cache: str, out: str, report: dict | None,
             repeat: int, tr: tracer.Tracer | None = None):
        """One warm read of each of the item's specs, checked against its cold call.

        A pass makes its warm reads in rounds over all items after the cold
        phase, so that each item's reads spread over the whole warm phase
        and the chunks timed during them sample that phase alone."""
        glob = ["--json", "--cache-dir", cache, "--threads", "1"]
        tag = f"pass {self.passes}" + (" traced" if tr else "")
        for spec in item.warm_specs:
            if tr is None:
                wcode, wout, seconds = call(glob + ["lattice", spec], self.meter,
                                            self.tally["warm"])
                self.warms.setdefault(item.label, []).append(seconds)
            else:
                wcode, wout, seconds = call(glob + ["lattice", spec])
            self.attempted += 1
            execution = f"{item.label} {tag} warm read {repeat} of {spec}"
            problem = (f"exit code {wcode}" if wcode else
                       workloads.check_warm(item, out, report, wout, parse(wout)))
            if problem:
                self.fail(execution, problem)
            self.record(execution, ["lattice", spec], wout)

    def check_loaded(self, cache: str):
        """Poincare of each warm-loaded ``lattice`` item against its coexponents."""
        from hyparr.analysis import poincare
        from hyparr.cache import load_lattice
        from hyparr.parse import parse_arrangement_file

        for item in self.items:
            if item.kind != "lattice":
                continue
            self.attempted += 1
            arr = parse_arrangement_file(item.warm_specs[0][len("file:"):])
            lattice = load_lattice(arr, cache)
            problem = ("the cache holds no lattice after the pass" if lattice is None else
                       workloads.check_loaded_poincare(
                           item, list(poincare(arr, lattice).coefficients)))
            if problem:
                self.fail(f"{item.label} loaded", problem)


@contextlib.contextmanager
def tracing(tr: tracer.Tracer):
    tr.install()
    try:
        yield
    finally:
        tr.uninstall()


def ledger_check(run: Run, path: str, digest: str, counts: dict | None):
    """Compare stdout hashes, and trace counts, with earlier runs of the same source.

    Hashes are keyed by CLI arguments, which name the input files, whose
    content the workload and seed fix; trace counts by workload and seed.
    """
    ledger = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    book = ledger.setdefault(digest, {"hashes": {}, "counts": {}})
    for argv, value in run.hashes.items():
        if book["hashes"].setdefault(argv, value) != value:
            run.fail(argv, "stdout differs from an earlier run of the same code")
    if counts is not None:
        earlier = book["counts"].setdefault(run.key, counts)
        if earlier != counts:
            diff = sorted(k for k in set(earlier) | set(counts) if earlier.get(k) != counts.get(k))
            run.fail("trace", f"counts differ from an earlier traced run: {diff}")
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, sort_keys=True)
    os.replace(tmp, path)


def source_digest(top: str = os.path.join(SRC, "hyparr")) -> str:
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(top)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".pyx", ".c")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, os.path.dirname(top)).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("run", "trace", "smoke"), required=True)
    parser.add_argument("--state", required=True)
    args = parser.parse_args()

    os.chdir(ROOT)
    key = f"{args.workload}-s{args.seed}"
    items = workloads.make_items(args.workload, args.seed,
                                 os.path.relpath(os.path.join(args.state, "inputs", key)))
    pass_seconds, warm_repeats = workloads.SIZES[args.workload]
    run = Run(items, args.state, key, warm_repeats)
    result: dict = {"backend": hyparr.kernel_backend()}
    counts = None
    if args.mode == "run":
        caches: list[str] = []
        with speed.Speedometer() as run.meter:
            for _ in range(max(1, int(args.seconds // pass_seconds))):
                for cache in caches:
                    shutil.rmtree(cache, ignore_errors=True)
                caches = run.one_pass()
        run.meter = None
    else:
        tr = tracer.Tracer()
        caches = run.one_pass(tr)
        counts = tr.counts()
        result["layers"] = tr.metrics(run.traced_walls[0] / run.walls[0])
        if args.mode == "smoke":
            again = tracer.Tracer()
            for cache in run.one_pass(again):
                shutil.rmtree(cache, ignore_errors=True)
            if again.counts() != counts:
                run.fail("trace", "counts differ between two traced passes")
        spans_dir = os.path.join(args.state, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        with open(os.path.join(spans_dir, f"{key}.json"), "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start", "end", "parent"], "spans": tr.spans},
                      fh)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for cache in caches:
        run.check_loaded(cache)
        shutil.rmtree(cache, ignore_errors=True)
    digest = source_digest()
    # the benchmark's own code fixes the calls, so it keys the ledger too
    ledger_check(run, os.path.join(args.state, "ledger.json"),
                 f"{digest}+{source_digest(os.path.dirname(os.path.abspath(__file__)))}", counts)
    # Seconds of one pass, and of one warm pass, averaged over the passes;
    # ``--mode run`` scales them to reference seconds by the calibration
    # chunks timed during its calls (speed.py), the other modes do not.
    wall = sum(run.walls) / len(run.walls)
    warm = sum(sum(times) / len(times) for times in run.warms.values())
    factors = {phase: speed.scale(*tally) if tally[1] else 1.0
               for phase, tally in run.tally.items()}
    result.update(source=digest, passes=run.passes, raw_wall=wall, raw_warm=warm,
                  scale=factors, chunks={phase: t[1] for phase, t in run.tally.items()},
                  wall=wall * factors["cold"], warm=warm * factors["warm"],
                  attempted=run.attempted, failed=len(run.errors),
                  errors=[f"{k}: {v}" for k, v in list(run.errors.items())[:20]],
                  counts=counts)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
