"""The repository's benchmark: one command, two workloads, every output checked.

Run from the repository root::

    python3 perfbench/run.py --workload noise_merge --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing traced:
set-up (open the session or service plus its first cold run, done
several times, median reported), median run wall time, throughput and
peak RSS.  ``--trace 1`` runs the same timed loop for its
counters, then replays the workload serially in this process through the
layers' public functions with a benchmark-side span around each call
(see ``replay.py``) and reports the per-layer metrics.

Both modes check every output and count failures; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is the
full record: host fingerprint, git revision, seed, sample counts and
any errors.  Records and span files are also written under
``perfbench/.work/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="run the workload at its small smoke size")
    p.add_argument("--write-reference", action="store_true",
                   help="record this run's reference outputs into "
                        "reference.json (use with the default seed)")
    return p.parse_args(argv)


def load_spec() -> dict:
    """The metric lists of ``BENCHMARK.json`` (next to ``perfbench/``)."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from "
              "a full checkout of the repository", file=sys.stderr)
        return 2
    # a terminated run still closes its pools and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    run_dir = WORK / f"run-{os.getpid()}"
    (run_dir / "tmp").mkdir(parents=True, exist_ok=True)
    # keep every temporary file of the program inside the checkout
    os.environ["TMPDIR"] = str(run_dir / "tmp")
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bench  # noqa: F401  (imports repro)
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        shutil.rmtree(run_dir, ignore_errors=True)
        return 2
    try:
        return bench.run(args, load_spec(), run_dir)
    finally:
        stop_children()
        shutil.rmtree(run_dir, ignore_errors=True)


def stop_children(timeout: float = 10.0) -> None:
    """Stop every process the run started and wait until each has ended.

    Pool workers are joined (terminated if they outstay ``timeout``).
    The helpers multiprocessing starts by itself (the shared-memory
    resource tracker, a fork server) would otherwise exit only after
    this process does, and linger unreaped; they are asked to stop and
    reaped here.  Any other child still left is killed and reaped.
    """
    import multiprocessing
    from multiprocessing import forkserver, resource_tracker

    for child in multiprocessing.active_children():
        child.join(timeout)
        if child.is_alive():
            child.terminate()
            child.join(timeout)
        if child.is_alive():
            child.kill()
            child.join()
    # closing a helper's "alive" pipe makes it exit; _stop then reaps it
    for helper in (resource_tracker._resource_tracker, forkserver._forkserver):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            try:
                stop()
            except OSError:
                pass
    for pid in _child_pids():
        _reap(pid, timeout)


def _child_pids() -> list[int]:
    """Pids of this process's children (Linux ``/proc``; else none)."""
    me, pids = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # the field after "(comm)" is the state, the next one the ppid
        if int(stat[stat.rfind(")") + 2:].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _reap(pid: int, timeout: float) -> None:
    """Wait up to ``timeout`` for child ``pid`` to exit, then kill it."""
    import time

    deadline = time.monotonic() + timeout
    try:
        while os.waitpid(pid, os.WNOHANG) == (0, 0):
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                return
            time.sleep(0.05)
    except ChildProcessError:
        pass


if __name__ == "__main__":
    sys.exit(main())
