"""Seeded end-to-end and per-layer benchmark of deci, driven through its CLI.

Run from the repository root:

    python3 bench/run.py --workload train-default --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --smoke                   # tiny sizes, both modes, self-checks

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end metrics of BENCHMARK.json, measured untraced and
scaled to a reference machine by the slowdown that bench/metronome.py
samples all through the run; with ``--trace 1`` they are its per-layer
metrics, from rounds that alternate untraced and traced. The line before it
holds the environment block and a report with the figures that are not
metrics on every workload. See bench/README.md for the workloads and what
each metric should respond to.
"""

import os

BLAS_THREADS = "1"
# Pinned before numpy is first imported, so the BLAS starts with one thread.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
HELD_OUT_SEED = 7  # later perf claims must also hold on this seed


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": int(BLAS_THREADS)},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_at_start": list(os.getloadavg()),
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple[dict, dict]:
    """Run rounds for `seconds`, at least workload.min_rounds of them, with
    workload.setup_repeats set-ups spread over the run; return (result line,
    report).

    Set-up k is due once k/setup_repeats of `seconds` has passed and runs at
    the next round boundary. Set-up is deterministic, so a repeated set-up
    rebuilds the same inputs. Spreading the set-ups lets the metrics they
    measure see the same spells of a noisy machine as the rounds do. After
    every round the workload's probe, if it has one, runs untraced. With
    trace, even rounds run untraced and odd rounds traced; per-layer figures
    come from the traced rounds only. The metronome samples the machine's
    slowdown after the CLI calls all through the run.
    """
    import tracing
    import workloads as W
    from metronome import Metronome

    workload = W.WORKLOADS[name](seed, smoke)
    work = ROOT / ".bench_work" / f"{name}-{seed}-{os.getpid()}"
    plain, traced = W.Tally(), W.Tally()
    tracer = tracing.Tracer() if trace else None
    plain_spent, traced_spent = [], []
    setups, repeats = plain.samples["setup_s"], workload.setup_repeats
    rounds = 0
    metronome = Metronome()
    W.after_call = metronome.tick
    try:
        metronome.sample()
        begin = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - begin
            if len(setups) < repeats and elapsed >= seconds * len(setups) / repeats:
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                start = time.perf_counter()
                workload.setup(work, plain)
                setup_s = time.perf_counter() - start
                plain.add("setup_s", setup_s, setup_s)
                continue
            if len(setups) == repeats and rounds >= workload.min_rounds and elapsed >= seconds:
                break
            if tracer is not None and rounds % 2 == 1:
                tracer.install()
                try:
                    traced_spent.append(workload.round(work, traced))
                finally:
                    tracer.uninstall()
            else:
                plain_spent.append(workload.round(work, plain))
            workload.probe(work, plain)
            rounds += 1
        metronome.sample()
    finally:
        W.after_call = None
        metronome.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    rss = peak_rss_mb()
    raw = W.end_to_end(plain, rss)
    e2e = W.end_to_end(plain, rss, metronome.speed_at)
    rep = W.report(plain, e2e, raw, metronome.speed(), rounds)
    outcome = W.Tally()
    outcome.merge(plain)
    outcome.merge(traced)
    if tracer is not None:
        overhead = statistics.median(traced_spent) / statistics.median(plain_spent)
        metrics = tracer.metrics(sum(traced_spent), overhead)
        rep["trace_bindings"] = tracer.bindings
    else:
        metrics = e2e
    rep["problems"] = outcome.problems[:20]
    result = {"correct": not outcome.problems, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    return result, rep


def spec_from_file() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def smoke() -> int:
    """Every workload at tiny sizes, untraced and traced: every metric of
    BENCHMARK.json must appear with its unit, every span must be entered."""
    import tracing

    spec = spec_from_file()
    failures = []
    entered = set()
    for name in [w["name"] for w in spec["workloads"]]:
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            result, rep = run_workload(name, DEFAULT_SEED, 0.0, trace, smoke=True)
            want = {m["name"]: m["unit"] for m in listed}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                failures.append(f"{name} trace={int(trace)}: metrics {sorted(set(got) ^ set(want))} "
                                f"differ from BENCHMARK.json")
            if not result["correct"]:
                failures.append(f"{name} trace={int(trace)}: {rep['problems']}")
            if trace:
                entered |= {s for s in tracing.SPAN_NAMES if result["metrics"][f"{s}.calls"]["value"]}
            print(json.dumps({"smoke": name, "trace": int(trace), "result": result}))
    missing = sorted(set(tracing.SPAN_NAMES) - entered)
    if missing:
        failures.append(f"spans never entered: {missing}")
    for failure in failures:
        print(f"smoke: {failure}", file=sys.stderr)
    print(json.dumps({"smoke_ok": not failures}))
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="train-default, score-long-notes, predict-requests or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, both modes, self-checks")
    args = parser.parse_args(argv)
    # A terminated run still stops its metronome and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import deci.cli
    except ImportError as exc:
        print(f"error: cannot import deci from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(deci.cli.__file__).resolve().parent.parent != src:
        print(f"error: deci was imported from {deci.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    import tracing
    import workloads as W

    if args.smoke:
        return smoke()
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in W.WORKLOADS for n in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)} or all")
    env = environment(args.seed)
    for name in names:
        try:
            result, rep = run_workload(name, args.seed, args.seconds, bool(args.trace), smoke=False)
        except (W.SetupError, tracing.TraceCoverageError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        except statistics.StatisticsError as exc:
            print(f"error: {name}: too few successful operations for a metric: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"workload": name, "env": env, "report": rep}))
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
