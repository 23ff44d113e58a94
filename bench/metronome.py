"""A fixed reference kernel, timed in a child process, to track machine speed.

The benchmark runs on shared machines whose speed drifts with the host's
load: the same work can take 1.4x longer in one minute than in the next, and
every figure of a run moves with it. The benchmark therefore samples, all
through a run, the machine's slowdown: how much longer than on the reference
machine this fixed kernel takes. It divides each timed sample of deci's work
by the slowdown while that work ran, or multiplies each rate by it, which
gives the figure on the reference machine (see ``Metronome.speed_at``). The
unscaled figures stay in the report.

The kernel runs in a child process that imports numpy and nothing of deci,
so no change to deci (its threads, its garbage-collector settings, its
memory) can change how long the kernel takes: only the machine can. Its four
parts are deci's kinds of work: note records through JSON and a vocabulary,
label attention and its gradient contractions in einsum at deci's default
sizes, an argsort as in the AUC, and a bare interpreter loop. Each part
weighs the same in the slowdown, so no one kind of work stands for the
machine. The parent asks for one sample at a time and waits for it, so the
kernel never runs beside deci.

Run as a script, it serves samples: each line on stdin asks for one, and the
reply is the slowdown.
"""

import bisect
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

# The time of each part of the kernel on the machine the benchmark was written
# on, a 2-vCPU Intel Xeon VM with OpenBLAS pinned to one thread.
REFERENCE_S = {"records": 0.0035, "einsum": 0.014, "argsort": 0.002, "loop": 0.0046}
# The least gap, in seconds of the run, between two samples. A sample is
# taken after every CLI call that ends this long after the last sample, so
# every call of this length or longer has a sample right before and right
# after it.
EVERY_S = 0.3
# A span's slowdown is the median of the kernel samples taken within a
# margin before and after it: WINDOW_S, or the span's own length if that is
# longer, and at least NEAREST samples. The machine's speed changes within a
# second, so the nearest samples track a short call best; a long call is
# better matched by as long a stretch on each side as the call itself.
WINDOW_S = 0.5
NEAREST = 2


def kernel() -> float:
    """One fixed piece of work in four parts; returns the machine's slowdown
    against the reference, the mean over the parts of time / REFERENCE_S.
    Each part weighs the same, whatever its length."""
    import numpy as np

    seconds = {}
    start = time.perf_counter()
    # Note-like records through JSON, then tokenized against a vocabulary.
    rng = random.Random(0)
    vocab = [f"tok{i}" for i in range(500)]
    notes = [{"id": f"d{i}", "text": " ".join(rng.choice(vocab) for _ in range(24)),
              "codes": ["C001", "C002"], "age": 40, "gender": "F"} for i in range(150)]
    text = "".join(json.dumps(n) + "\n" for n in notes)
    index = {w: i for i, w in enumerate(vocab)}
    ids = [[index.get(w, 1) for w in json.loads(line)["text"].split()] for line in text.splitlines()]
    seconds["records"] = time.perf_counter() - start

    # Label attention and its gradient contractions at deci's default sizes.
    start = time.perf_counter()
    g = np.random.default_rng(0)
    b, n, d, labels, paths = 32, 16, 100, 20, 3
    embed, proj = g.standard_normal((600, d)), g.standard_normal((d, d)) * 0.1
    queries, experts = g.standard_normal((labels, d)), g.standard_normal((paths, labels, d))
    batch = g.integers(0, 600, (b, n))
    for _ in range(6):
        encoded = np.tanh(embed[batch] @ proj)
        logits = np.einsum("ld,bnd->bln", queries, encoded)
        att = np.exp(logits - logits.max(axis=-1, keepdims=True))
        att /= att.sum(axis=-1, keepdims=True)
        label_repr = np.einsum("bln,bnd->bld", att, encoded)
        scores = np.einsum("fld,bld->bfl", experts, label_repr)
        np.einsum("bfl,bld->fld", scores, label_repr)
        np.einsum("bfl,fld->bld", scores, experts)
    seconds["einsum"] = time.perf_counter() - start

    # Ranking, as in the AUC.
    start = time.perf_counter()
    for _ in range(3):
        np.argsort(g.standard_normal(20000))
    seconds["argsort"] = time.perf_counter() - start

    # A bare interpreter loop.
    start = time.perf_counter()
    total = 0
    for i in range(60000):
        total += i * i % 7
    seconds["loop"] = time.perf_counter() - start
    if total < len(ids):
        raise AssertionError("unreachable: keeps the work live")
    return statistics.fmean(seconds[k] / REFERENCE_S[k] for k in REFERENCE_S)


class Metronome:
    """The child process that times the kernel, and the samples it gave."""

    def __init__(self):
        self.samples = []  # [(perf_counter time, slowdown)], in time order
        self._last = None
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self) -> None:
        asked = time.perf_counter()
        self._child.stdin.write("\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("the metronome process ended")
        self._last = time.perf_counter()
        self.samples.append(((asked + self._last) / 2, float(line)))

    def tick(self) -> None:
        """Take a sample if EVERY_S has passed since the last one."""
        if self._last is None or time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def speed(self) -> float:
        """How much slower the machine ran than the reference over the whole
        run: the median kernel sample."""
        return statistics.median(s for _, s in self.samples)

    def speed_at(self, start: float, end: float) -> float:
        """How much slower the machine ran than the reference from start to
        end: the median of the kernel samples taken within the margin (see
        WINDOW_S) around the span, or of the NEAREST samples around its
        middle if there are fewer. A time divided by it, or a rate
        multiplied by it, is the figure on the reference machine."""
        times = [t for t, _ in self.samples]
        margin = max(WINDOW_S, end - start)
        lo = bisect.bisect_left(times, start - margin)
        hi = bisect.bisect_right(times, end + margin)
        if hi - lo < NEAREST:
            mid = bisect.bisect_left(times, (start + end) / 2)
            lo = max(0, min(mid - NEAREST // 2, len(times) - NEAREST))
            hi = lo + NEAREST
        return statistics.median(s for _, s in self.samples[lo:hi])

    def stop(self) -> None:
        """End the child (it exits when its stdin closes) and wait for it."""
        self._child.stdin.close()
        try:
            self._child.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._child.kill()
            self._child.wait()
        self._child.stdout.close()


def serve() -> None:
    kernel()  # warm-up: imports and first-call costs stay out of the samples
    for _ in sys.stdin:
        print(repr(kernel()), flush=True)


if __name__ == "__main__":
    serve()
