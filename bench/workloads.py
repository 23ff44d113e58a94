"""The benchmark's three workloads: inputs, set-up, measured rounds, checks.

Every input is generated from the workload seed and reaches deci only as
JSONL files. deci runs in-process through its public CLI, ``deci.cli.main``,
so interpreter start-up does not swamp the small calls. A workload's set-up
builds its corpus (and, for the scoring workloads, its checkpoint); its
measured phase repeats one fixed round of CLI calls until the time budget is
spent. Each CLI call is one operation; it fails when its exit code is not 0
or its output check finds a problem.
"""

import contextlib
import io
import json
import random
import shutil
import statistics
import time
import traceback
from collections import defaultdict
from pathlib import Path

from deci import cli

MODES = ("deci", "naive", "knowledge-only", "wo-zd", "wo-ze")
N_LABELS = 20            # the CLI's default label space
REQUEST_NOTES = 16       # notes per small predict request
NO_CODES_SHARE = 0.25    # predict-requests: share of requests whose notes lack "codes"
LONG_DOC_LENS = (24, 48, 96, 160)  # score-long-notes: generator runs mixed into one split
LONG_WINDOW = 128
# Calls of the short steps (gen-data and eval --ablate on a few hundred notes)
# per round or set-up that measures them: more samples, steadier medians.
PROBES = 3

# Called after every CLI call when set; run.py sets it to the metronome's
# tick, so the machine's speed is sampled all through a run.
after_call = None


class SetupError(RuntimeError):
    """A set-up step failed, so the measured phase cannot run."""


class Tally:
    """Operations attempted and failed, problems found, and metric samples,
    each with the span of the run in which its work ran."""

    def __init__(self):
        self.samples = defaultdict(list)
        self.spans = defaultdict(list)  # key -> [(start, end)] in perf_counter time
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.facts = {}

    def record(self, what: str, problems: list, expected_failure: bool = False) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if not expected_failure:
                self.problems.extend(f"{what}: {p}" for p in problems[:3])

    def add(self, key: str, value: float, seconds: float) -> None:
        """One sample of key, from work that ended now and took `seconds`."""
        end = time.perf_counter()
        self.samples[key].append(value)
        self.spans[key].append((end - seconds, end))

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


def run_cli(argv: list) -> tuple[int, str, str, float]:
    """One in-process CLI call: (exit code, stdout, stderr, seconds).

    ``cli.main`` is looked up at call time so that a traced round goes
    through the tracer's wrapper. An exception that escapes deci is a failed
    operation with exit code -1 and the traceback as its stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main([str(a) for a in argv])
        except Exception:
            traceback.print_exc()
            code = -1
        seconds = time.perf_counter() - start
    if after_call is not None:
        after_call()
    return code, out.getvalue(), err.getvalue(), seconds


def _read_notes(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _write_notes(path: Path, notes: list[dict]) -> None:
    path.write_text("".join(json.dumps(n) + "\n" for n in notes), encoding="utf-8")


# -- output checks ------------------------------------------------------------


def check_predictions(text: str, notes: list[dict], labels: list[str]) -> list[str]:
    """One line per note, in order, with len(labels) scores in [0, 1] and
    codes exactly the labels scored >= 0.5."""
    lines = text.splitlines()
    if len(lines) != len(notes):
        return [f"{len(lines)} output lines for {len(notes)} notes"]
    problems = []
    for line, note in zip(lines, notes):
        try:
            rec = json.loads(line)
            scores = rec["scores"]
            expected = [lab for lab, s in zip(labels, scores) if s >= 0.5]
            if rec["doc_id"] != note["id"]:
                problems.append(f"doc_id {rec['doc_id']!r} where {note['id']!r} was sent")
            if len(scores) != len(labels) or not all(0.0 <= s <= 1.0 for s in scores):
                problems.append(f"{note['id']}: scores are not {len(labels)} values in [0, 1]")
            elif rec["codes"] != expected:
                problems.append(f"{note['id']}: codes {rec['codes']} but scores >= 0.5 give {expected}")
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable output line: {exc!r}")
    return problems


def check_ablation(text: str, n_docs: int, gap_order: bool) -> tuple[list[str], dict]:
    """All five modes, every metric in [0, 1], n_docs scored and, with
    gap_order, a deci FPR gap no larger than the naive one. Also returns the
    quality figures of the deci and naive modes."""
    try:
        table = json.loads(text)["ablation"]
        problems = [] if set(table) == set(MODES) else [f"modes {sorted(table)}"]
        for mode, rep in table.items():
            values = [rep["macro_auc"], rep["micro_auc"], rep["macro_f1"], rep["micro_f1"],
                      *rep["p_at_k"].values(), *rep["per_label_f1"]]
            if rep["disparity"] is not None:
                values += [v for k, v in rep["disparity"].items() if k != "label" and v is not None]
            if not all(isinstance(v, (int, float)) and 0.0 <= v <= 1.0 for v in values):
                problems.append(f"{mode}: a metric outside [0, 1]")
            if rep["n_docs"] != n_docs:
                problems.append(f"{mode}: scored {rep['n_docs']} of {n_docs} notes")
        quality = {
            "test_deci_micro_f1": table["deci"]["micro_f1"],
            "test_deci_fpr_gap": (table["deci"]["disparity"] or {}).get("gap"),
            "test_naive_fpr_gap": (table["naive"]["disparity"] or {}).get("gap"),
        }
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable ablation report: {exc!r}"], {}
    if gap_order:
        deci_gap, naive_gap = quality["test_deci_fpr_gap"], quality["test_naive_fpr_gap"]
        if deci_gap is None or naive_gap is None or deci_gap > naive_gap:
            problems.append(f"deci FPR gap {deci_gap} is not <= naive FPR gap {naive_gap}")
    return problems, quality


# -- shared steps ---------------------------------------------------------------


def _exit_problem(code: int, err: str) -> list[str]:
    return [] if code == 0 else [f"exit {code}: {err.strip()}"]


def _setup_call(argv: list) -> float:
    code, _, err, seconds = run_cli(argv)
    if code != 0:
        raise SetupError(f"deci {' '.join(map(str, argv))}: {_exit_problem(code, err)}")
    return seconds


def _request_pool(root: Path, notes: list[dict], count: int, rng: random.Random) -> list[tuple]:
    """count request files of REQUEST_NOTES distinct notes each."""
    req_dir = root / "requests"
    req_dir.mkdir()
    pool = []
    for i in range(count):
        chosen = rng.sample(notes, REQUEST_NOTES)
        path = req_dir / f"{i:04d}.jsonl"
        _write_notes(path, chosen)
        pool.append((path, chosen, True))
    return pool


def _blocks(pool: list, n: int):
    """The pool in n consecutive blocks, to spread requests over a round."""
    size = -(-len(pool) // n)
    return (pool[i: i + size] for i in range(0, n * size, size))


def _run_requests(pool: list, run_dir: Path, labels: list, tally: Tally) -> float:
    spent = 0.0
    for path, notes, has_codes in pool:
        code, out, err, seconds = run_cli(["predict", "--run.dir", run_dir, path])
        spent += seconds
        problems = check_predictions(out, notes, labels) if code == 0 else _exit_problem(code, err)
        # Notes without "codes" are real predict input that deci rejects
        # today (exit 2, a parse error naming the field): counted as failed,
        # but not a fault of the benchmark.
        expected = not has_codes and code == 2 and "codes" in err
        tally.record(f"predict {path.name}", problems, expected_failure=expected)
        if not problems:
            tally.add("request_ms", seconds * 1000.0, seconds)
    return spent


def _bulk_predict(run_dir: Path, data: Path, notes: list, labels: list, tally: Tally,
                  repeats: int) -> float:
    """predict the test split `repeats` times; every output must be
    byte-identical to the first."""
    spent, outputs = 0.0, []
    for k in range(repeats):
        out_path = run_dir / f"predict{k}.jsonl"
        code, _, err, seconds = run_cli(["predict", "--run.dir", run_dir, data / "test.jsonl",
                                         "--out", out_path])
        spent += seconds
        problems = _exit_problem(code, err)
        if not problems:
            text = out_path.read_text(encoding="utf-8")
            problems = check_predictions(text, notes, labels)
            if outputs and text != outputs[0]:
                problems.append("repeated predict output differs")
            outputs.append(text)
        tally.record("predict test split", problems)
        if not problems:
            tally.add("score_docs_per_s", len(notes) / seconds, seconds)
    return spent


def _ablate(run_dir: Path, data: Path, n_docs: int, tally: Tally, gap_order: bool) -> tuple[list, float]:
    """eval --ablate on data's test split; the report must not change
    between calls. Returns (problems, seconds)."""
    out_path = run_dir / "ablation.json"
    code, _, err, seconds = run_cli(["eval", "--data.dir", data, "--run.dir", run_dir, "--ablate",
                                     "--out", out_path])
    problems = _exit_problem(code, err)
    if not problems:
        text = out_path.read_text(encoding="utf-8")
        problems, quality = check_ablation(text, n_docs, gap_order)
        if text != tally.facts.setdefault("ablation_report", text):
            problems.append("eval --ablate report differs between calls")
        if gap_order:
            tally.facts.update(quality)
    if not problems:
        tally.add("ablate_docs_per_s", n_docs / seconds, seconds)
    return problems, seconds


def _train(argv: list, run_dir: Path, n_train: int, tally: Tally) -> tuple[list, float]:
    """deci train with argv's flags. Returns (problems, seconds)."""
    code, out, err, seconds = run_cli(["train", "--run.dir", run_dir, *argv])
    problems = _exit_problem(code, err)
    if not problems:
        try:
            epochs = json.loads(out.splitlines()[-1])["epochs"]
        except (ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable train summary: {exc!r}")
        if not (run_dir / "checkpoint.deci").is_file():
            problems.append("no checkpoint written")
    if not problems:
        tally.add("train_docs_per_s", n_train * epochs / seconds, seconds)
    return problems, seconds


def _setup_step(what: str, outcome: tuple[list, float]) -> None:
    problems, _ = outcome
    if problems:
        raise SetupError(f"{what}: {problems}")


# -- workloads ------------------------------------------------------------------


class Workload:
    """A set-up and a round of CLI calls, at full or smoke scale."""

    min_rounds = 2  # with --trace 1: one untraced and one traced round at least
    setup_repeats = 5  # set-ups per run; setup_s is their median

    def __init__(self, seed: int, smoke: bool):
        self.seed = seed
        self.smoke = smoke
        self.labels = [f"C{i:03d}" for i in range(N_LABELS)]

    def setup(self, root: Path, tally: Tally) -> None:
        raise NotImplementedError

    def round(self, root: Path, tally: Tally) -> float:
        """Run one round; returns the seconds spent inside deci calls."""
        raise NotImplementedError

    def probe(self, root: Path, tally: Tally) -> None:
        """Extra samples of a step that the rounds do not repeat, run after
        every round and never traced, so the per-layer figures stay those
        of the rounds."""


class TrainDefault(Workload):
    """The quick-start flow at CLI defaults: gen-data, train, eval --ablate,
    then predict on the test split, with small predict requests in between.
    Set-up runs gen-data once to draw the request notes from the test split."""

    min_rounds = 3  # three trainings per run, so train_docs_per_s is a median
    requests_per_round = 100
    gen_calls = 2      # gen-data calls per round
    ablate_calls = 3   # eval --ablate calls per round
    predict_calls = 3  # bulk predict calls per round

    def _sizes(self) -> list:
        return ["--data.n_train", 60, "--data.n_dev", 30, "--data.n_test", 40] if self.smoke else []

    def _gen_data(self, data: Path, tally: Tally) -> float:
        code, _, err, seconds = run_cli(["gen-data", "--seed", self.seed, "--data.dir", data,
                                         *self._sizes()])
        tally.record("gen-data", _exit_problem(code, err))
        if code == 0:
            tally.add("gen_data_s", seconds, seconds)
        return seconds

    def setup(self, root, tally):
        data = root / "data"
        seconds = _setup_call(["gen-data", "--seed", self.seed, "--data.dir", data, *self._sizes()])
        tally.add("gen_data_s", seconds, seconds)
        self.n_train = len(_read_notes(data / "train.jsonl"))
        self.test = _read_notes(data / "test.jsonl")
        count = 4 if self.smoke else self.requests_per_round
        self.pool = _request_pool(root, self.test, count, random.Random(self.seed))

    def round(self, root, tally):
        data, run_dir = root / "data", root / "run"
        blocks = _blocks(self.pool, self.ablate_calls + 2)
        spent = sum(self._gen_data(data, tally) for _ in range(self.gen_calls))
        epochs = ["--epochs", 1] if self.smoke else []
        problems, seconds = _train(["--seed", self.seed, "--data.dir", data, *epochs],
                                   run_dir, self.n_train, tally)
        tally.record("train", problems)
        spent += seconds + _run_requests(next(blocks), run_dir, self.labels, tally)
        for _ in range(self.ablate_calls):
            problems, seconds = _ablate(run_dir, data, len(self.test), tally, gap_order=not self.smoke)
            tally.record("eval --ablate", problems)
            spent += seconds + _run_requests(next(blocks), run_dir, self.labels, tally)
        spent += _bulk_predict(run_dir, data, self.test, self.labels, tally, self.predict_calls)
        return spent + _run_requests(next(blocks), run_dir, self.labels, tally)


class ScoreLongNotes(Workload):
    """Bulk predict and eval --ablate over a large split of variable-length
    notes at window 128, with a checkpoint trained at that window in set-up."""

    setup_repeats = 3  # each trains a checkpoint; fewer leave time for a third round
    requests_per_round = 120
    predict_calls = 3  # bulk predict calls per round

    def _gen_argv(self, part: Path, k: int, doc_len: int) -> list:
        n_train, n_dev, n_test = (8, 4, 10) if self.smoke else (60, 25, 400)  # per doc_len
        return ["gen-data", "--seed", self.seed * 100 + k, "--data.dir", part,
                "--data.n_train", n_train, "--data.n_dev", n_dev, "--data.n_test", n_test,
                "--data.doc_len", doc_len]

    def setup(self, root, tally):
        data, run_dir = root / "data", root / "run"
        splits = {"train": [], "dev": [], "test": []}
        gen_seconds, gen_start = 0.0, time.perf_counter()
        for k, doc_len in enumerate(LONG_DOC_LENS):
            part = root / f"gen{doc_len}"
            gen_seconds += _setup_call(self._gen_argv(part, k, doc_len))
            for split, notes in splits.items():
                for note in _read_notes(part / f"{split}.jsonl"):
                    notes.append(dict(note, id=f"len{doc_len}-{note['id']}"))
        tally.add("gen_data_s", gen_seconds, time.perf_counter() - gen_start)
        rng = random.Random(self.seed)
        data.mkdir()
        shutil.copy(root / f"gen{LONG_DOC_LENS[0]}" / "labels.txt", data / "labels.txt")
        for split, notes in splits.items():
            rng.shuffle(notes)
            _write_notes(data / f"{split}.jsonl", notes)
        self.test = splits["test"]
        argv = ["--seed", self.seed, "--data.dir", data, "--model.max_len", LONG_WINDOW,
                "--epochs", 1 if self.smoke else 2]
        _setup_step("train", _train(argv, run_dir, len(splits["train"]), tally))
        count = 4 if self.smoke else self.requests_per_round
        self.pool = _request_pool(root, self.test, count, rng)

    def round(self, root, tally):
        data, run_dir = root / "data", root / "run"
        blocks = _blocks(self.pool, 3)
        spent = _bulk_predict(run_dir, data, self.test, self.labels, tally, self.predict_calls)
        spent += _run_requests(next(blocks), run_dir, self.labels, tally)
        for _ in range(2):
            problems, seconds = _ablate(run_dir, data, len(self.test), tally, gap_order=False)
            tally.record("eval --ablate", problems)
            spent += seconds + _run_requests(next(blocks), run_dir, self.labels, tally)
        return spent

    def probe(self, root, tally):
        """The set-up's four gen-data runs again, twice, into a scratch
        directory."""
        for _ in range(2):
            start = time.perf_counter()
            spent = 0.0
            for k, doc_len in enumerate(LONG_DOC_LENS):
                code, _, err, seconds = run_cli(self._gen_argv(root / "probe", k, doc_len))
                tally.record("gen-data", _exit_problem(code, err))
                if code != 0:
                    return
                spent += seconds
            tally.add("gen_data_s", spent, time.perf_counter() - start)


class PredictRequests(Workload):
    """A closed loop with one client: each request is a small predict call
    that loads the checkpoint afresh. A NO_CODES_SHARE of the requests carry
    unlabeled notes, with no "codes" field."""

    pool_size = 40
    passes = 7  # over the pool per round: 280 requests, 210 of them with codes
    gen_calls = 5  # gen-data calls per set-up

    def setup(self, root, tally):
        data, run_dir = root / "data", root / "run"
        count = 4 if self.smoke else self.pool_size
        n_train, n_dev = (60, 30) if self.smoke else (400, 100)
        for _ in range(self.gen_calls):
            seconds = _setup_call([
                "gen-data", "--seed", self.seed, "--data.dir", data, "--data.n_train", n_train,
                "--data.n_dev", n_dev, "--data.n_test", count * REQUEST_NOTES])
            tally.add("gen_data_s", seconds, seconds)
        argv = ["--seed", self.seed, "--data.dir", data, "--epochs", 1 if self.smoke else 2]
        _setup_step("train", _train(argv, run_dir, n_train, tally))
        # eval --ablate checks the checkpoint before the loop starts.
        test = _read_notes(data / "test.jsonl")
        for _ in range(PROBES):
            _setup_step("eval --ablate", _ablate(run_dir, data, len(test), tally, gap_order=False))
        rng = random.Random(self.seed)
        rng.shuffle(test)
        unlabeled = set(rng.sample(range(count), round(NO_CODES_SHARE * count)))
        req_dir = root / "requests"
        req_dir.mkdir()
        self.pool = []
        for i in range(count):
            notes = test[i * REQUEST_NOTES: (i + 1) * REQUEST_NOTES]
            if i in unlabeled:
                notes = [{k: v for k, v in n.items() if k != "codes"} for n in notes]
            path = req_dir / f"{i:04d}.jsonl"
            _write_notes(path, notes)
            self.pool.append((path, notes, i not in unlabeled))

    def round(self, root, tally):
        before = len(tally.samples["request_ms"])
        spent = _run_requests(self.pool * self.passes, root / "run", self.labels, tally)
        tally.samples["score_docs_per_s"] += [
            REQUEST_NOTES * 1000.0 / ms for ms in tally.samples["request_ms"][before:]]
        tally.spans["score_docs_per_s"] += tally.spans["request_ms"][before:]
        return spent


WORKLOADS = {
    "train-default": TrainDefault,
    "score-long-notes": ScoreLongNotes,
    "predict-requests": PredictRequests,
}


# -- end-to-end metrics -----------------------------------------------------------

# name -> (unit, better, bound); the bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
# The times and rates are scaled to the metronome's reference machine, except
# request_ms_p95; the others are reported as measured.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
    "success_ratio": ("ratio", "higher", 0.05),
    "gen_data_s": ("s", "lower", 0.25),
    "train_docs_per_s": ("docs/s", "higher", 0.25),
    "ablate_docs_per_s": ("docs/s", "higher", 0.25),
    "score_docs_per_s": ("docs/s", "higher", 0.25),
    "request_ms_p50": ("ms", "lower", 0.25),
    "request_ms_p95": ("ms", "lower", 0.25),
}


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _scaled(tally: Tally, key: str, speed_at) -> list:
    """key's samples on the reference machine: each time divided, or each
    rate multiplied, by the machine's slowdown while its work ran."""
    rate = key.endswith("_per_s")
    return [v * speed_at(*span) if rate else v / speed_at(*span)
            for v, span in zip(tally.samples[key], tally.spans[key])]


def end_to_end(tally: Tally, peak_rss_mb: float, speed_at=None) -> dict:
    """Every end-to-end metric. speed_at(start, end) is the machine's
    slowdown against the reference over that span of the run (see
    metronome.py); without it the figures are as measured, unscaled."""
    speed_at = speed_at or (lambda start, end: 1.0)
    med = statistics.median

    def s(key):
        return _scaled(tally, key, speed_at)

    values = {
        "setup_s": med(s("setup_s")),
        "peak_rss_mb": peak_rss_mb,
        "success_ratio": 1.0 - tally.failed / tally.attempted,
        "gen_data_s": med(s("gen_data_s")),
        "train_docs_per_s": med(s("train_docs_per_s")),
        "ablate_docs_per_s": med(s("ablate_docs_per_s")),
        "score_docs_per_s": med(s("score_docs_per_s")),
        "request_ms_p50": percentile(s("request_ms"), 50),
        # Unscaled: the tail is the requests that met the machine's slow
        # spells, and every run meets some. Scaling each request by a
        # slowdown read from the kernel samples nearest to it moved the p95
        # of ten runs 1.5-2x more than it steadied it.
        "request_ms_p95": percentile(tally.samples["request_ms"], 95),
    }
    return {name: {"value": values[name], "unit": unit} for name, (unit, _, _) in END_TO_END.items()}


def report(tally: Tally, metrics: dict, raw: dict, speed: float, rounds: int) -> dict:
    """Every end-to-end metric plus the figures that exist on one workload
    only, the unscaled figures with the run's median slowdown, and the sample
    counts behind the medians. request_ms_p99 is unscaled, like the p95."""
    requests = tally.samples["request_ms"]
    extra = {
        "failed_ratio": {"value": tally.failed / tally.attempted, "unit": "ratio"},
        "request_ms_p99": {"value": percentile(requests, 99) if len(requests) >= 1000 else None,
                           "unit": "ms"},
    }
    for key in ("test_deci_micro_f1", "test_deci_fpr_gap", "test_naive_fpr_gap"):
        if key in tally.facts:
            extra[key] = {"value": tally.facts[key], "unit": "ratio"}
    return {
        "metrics": {**metrics, **extra},
        "raw_metrics": raw,
        "machine_speed": speed,
        "rounds": rounds,
        "samples": {k: len(v) for k, v in sorted(tally.samples.items())},
    }
