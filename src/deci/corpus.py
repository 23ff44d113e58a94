"""Documents, label space, vocabulary, and a synthetic confounded corpus.

The synthetic generator plants a controllable co-occurrence between one label
and a demographic attribute (by default: age 65 or older). Label keywords are
exclusive per label, so the note text alone fully determines the gold labels;
any demographic shortcut a model picks up is a planted confound, not signal.
"""

import json
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, ParseError, ValidationError

PAD_TOKEN = "[PAD]"
UNK_TOKEN = "[UNK]"
AGE_TOKENS = ("[AGE_0_17]", "[AGE_18_44]", "[AGE_45_64]", "[AGE_65_PLUS]")
AGE_BOUNDS = (18, 45, 65)  # first age of each bucket after the first
GENDER_TOKENS = ("[GENDER_M]", "[GENDER_F]")
RESERVED_TOKENS = (PAD_TOKEN, UNK_TOKEN) + AGE_TOKENS + GENDER_TOKENS
PAD_ID = 0
UNK_ID = 1

GENDERS = ("M", "F")
MAX_AGE = 130  # exclusive upper bound

# Row bucket * 2 + gender: that cell's age and gender token ids, which every vocabulary reserves.
CELL_IDS = np.array([[RESERVED_TOKENS.index(age), RESERVED_TOKENS.index(gender)]
                     for age in AGE_TOKENS for gender in GENDER_TOKENS], dtype=np.int64)

# Every byte outside [a-z0-9] becomes a space. A non-ASCII character (a lone surrogate
# too) encodes to bytes >= 0x80 only, so words() == re.findall(r"[a-z0-9]+", text.lower()).
_NON_WORD_BYTES = bytes(b if b in b"abcdefghijklmnopqrstuvwxyz0123456789" else 32 for b in range(256))


def words(text: str, limit: int | None = None) -> list[str]:
    """The lowercased runs of ASCII letters and digits in text, or the first
    limit of them: words(text, limit) == words(text)[:limit]."""
    spaced = text.lower().encode("utf-8", "surrogatepass").translate(_NON_WORD_BYTES).decode("ascii")
    return spaced.split() if limit is None else spaced.split(None, limit)[:limit]


@dataclass(frozen=True)
class Document:
    """One note with demographics and gold codes. codes is kept sorted."""

    id: str
    text: str
    age: int
    gender: str
    codes: tuple[str, ...] = ()

    def __post_init__(self):
        if not isinstance(self.age, int) or isinstance(self.age, bool):
            raise ValidationError(f"age must be an integer, got {self.age!r}")
        if not 0 <= self.age < MAX_AGE:
            raise ValidationError(f"age must be in [0, {MAX_AGE}), got {self.age}")
        if self.gender not in GENDERS:
            raise ValidationError(f"gender must be one of {GENDERS}, got {self.gender!r}")
        object.__setattr__(self, "codes", tuple(sorted(self.codes)))


class LabelSpace:
    """Ordered set of label identifiers; a label's index is its position."""

    def __init__(self, labels: Iterable[str]):
        self._labels = tuple(labels)
        self._index = {}
        for i, lab in enumerate(self._labels):
            if lab in self._index:
                raise ValidationError(f"duplicate label {lab!r}")
            self._index[lab] = i

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValidationError(f"unknown code {label!r}") from None

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def __eq__(self, other) -> bool:
        return isinstance(other, LabelSpace) and other._labels == self._labels

    def multi_hot_rows(self, docs) -> np.ndarray:
        """(n_docs, n_labels) float64 gold matrix, 1.0 at each document's codes."""
        y = np.zeros((len(docs), len(self._labels)))
        y[np.repeat(np.arange(len(docs)), [len(d.codes) for d in docs]),
          [self.index(c) for d in docs for c in d.codes]] = 1.0
        return y

    @classmethod
    def from_file(cls, path) -> "LabelSpace":
        """Plain text, one label per line, order significant."""
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        return cls([ln for ln in lines if ln])

    def to_file(self, path) -> None:
        Path(path).write_text("".join(lab + "\n" for lab in self._labels), encoding="utf-8")


class Vocabulary:
    """Token <-> id bijection. PAD is id 0; UNK and demographic tokens reserved."""

    def __init__(self, tokens: Iterable[str] = ()):
        self._id_to_token = [*RESERVED_TOKENS, *tokens]
        self._token_to_id = dict(zip(self._id_to_token, range(len(self._id_to_token))))
        if len(self._token_to_id) != len(self._id_to_token):
            seen = set()
            dup = next(t for t in self._id_to_token if t in seen or seen.add(t))
            raise ValidationError(f"duplicate or reserved token {dup!r}")

    @classmethod
    def from_documents(cls, docs: Iterable[Document]) -> "Vocabulary":
        """Vocabulary over all note tokens, sorted for a stable assignment."""
        seen = set()
        for doc in docs:
            seen.update(words(doc.text))
        return cls(sorted(seen))

    @property
    def size(self) -> int:
        return len(self._id_to_token)

    def to_list(self) -> list[str]:
        return list(self._id_to_token)

    @classmethod
    def from_list(cls, tokens: list[str]) -> "Vocabulary":
        if tuple(tokens[: len(RESERVED_TOKENS)]) != RESERVED_TOKENS:
            raise ValidationError("vocabulary list does not start with the reserved tokens")
        return cls(tokens[len(RESERVED_TOKENS):])


@dataclass
class SyntheticConfig:
    """Knobs for the planted-confound generator.

    vocab_size budgets the whole vocabulary: reserved tokens, label keywords,
    and whatever remains becomes the noise-token pool. label_skew is the
    exponent of the rank-weighted label distribution (0 means uniform); a
    skew above ~1 makes the first label common enough that the planted
    demographic shortcut is genuinely tempting for a classifier.

    The default doc_len (24) deliberately exceeds the window the bundled
    experiment configures (model.ModelConfig.max_len = 16: two demographic
    tokens plus 14 note tokens), so a minority of documents have all their
    keyword evidence for a gold label truncated away. Those documents
    are where a classifier can profit from the demographic shortcut: the
    demographic tokens are prepended and therefore always visible.
    """

    n_labels: int = 20
    vocab_size: int = 1000
    n_train: int = 2000
    n_dev: int = 500
    n_test: int = 500
    doc_len: int = 24
    keywords_per_label: int = 1
    confounded_label: int = 0
    confound_attribute: str = "age>=65"
    p_conf_train: float = 0.9
    p_conf_test: float = 0.5
    noise_rate: float = 0.9
    label_skew: float = 1.25
    seed: int = 0

    def validate(self) -> None:
        if self.n_labels < 1:
            raise ConfigError(f"n_labels must be positive, got {self.n_labels}")
        if self.keywords_per_label < 1:
            raise ConfigError(f"keywords_per_label must be positive, got {self.keywords_per_label}")
        needed = len(RESERVED_TOKENS) + self.n_labels * self.keywords_per_label + 1
        if self.vocab_size < needed:
            raise ConfigError(
                f"vocab_size {self.vocab_size} too small: {self.n_labels} labels x "
                f"{self.keywords_per_label} keywords plus {len(RESERVED_TOKENS)} reserved tokens "
                f"and a noise pool need at least {needed}"
            )
        if min(self.n_train, self.n_dev, self.n_test) < 0:
            raise ConfigError("split sizes must be non-negative")
        if self.doc_len < min(4, self.n_labels):
            raise ConfigError(f"doc_len must fit up to {min(4, self.n_labels)} gold keywords, got {self.doc_len}")
        if not 0.0 <= self.p_conf_train <= 1.0:
            raise ConfigError(f"p_conf_train must be in [0, 1], got {self.p_conf_train}")
        if not 0.0 <= self.p_conf_test <= 1.0:
            raise ConfigError(f"p_conf_test must be in [0, 1], got {self.p_conf_test}")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigError(f"noise_rate must be in [0, 1], got {self.noise_rate}")
        if not 0 <= self.confounded_label < self.n_labels:
            raise ConfigError(f"confounded_label must index a label, got {self.confounded_label}")
        if not self.label_skew >= 0.0:  # also rejects NaN
            raise ConfigError(f"label_skew must be non-negative, got {self.label_skew}")
        confound_predicate(self.confound_attribute)  # raises ConfigError if unparseable


_PREDICATE_RE = re.compile(r"^(age>=|age<)(\d+)$|^gender==([MF])$")


def confound_predicate(spec: str) -> Callable[[int, str], bool]:
    """Parse a demographic predicate: 'age>=N', 'age<N', or 'gender==M|F'."""
    m = _PREDICATE_RE.match(spec.replace(" ", ""))
    if not m:
        raise ConfigError(f"unsupported confound attribute {spec!r}")
    if m.group(3) is not None:
        g = m.group(3)
        return lambda age, gender: gender == g
    threshold = int(m.group(2))
    if m.group(1) == "age>=":
        return lambda age, gender: age >= threshold
    return lambda age, gender: age < threshold


def synthetic_label_space(cfg: SyntheticConfig) -> LabelSpace:
    return LabelSpace(f"C{i:03d}" for i in range(cfg.n_labels))


def _keyword_table(cfg: SyntheticConfig) -> list[list[str]]:
    return [[f"k{i:03d}w{j}" for j in range(cfg.keywords_per_label)] for i in range(cfg.n_labels)]


def _sample_demographics(rng: np.random.Generator, predicate, target: bool | None) -> tuple[int, str]:
    """Uniform (age, gender) draw, optionally conditioned on predicate == target."""
    while True:
        age = int(rng.integers(0, MAX_AGE))
        gender = GENDERS[int(rng.integers(0, 2))]
        if target is None or predicate(age, gender) == target:
            return age, gender


def generate_synthetic(cfg: SyntheticConfig) -> tuple[list[Document], list[Document], list[Document]]:
    """Generate (train, dev, test) splits as a pure function of cfg.

    Every document carries 1-4 gold labels drawn from a rank-weighted
    distribution, and its text contains at least one exclusive keyword per
    gold label. Documents carrying the confounded label satisfy the confound
    attribute with probability p_conf_train in train and dev, p_conf_test in
    test; all other demographics are uniform.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    labels = synthetic_label_space(cfg).labels
    keywords = _keyword_table(cfg)
    n_noise = cfg.vocab_size - len(RESERVED_TOKENS) - cfg.n_labels * cfg.keywords_per_label
    noise_pool = [f"n{j:04d}" for j in range(n_noise)]
    predicate = confound_predicate(cfg.confound_attribute)

    weights = (1.0 / np.arange(1, cfg.n_labels + 1)) ** cfg.label_skew
    weights /= weights.sum()
    max_gold = min(4, cfg.n_labels)

    def make_split(prefix: str, n_docs: int, p_conf: float) -> list[Document]:
        docs = []
        for d in range(n_docs):
            k = int(rng.integers(1, max_gold + 1))
            gold = sorted(int(g) for g in rng.choice(cfg.n_labels, size=k, replace=False, p=weights))
            tokens = [keywords[g][int(rng.integers(0, cfg.keywords_per_label))] for g in gold]
            for _ in range(cfg.doc_len - k):
                if rng.random() < cfg.noise_rate:
                    tokens.append(noise_pool[int(rng.integers(0, n_noise))])
                else:
                    g = gold[int(rng.integers(0, k))]
                    tokens.append(keywords[g][int(rng.integers(0, cfg.keywords_per_label))])
            rng.shuffle(tokens)
            if cfg.confounded_label in gold:
                target = bool(rng.random() < p_conf)
                age, gender = _sample_demographics(rng, predicate, target)
            else:
                age, gender = _sample_demographics(rng, predicate, None)
            docs.append(
                Document(
                    id=f"{prefix}-{d:06d}",
                    text=" ".join(tokens),
                    age=age,
                    gender=gender,
                    codes=tuple(labels[g] for g in gold),
                )
            )
        return docs

    train = make_split("train", cfg.n_train, cfg.p_conf_train)
    dev = make_split("dev", cfg.n_dev, cfg.p_conf_train)
    test = make_split("test", cfg.n_test, cfg.p_conf_test)
    return train, dev, test


_DOC_FIELDS = ("id", "text", "age", "gender", "codes")


def save_jsonl(docs: Iterable[Document], path) -> None:
    """One JSON object per line with fields exactly {id, text, age, gender, codes}."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            rec = {"id": doc.id, "text": doc.text, "age": doc.age, "gender": doc.gender, "codes": list(doc.codes)}
            fh.write(json.dumps(rec) + "\n")


def load_jsonl(path, label_space: LabelSpace | None = None) -> list[Document]:
    """Read documents back; when label_space is given, every code must be known.

    Without a label_space the "codes" field is optional and a missing one
    loads as no codes, so unlabeled notes can be scored. Malformed or
    non-UTF-8 lines raise ParseError with the 1-based line number; a code
    outside label_space raises ValidationError naming the code.
    """
    docs = []
    with open(path, "rb") as fh:  # lines end at b"\n"; each is decoded on its own
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(f"not UTF-8: {exc.reason} at byte {exc.start}", lineno) from None
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"invalid JSON: {exc.msg}", lineno) from None
            if not isinstance(rec, dict):
                raise ParseError("expected a JSON object", lineno)
            missing = [f for f in _DOC_FIELDS
                       if f not in rec and (f != "codes" or label_space is not None)]
            extra = [f for f in rec if f not in _DOC_FIELDS]
            if missing or extra:
                raise ParseError(f"missing fields {missing}, unexpected fields {extra}", lineno)
            if not isinstance(rec["id"], str) or not isinstance(rec["text"], str):
                raise ParseError("id and text must be strings", lineno)
            codes = rec.get("codes", [])
            if not isinstance(codes, list) or not all(isinstance(c, str) for c in codes):
                raise ParseError("codes must be an array of strings", lineno)
            try:
                doc = Document(
                    id=rec["id"], text=rec["text"], age=rec["age"], gender=rec["gender"],
                    codes=tuple(codes),
                )
            except ValidationError as exc:
                raise ValidationError(f"line {lineno}: {exc}") from None
            if label_space is not None:
                for code in doc.codes:
                    if code not in label_space:
                        raise ValidationError(f"line {lineno}: unknown code {code!r}")
            docs.append(doc)
    return docs
