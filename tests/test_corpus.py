"""Corpus layer: tokenization, demographics, the planted-confound generator,
and JSONL persistence.

The generator checks use independent scans over the emitted documents (keyword
prefixes, token counts, conditional frequencies) rather than any generator
internals.
"""

import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from deci.corpus import (
    AGE_TOKENS,
    CELL_IDS,
    GENDER_TOKENS,
    PAD_ID,
    RESERVED_TOKENS,
    UNK_ID,
    Document,
    LabelSpace,
    SyntheticConfig,
    Vocabulary,
    confound_predicate,
    generate_synthetic,
    load_jsonl,
    save_jsonl,
    synthetic_label_space,
    words,
)
from deci.errors import ConfigError, ParseError, ValidationError
from deci.model import batch_inputs


@pytest.fixture
def small_vocab():
    return Vocabulary(["atrial", "fibrillation", "aspirin"])


def findall_words(text):
    """The tokenizer's definition: every run of [a-z0-9] in the lowercased text."""
    return re.findall(r"[a-z0-9]+", text.lower())


def token_id(vocab, token):
    """token's id in vocab, or UNK's id when the token is unknown."""
    tokens = vocab.to_list()
    return tokens.index(token) if token in tokens else UNK_ID


def note_ids(text, vocab, max_len):
    """The ids after the two demographic ids in the batch_inputs row of a note of text."""
    return model_input(Document(id="d", text=text, age=30, gender="M"), vocab, max_len)[2:].tolist()


def test_tokenize_lowercases_and_strips_punctuation(small_vocab):
    ids = note_ids("Atrial Fibrillation.", small_vocab, max_len=4)
    assert ids == [token_id(small_vocab, "atrial"), token_id(small_vocab, "fibrillation")]
    assert all(i != UNK_ID for i in ids)


def test_tokenize_unknown_maps_to_unk(small_vocab):
    assert note_ids("zzzunknownzzz", small_vocab, max_len=3) == [UNK_ID]


def test_tokenize_empty_and_padding(small_vocab):
    # batch_inputs PAD-extends a short note and cuts a long one to the window
    assert note_ids("", small_vocab, max_len=4) == [PAD_ID, PAD_ID]
    assert note_ids("aspirin", small_vocab, max_len=4) == [token_id(small_vocab, "aspirin"), PAD_ID]
    assert note_ids("aspirin " * 300, small_vocab, max_len=302) == [token_id(small_vocab, "aspirin")] * 300
    assert len(note_ids("aspirin " * 300, small_vocab, max_len=16)) == 14


def test_tokenize_matches_per_word_lookup():
    # batch_inputs looks ids up in one pass per note; each row must equal one
    # vocabulary lookup per lowercased alphanumeric word, unknown words included
    rng = np.random.default_rng(5)
    known = [f"w{i}" for i in range(30)]
    vocab = Vocabulary(known)
    pool = known + ["zz1", "Unknown", "W3", "W12x", "ASPIRIN", "7"]
    texts = []
    for _ in range(200):
        picked = rng.choice(pool, size=rng.integers(0, 25))
        seps = rng.choice([" ", ", ", ".", "-", "\t", "/", " (", ") "], size=len(picked))
        texts.append("".join(w + s for w, s in zip(picked, seps)))
    docs = [Document(id=str(i), text=text, age=30, gender="M") for i, text in enumerate(texts)]
    rows = batch_inputs(docs, vocab, max_len=2 + 24)[0][:, 2:]
    for row, text in zip(rows.tolist(), texts):
        want = [token_id(vocab, t) for t in findall_words(text)]
        assert row == want + [PAD_ID] * (24 - len(want))


# Characters whose lowercasing or encoding could split a word differently:
# dotted capital I (lowercases to "i" plus a combining dot), the Kelvin sign
# (lowercases to ASCII "k"), lone surrogates, a full-width digit and letter,
# an Arabic-Indic digit, sharp s, a ligature, superscript two (a Latin-1
# digit), NUL and whitespace.
TRICKY_CHARS = ["\u0130", "\u212a", "\ud800", "\udfff", "\uff11", "\uff21", "\u0663", "\u00df",
                "\ufb01", "\u00b2", "\x00", "\t", "\n", "\r", " ", "-", "A", "z", "Z", "0", "9"]


def test_words_match_the_regex_on_tricky_characters():
    for ch in TRICKY_CHARS:
        for text in (ch, f"ab{ch}cd", f"{ch}x9{ch}{ch}Y "):
            assert words(text) == findall_words(text), repr(text)


@given(st.lists(st.one_of(st.characters(exclude_categories=()), st.sampled_from(TRICKY_CHARS)),
                max_size=40).map("".join))
def test_words_match_the_regex_on_any_text(text):
    assert words(text) == findall_words(text)


@given(st.lists(st.one_of(st.characters(exclude_categories=()), st.sampled_from(TRICKY_CHARS)),
                max_size=40).map("".join), st.integers(min_value=0, max_value=45))
def test_words_with_a_limit_are_a_prefix(text, limit):
    assert words(text, limit) == words(text)[:limit]


def model_input(doc, vocab, max_len):
    """The batch_inputs row of one document."""
    return batch_inputs([doc], vocab, max_len)[0][0]


def test_age_bucket_boundaries(small_vocab):
    # (age, bucket): 65 itself is in the top bucket
    buckets = [(0, 0), (17, 0), (18, 1), (44, 1), (45, 2), (64, 2), (65, 3), (129, 3)]
    docs = [Document(id="d", text="atrial", age=age, gender=gender)
            for age, _ in buckets for gender in ("M", "F")]
    rows, cells = batch_inputs(docs, small_vocab, max_len=4)
    np.testing.assert_array_equal(cells, [bucket * 2 + gender for _, bucket in buckets for gender in (0, 1)])
    np.testing.assert_array_equal(rows[:, :2], CELL_IDS[cells])
    assert rows[0, :2].tolist() == [token_id(small_vocab, "[AGE_0_17]"), token_id(small_vocab, "[GENDER_M]")]
    assert rows[-1, :2].tolist() == [token_id(small_vocab, "[AGE_65_PLUS]"), token_id(small_vocab, "[GENDER_F]")]


def test_age_bucket_rejects_out_of_range():
    # the buckets cover [0, MAX_AGE); a document outside it is never built
    for bad in (-1, 130, 1000):
        with pytest.raises(ValidationError):
            Document(id="d", text="", age=bad, gender="M")


def test_demographic_tokens_pairs(small_vocab):
    # every vocabulary reserves the demographic tokens at the ids CELL_IDS holds
    other = Vocabulary.from_documents([Document(id="d", text="zeta alpha", age=1, gender="M")])
    assert other.to_list() != small_vocab.to_list()
    for vocab in (small_vocab, other):
        want = [[token_id(vocab, age), token_id(vocab, gender)] for age in AGE_TOKENS for gender in GENDER_TOKENS]
        assert CELL_IDS.tolist() == want
    assert CELL_IDS.shape == (8, 2) and CELL_IDS.dtype == np.int64


def test_demographic_tokens_rejects_bad_gender():
    # a gender without a token never reaches batch_inputs: the document is refused
    with pytest.raises(ValidationError):
        Document(id="d", text="", age=30, gender="X")


def test_build_model_input_full(small_vocab):
    doc = Document(id="d", text="atrial fibrillation", age=70, gender="F")
    row = model_input(doc, small_vocab, max_len=6)
    expected = [
        token_id(small_vocab, "[AGE_65_PLUS]"),
        token_id(small_vocab, "[GENDER_F]"),
        token_id(small_vocab, "atrial"),
        token_id(small_vocab, "fibrillation"),
        PAD_ID,
        PAD_ID,
    ]
    assert row.tolist() == expected
    assert row.dtype == np.int64


def test_build_model_input_demographic_only(small_vocab):
    # a note without text gives the demographic tokens followed by PAD
    doc = Document(id="d", text="", age=70, gender="F")
    row = model_input(doc, small_vocab, max_len=6)
    assert row[0] == token_id(small_vocab, "[AGE_65_PLUS]")
    assert row[1] == token_id(small_vocab, "[GENDER_F]")
    assert row[2:].tolist() == [PAD_ID] * 4


def test_build_model_input_truncation_keeps_demographics(small_vocab):
    # the demographic prefix survives even when text overflows the window
    doc = Document(id="d", text="atrial fibrillation aspirin", age=20, gender="M")
    row = model_input(doc, small_vocab, max_len=3)
    assert row[0] == token_id(small_vocab, "[AGE_18_44]")
    assert row[1] == token_id(small_vocab, "[GENDER_M]")
    assert row[2] == token_id(small_vocab, "atrial")  # the note keeps its first tokens
    assert len(row) == 3


def test_build_model_input_window_too_small(small_vocab):
    doc = Document(id="d", text="x", age=20, gender="M")
    with pytest.raises(ConfigError):
        model_input(doc, small_vocab, max_len=1)


def test_document_sorts_codes_and_validates():
    doc = Document(id="d", text="", age=30, gender="M", codes=("C002", "C000"))
    assert doc.codes == ("C000", "C002")
    with pytest.raises(ValidationError):
        Document(id="d", text="", age=-1, gender="M")
    with pytest.raises(ValidationError):
        Document(id="d", text="", age=130, gender="M")
    with pytest.raises(ValidationError):
        Document(id="d", text="", age=30, gender="unknown")
    with pytest.raises(ValidationError):
        Document(id="d", text="", age=True, gender="M")


def test_label_space_basics():
    space = LabelSpace(["C000", "C001", "C002"])
    assert len(space) == 3
    assert space.index("C001") == 1
    assert "C002" in space and "C999" not in space
    docs = [Document(id=i, text="", age=30, gender="M", codes=c)
            for i, c in (("a", ("C002", "C000")), ("b", ()), ("c", ("C001",)))]
    gold = space.multi_hot_rows(docs)
    assert gold.dtype == np.float64
    np.testing.assert_array_equal(gold, [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValidationError, match="C999"):
        space.index("C999")
    with pytest.raises(ValidationError):
        LabelSpace(["C000", "C000"])


def test_multi_hot_rows_of_no_documents_is_an_empty_matrix():
    space = LabelSpace(["C000", "C001", "C002"])
    gold = space.multi_hot_rows([])
    assert gold.shape == (0, 3) and gold.dtype == np.float64
    unknown = Document(id="x", text="", age=30, gender="M", codes=("C001", "C999"))
    with pytest.raises(ValidationError, match="C999"):
        space.multi_hot_rows([unknown])


def per_row_multi_hot(space, docs):
    """multi_hot_rows as written with a loop over documents, one row at a time."""
    y = np.zeros((len(docs), len(space)))
    for row, doc in zip(y, docs):
        row[[space.index(c) for c in doc.codes]] = 1.0
    return y


@pytest.mark.parametrize("codes", [
    [("C001", "C001"), (), ("C004", "C000", "C004", "C002"), (), ("C003",)],
    [(), (), ()],
    [("C002", "C002", "C002")],
])
def test_multi_hot_rows_match_the_per_row_loop(codes):
    space = LabelSpace([f"C{i:03d}" for i in range(5)])
    docs = [Document(id=str(i), text="", age=30, gender="M", codes=c) for i, c in enumerate(codes)]
    gold = space.multi_hot_rows(docs)
    assert gold.dtype == np.float64
    assert np.array_equal(gold, per_row_multi_hot(space, docs))


def test_multi_hot_rows_name_the_first_unknown_code():
    space = LabelSpace(["C000", "C001"])
    docs = [Document(id=i, text="", age=30, gender="M", codes=c)
            for i, c in (("a", ("C001",)), ("b", ("C000", "C998", "C999")), ("c", ("C997",)))]
    with pytest.raises(ValidationError) as raised:
        space.multi_hot_rows(docs)
    assert str(raised.value) == "unknown code 'C998'"


def test_label_space_file_round_trip(tmp_path):
    space = LabelSpace(["C000", "C010", "C005"])  # order is significant, not sorted
    path = tmp_path / "labels.txt"
    space.to_file(path)
    assert LabelSpace.from_file(path) == space


def test_vocabulary_reserves_prefix():
    v = Vocabulary()
    assert v.to_list() == list(RESERVED_TOKENS)
    assert token_id(v, "[PAD]") == PAD_ID == 0
    assert token_id(v, "[UNK]") == UNK_ID == 1
    assert v.size == len(RESERVED_TOKENS)


def test_vocabulary_round_trip_and_duplicates():
    v = Vocabulary(["b", "a"])
    # ids follow the given order after the reserved tokens; an unknown word is UNK
    assert note_ids("a missing b", v, max_len=5) == [len(RESERVED_TOKENS) + 1, UNK_ID, len(RESERVED_TOKENS)]
    assert Vocabulary.from_list(v.to_list()).to_list() == v.to_list()
    with pytest.raises(ValidationError, match="token 'a'"):
        Vocabulary(["a", "a"])
    with pytest.raises(ValidationError, match="token 'x'"):
        Vocabulary(["x", "b", "c", "x", "b"])  # the first repeat is named
    with pytest.raises(ValidationError, match=r"token '\[PAD\]'"):
        Vocabulary(["[PAD]"])
    with pytest.raises(ValidationError):
        Vocabulary.from_list(["[UNK]", "[PAD]"])


def test_vocabulary_from_documents_sorted():
    docs = [
        Document(id="a", text="zeta alpha", age=30, gender="M"),
        Document(id="b", text="Alpha beta!", age=40, gender="F"),
    ]
    v = Vocabulary.from_documents(docs)
    note_tokens = v.to_list()[len(RESERVED_TOKENS):]
    assert note_tokens == ["alpha", "beta", "zeta"]


def test_confound_predicate_forms():
    p = confound_predicate("age>=65")
    assert p(65, "M") and p(84, "F") and not p(64, "M")
    p = confound_predicate("age<40")
    assert p(0, "M") and not p(40, "F")
    p = confound_predicate("gender==M")
    assert p(30, "M") and not p(30, "F")
    assert confound_predicate("age >= 65")(65, "F")  # embedded spaces allowed
    for bad in ("age==65", "height>=100", "gender==Q", ""):
        with pytest.raises(ConfigError):
            confound_predicate(bad)


def test_synthetic_config_validation():
    SyntheticConfig().validate()  # defaults are valid
    with pytest.raises(ConfigError):
        SyntheticConfig(vocab_size=10).validate()  # no room for a noise pool
    with pytest.raises(ConfigError):
        SyntheticConfig(p_conf_train=1.5).validate()
    with pytest.raises(ConfigError):
        SyntheticConfig(noise_rate=-0.1).validate()
    with pytest.raises(ConfigError):
        SyntheticConfig(confounded_label=99).validate()
    with pytest.raises(ConfigError):
        SyntheticConfig(label_skew=-1.0).validate()
    with pytest.raises(ConfigError):
        SyntheticConfig(confound_attribute="bmi>30").validate()
    with pytest.raises(ConfigError):
        SyntheticConfig(doc_len=2).validate()


SMALL = SyntheticConfig(n_labels=8, vocab_size=120, n_train=300, n_dev=60, n_test=60, seed=7)


def test_generate_split_sizes_and_ids():
    train, dev, test = generate_synthetic(SMALL)
    assert (len(train), len(dev), len(test)) == (300, 60, 60)
    ids = [d.id for d in train + dev + test]
    assert len(set(ids)) == len(ids)
    assert all(d.id.startswith("train-") for d in train)
    assert all(d.id.startswith("dev-") for d in dev)
    assert all(d.id.startswith("test-") for d in test)


def test_generate_every_gold_label_has_a_keyword_in_text():
    # scan: label Cxxx plants keywords named kxxxw<j>
    space = synthetic_label_space(SMALL)
    for split in generate_synthetic(SMALL):
        for doc in split:
            tokens = set(doc.text.split())
            for code in doc.codes:
                prefix = f"k{space.index(code):03d}w"
                assert any(t.startswith(prefix) for t in tokens), (doc.id, code)


def test_generate_keywords_are_exclusive():
    # a planted keyword never appears in a document that lacks its label
    space = synthetic_label_space(SMALL)
    for split in generate_synthetic(SMALL):
        for doc in split:
            gold = {space.index(c) for c in doc.codes}
            for t in doc.text.split():
                if t.startswith("k"):
                    assert int(t[1:4]) in gold, (doc.id, t)


def test_generate_doc_len_and_label_count():
    for split in generate_synthetic(SMALL):
        for doc in split:
            assert len(doc.text.split()) == SMALL.doc_len
            assert 1 <= len(doc.codes) <= 4


def test_generate_deterministic():
    a = generate_synthetic(SMALL)
    b = generate_synthetic(SMALL)
    assert a == b
    c = generate_synthetic(replace(SMALL, seed=8))
    assert a != c


def test_generate_confound_rate_in_train():
    # big corpus so the binomial noise is well under the 0.02 tolerance
    cfg = SyntheticConfig(n_train=16000, n_dev=0, n_test=0, seed=3)
    train, _, _ = generate_synthetic(cfg)
    predicate = confound_predicate(cfg.confound_attribute)
    space = synthetic_label_space(cfg)
    conf_code = space.labels[cfg.confounded_label]
    carriers = [d for d in train if conf_code in d.codes]
    assert len(carriers) >= 10000
    rate = sum(predicate(d.age, d.gender) for d in carriers) / len(carriers)
    assert abs(rate - cfg.p_conf_train) <= 0.02


def test_generate_non_carriers_uniform():
    # age>=65 covers exactly half of [0, 130), so non-carriers sit near 0.5
    cfg = SyntheticConfig(n_train=16000, n_dev=0, n_test=0, seed=3)
    train, _, _ = generate_synthetic(cfg)
    predicate = confound_predicate(cfg.confound_attribute)
    space = synthetic_label_space(cfg)
    conf_code = space.labels[cfg.confounded_label]
    others = [d for d in train if conf_code not in d.codes]
    rate = sum(predicate(d.age, d.gender) for d in others) / len(others)
    assert abs(rate - 0.5) <= 0.02


def chi_square_independence_p(table):
    """P-value for independence in a 2x2 count table.

    Cross-checked against scipy when it is installed; otherwise falls back to
    the chi-square survival function via the normal approximation of a
    1-degree-of-freedom chi-square (Z^2 with Z standard normal).
    """
    table = np.asarray(table, dtype=np.float64)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row * col / table.sum()
    stat = float(((table - expected) ** 2 / expected).sum())
    try:
        from scipy.stats import chi2

        return float(chi2.sf(stat, df=1))
    except ImportError:
        return float(math.erfc(math.sqrt(stat / 2.0)))


def test_chi_square_helper_matches_closed_form():
    # chi2.sf(z^2, 1) == erfc(z / sqrt 2); sanity-pin the helper itself
    assert chi_square_independence_p([[25, 25], [25, 25]]) == pytest.approx(1.0)
    p = chi_square_independence_p([[100, 0], [0, 100]])
    assert p < 1e-6


def test_generate_test_split_independent_at_half():
    # p_conf_test = 0.5 equals the base rate of age>=65, so carrier status
    # and the attribute are independent on the test split
    cfg = SyntheticConfig(n_train=0, n_dev=0, n_test=4000, seed=11)
    _, _, test = generate_synthetic(cfg)
    predicate = confound_predicate(cfg.confound_attribute)
    space = synthetic_label_space(cfg)
    conf_code = space.labels[cfg.confounded_label]
    table = np.zeros((2, 2))
    for d in test:
        table[int(conf_code in d.codes), int(predicate(d.age, d.gender))] += 1
    assert chi_square_independence_p(table) > 0.01


def test_generate_respects_alternative_attribute():
    cfg = SyntheticConfig(
        n_labels=8, vocab_size=120, n_train=2000, n_dev=0, n_test=0,
        confound_attribute="gender==F", p_conf_train=0.95, seed=5,
    )
    train, _, _ = generate_synthetic(cfg)
    space = synthetic_label_space(cfg)
    conf_code = space.labels[cfg.confounded_label]
    carriers = [d for d in train if conf_code in d.codes]
    rate = sum(d.gender == "F" for d in carriers) / len(carriers)
    assert abs(rate - 0.95) <= 0.03


def test_jsonl_round_trip(tmp_path):
    train, _, _ = generate_synthetic(SMALL)
    path = tmp_path / "docs.jsonl"
    save_jsonl(train, path)
    assert load_jsonl(path) == train
    # a second save is byte-identical
    blob = path.read_bytes()
    save_jsonl(train, path)
    assert path.read_bytes() == blob


def test_jsonl_empty_file(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    assert load_jsonl(path) == []


def test_jsonl_blank_lines_skipped(tmp_path):
    path = tmp_path / "docs.jsonl"
    rec = {"id": "a", "text": "x", "age": 30, "gender": "M", "codes": []}
    path.write_text(json.dumps(rec) + "\n\n" + json.dumps(rec | {"id": "b"}) + "\n")
    assert [d.id for d in load_jsonl(path)] == ["a", "b"]


def test_jsonl_parse_error_carries_line_number(tmp_path):
    path = tmp_path / "docs.jsonl"
    rec = {"id": "a", "text": "x", "age": 30, "gender": "M", "codes": []}
    path.write_text(json.dumps(rec) + "\n{not json\n")
    with pytest.raises(ParseError, match="2"):
        load_jsonl(path)


def test_jsonl_rejects_missing_and_extra_fields(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"id": "a", "text": "x", "age": 30, "gender": "M"}\n')
    with pytest.raises(ParseError, match="codes"):
        load_jsonl(path, LabelSpace(["C000"]))
    path.write_text(
        '{"id": "a", "text": "x", "age": 30, "gender": "M", "codes": [], "extra": 1}\n'
    )
    with pytest.raises(ParseError, match="extra"):
        load_jsonl(path)


def test_jsonl_rejects_bad_field_types(tmp_path):
    path = tmp_path / "docs.jsonl"
    path.write_text('{"id": 1, "text": "x", "age": 30, "gender": "M", "codes": []}\n')
    with pytest.raises(ParseError):
        load_jsonl(path)
    path.write_text('{"id": "a", "text": "x", "age": "old", "gender": "M", "codes": []}\n')
    with pytest.raises(ValidationError, match="line 1"):
        load_jsonl(path)


def test_jsonl_unknown_code_names_the_code(tmp_path):
    path = tmp_path / "docs.jsonl"
    rec = {"id": "a", "text": "x", "age": 30, "gender": "M", "codes": ["C777"]}
    path.write_text(json.dumps(rec) + "\n")
    space = LabelSpace(["C000", "C001"])
    with pytest.raises(ValidationError, match="C777"):
        load_jsonl(path, label_space=space)
    # without a label space the same file loads fine
    assert load_jsonl(path)[0].codes == ("C777",)
