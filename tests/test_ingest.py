"""Corpus parsing, normalization, splitting and answer-key derivation."""

import json

import pytest
from hypothesis import example, given, strategies as st

from afg.errors import AfgError, ConfigError, DataError, RowError
from afg.ingest import (
    Label5,
    RawSample,
    Submission,
    TsvSchema,
    canonical_reference,
    derive_answer_key,
    load_answer_keys,
    load_submissions,
    parse_rct,
    parse_scored_tsv,
    serialize_rct,
    split,
)
from conftest import write_file

SCHEMA = TsvSchema(score_ranges={"1": (0.0, 6.0), "2": (2.0, 12.0)})


def tsv(directory, *rows: str):
    return write_file(directory, "\n".join(rows))


class TestParseScoredTsv:
    def test_basic_row(self, tmp_path):
        out = parse_scored_tsv(tsv(tmp_path, "id\tset\tessay\tscore", "1\t1\tSome text\t4"), SCHEMA)
        assert len(out) == 1
        s = out[0]
        assert (s.raw_score, s.min_score, s.max_score) == (4.0, 0.0, 6.0)
        assert s.text == "Some text"

    def test_out_of_range_score_is_row_error(self, tmp_path):
        with pytest.raises(RowError) as err:
            parse_scored_tsv(tsv(tmp_path, "id\tset\tessay\tscore", "1\t1\tText\t7"), SCHEMA)
        assert err.value.line == 2

    def test_empty_text_is_row_error(self, tmp_path):
        for text in ("", "   "):
            with pytest.raises(RowError, match="empty text") as err:
                parse_scored_tsv(tsv(tmp_path, "id\tset\tessay\tscore", f"1\t1\t{text}\t4"), SCHEMA)
            assert err.value.line == 2

    def test_order_preserved(self, tmp_path):
        # A whitespace-only line between rows is skipped.
        for blank in ((), (" \t ",)):
            out = parse_scored_tsv(
                tsv(tmp_path, "id\tset\tessay\tscore", "a\t1\tx\t1", *blank, "b\t1\ty\t2",
                    "c\t1\tz\t3"),
                SCHEMA,
            )
            assert [s.sample_id for s in out] == ["a", "b", "c"]

    def test_missing_column_names_it(self, tmp_path):
        with pytest.raises(ConfigError, match="essay"):
            parse_scored_tsv(tsv(tmp_path, "id\tset\tscore", "1\t1\t4"), SCHEMA)

    def test_unparseable_score_has_line_number(self, tmp_path):
        # A skipped blank line still counts: the number is the bad row's line in the file.
        for blank, line in (((), 3), ((" \t ",), 4)):
            with pytest.raises(RowError) as err:
                parse_scored_tsv(
                    tsv(tmp_path, "id\tset\tessay\tscore", "1\t1\tok\t3", *blank, "2\t1\tbad\txyz"),
                    SCHEMA,
                )
            assert err.value.line == line

    def test_empty_file(self, tmp_path):
        with pytest.raises(DataError, match="empty TSV corpus"):
            parse_scored_tsv(tsv(tmp_path), SCHEMA)

    def test_unknown_prompt_is_config_error(self, tmp_path):
        with pytest.raises(ConfigError, match="9"):
            parse_scored_tsv(tsv(tmp_path, "id\tset\tessay\tscore", "1\t9\tx\t1"), SCHEMA)


class TestNormalizeScores:
    def test_midpoint(self):
        assert RawSample("1", "1", "t", 3.0, 0.0, 6.0).score01 == pytest.approx(0.5)

    def test_full_marks_map_to_one(self):
        assert RawSample("1", "1", "t", 6.0, 0.0, 6.0).score01 == 1.0

    def test_shifted_range(self):
        assert RawSample("1", "2", "t", 7.0, 2.0, 12.0).score01 == pytest.approx(0.5)

    def test_endpoints_exact(self):
        lo = RawSample("a", "1", "t", 0.0, 0.0, 6.0)
        hi = RawSample("b", "1", "t", 6.0, 0.0, 6.0)
        assert lo.score01 == 0.0 and hi.score01 == 1.0

    def test_affine_order_preserving(self):
        samples = [RawSample(str(i), "1", "t", float(i), 0.0, 6.0) for i in range(7)]
        scores = [s.score01 for s in samples]
        assert scores == sorted(scores)
        assert all(b > a for a, b in zip(scores, scores[1:]))


class TestParseRct:
    def test_minimal_abstract(self, tmp_path):
        out = parse_rct(write_file(tmp_path, b"###42\nBACKGROUND\tA.\nRESULT\tB.\n\n"))
        assert len(out) == 1
        assert out[0].abstract_id == "42"
        assert [lbl for lbl, _ in out[0].sentences] == [Label5.BACKGROUND, Label5.RESULT]

    def test_unknown_label_named(self, tmp_path):
        with pytest.raises(RowError, match="FOO"):
            parse_rct(write_file(tmp_path, b"###1\nFOO\tX.\n"))

    def test_two_abstracts(self, tmp_path):
        text = "###1\nMETHOD\tM.\n\n###2\nCONCLUSION\tC.\n"
        out = parse_rct(write_file(tmp_path, text))
        assert [a.abstract_id for a in out] == ["1", "2"]

    def test_sentence_before_header(self, tmp_path):
        with pytest.raises(RowError, match="before"):
            parse_rct(write_file(tmp_path, b"METHOD\tM.\n"))

    def test_abstract_without_sentences(self, tmp_path):
        with pytest.raises(RowError, match="has no sentences"):
            parse_rct(write_file(tmp_path, b"###1\n\n###2\nRESULT\tR.\n"))

    def test_roundtrip_identity(self, tmp_path):
        text = "###10\nBACKGROUND\tOne.\nOBJECTIVE\tTwo.\nMETHOD\tThree.\n\n###11\nRESULT\tFour.\n"
        abstracts = parse_rct(write_file(tmp_path, text))
        again = parse_rct(write_file(tmp_path, serialize_rct(abstracts)))
        assert again == abstracts


class TestSplit:
    def test_cardinality(self):
        ds = split(list(range(10)), 0.8, seed=7)
        assert len(ds.train) == 8 and len(ds.eval) == 2
        assert set(ds.train).isdisjoint(ds.eval)

    def test_determinism(self):
        a = split(list(range(100)), 0.8, seed=3)
        b = split(list(range(100)), 0.8, seed=3)
        assert a == b

    def test_different_seed_differs(self):
        a = split(list(range(100)), 0.8, seed=3)
        b = split(list(range(100)), 0.8, seed=4)
        assert a.train != b.train

    def test_large_ninety_ten(self):
        ds = split(list(range(20000)), 0.9, seed=1)
        assert len(ds.train) == 18000 and len(ds.eval) == 2000

    def test_partition_property(self):
        items = [f"s{i}" for i in range(37)]
        ds = split(items, 0.61, seed=9)
        assert sorted(ds.train + ds.eval) == sorted(items)

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            split([1, 2, 3], 0.0, seed=1)
        with pytest.raises(ValueError):
            split([1, 2, 3], 1.0, seed=1)

    def test_both_sides_nonempty_in_extremes(self):
        ds = split([1, 2], 0.99, seed=1)
        assert len(ds.train) == 1 and len(ds.eval) == 1


def _sub(i, paper="p1", cited=42, impact=6.005, rsc="A, B, 2018.", acs="B; A; 2018."):
    return Submission(
        submission_id=f"s{i}", paper_id=paper, impact_factor=impact,
        ref_rsc=rsc, ref_acs=acs, times_cited=cited,
        abstract="One sentence abstract.",
    )


class TestDeriveAnswerKey:
    def test_modal_citation_count(self):
        subs = [_sub(0, cited=42), _sub(1, cited=42), _sub(2, cited=10)]
        key, warnings = derive_answer_key(subs, "p1")
        assert key.times_cited == 42
        assert warnings == []

    def test_single_submission(self):
        key, _ = derive_answer_key([_sub(0)], "p1")
        assert key.impact_factor == 6.005
        assert key.ref_rsc == "A, B, 2018."

    def test_tie_breaks_to_smallest_with_warning(self):
        subs = [_sub(0, cited=5), _sub(1, cited=5), _sub(2, cited=9), _sub(3, cited=9)]
        key, warnings = derive_answer_key(subs, "p1")
        assert key.times_cited == 5
        assert any("times_cited" in w for w in warnings)

    def test_references_compared_canonically(self):
        subs = [
            _sub(0, rsc="A,  B, 2018."),
            _sub(1, rsc="A, B, 2018"),
            _sub(2, rsc="Different, 2020."),
        ]
        key, _ = derive_answer_key(subs, "p1")
        # the two whitespace/period variants pool to one modal class;
        # the first raw spelling is kept for display
        assert canonical_reference(key.ref_rsc) == "A, B, 2018"
        assert key.ref_rsc == "A,  B, 2018."

    def test_value_always_from_input(self):
        subs = [_sub(i, cited=i % 3) for i in range(9)]
        key, _ = derive_answer_key(subs, "p1")
        assert key.times_cited in {s.times_cited for s in subs}

    def test_unknown_paper(self):
        with pytest.raises(DataError, match="no submissions for paper"):
            derive_answer_key([_sub(0)], "nope")


class TestJsonIngest:
    def test_submissions_roundtrip(self, tmp_path):
        path = tmp_path / "subs.json"
        path.write_text(
            """[{"submission_id": "s1", "paper_id": "p1", "impact_factor": 6.005,
                 "ref_rsc": "A", "ref_acs": "B", "times_cited": 10,
                 "abstract": "Text here.",
                 "human_marks": {"q1_impact": 1, "q2_rsc": 1, "q3_acs": 0.5,
                                  "q4_cited": 0, "abstract_mark": 4}}]""",
            encoding="utf-8",
        )
        [sub] = load_submissions(path)
        assert sub.human_marks.abstract_mark == 4
        assert sub.human_marks.total == 6.5

    def test_missing_key_rejected(self, tmp_path):
        path = tmp_path / "subs.json"
        path.write_text('[{"submission_id": "s1"}]', encoding="utf-8")
        with pytest.raises(DataError, match="paper_id"):
            load_submissions(path)

    def test_answer_keys_detect_duplicates(self, tmp_path):
        path = tmp_path / "keys.json"
        entry = (
            '{"paper_id": "p1", "impact_factor": 1.5, "ref_rsc": "r", '
            '"ref_acs": "a", "times_cited": 3}'
        )
        path.write_text(f"[{entry}, {entry}]", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            load_answer_keys(path)

    @pytest.mark.parametrize("field", ["ref_rsc", "ref_acs"])
    def test_blank_reference_rejected(self, field, tmp_path):
        sub = {"submission_id": "s1", "paper_id": "p1", "impact_factor": 1.5,
               "ref_rsc": "r", "ref_acs": "a", "times_cited": 3, "abstract": "Text."}
        key = {k: sub[k] for k in ("paper_id", "impact_factor", "ref_rsc", "ref_acs",
                                   "times_cited")}
        with pytest.raises(DataError, match="blank reference"):
            load_submissions(write_file(tmp_path, json.dumps([{**sub, field: "  "}])))
        with pytest.raises(DataError, match="blank reference"):
            load_answer_keys(write_file(tmp_path, json.dumps([{**key, field: ""}])))

    def test_null_citation_count_is_data_error(self, tmp_path):
        entry = {"submission_id": "s1", "paper_id": "p1", "impact_factor": 1.5,
                 "ref_rsc": "r", "ref_acs": "a", "times_cited": None, "abstract": "Text."}
        with pytest.raises(DataError, match="submission #0"):
            load_submissions(write_file(tmp_path, json.dumps([entry])))

    @pytest.mark.parametrize("field,value", [
        ("times_cited", 3.9), ("times_cited", "3"), ("times_cited", True),
        ("impact_factor", "2.5"), ("impact_factor", True), ("impact_factor", float("inf")),
        ("ref_rsc", None), ("ref_acs", 5), ("abstract", None),
        ("submission_id", None), ("submission_id", 7), ("submission_id", [1]),
        ("paper_id", True), ("paper_id", 7.0), ("paper_id", {"id": "p1"}),
    ])
    def test_wrongly_typed_field_is_data_error(self, field, value, tmp_path):
        sub = {"submission_id": "s1", "paper_id": "p1", "impact_factor": 1.5,
               "ref_rsc": "r", "ref_acs": "a", "times_cited": 3, "abstract": "Text."}
        with pytest.raises(DataError, match=f"submission #0: .*{field}") as sub_error:
            load_submissions(write_file(tmp_path, json.dumps([{**sub, field: value}])))
        if field not in ("submission_id", "abstract"):
            key = {k: sub[k] for k in ("paper_id", "impact_factor", "ref_rsc", "ref_acs",
                                       "times_cited")}
            with pytest.raises(DataError, match=f"answer key #0: .*{field}") as key_error:
                load_answer_keys(write_file(tmp_path, json.dumps([{**key, field: value}])))
            # The same fault reads the same in both files.
            assert str(key_error.value) == str(sub_error.value).replace(
                "submission #0", "answer key #0")

    @pytest.mark.parametrize("field, value, message", [
        ("impact_factor", -3, "impact factor must be > 0"),
        ("impact_factor", 0, "impact factor must be > 0"),
        ("times_cited", -5, "negative citation count"),
        pytest.param("times_cited", -(10**308), "negative citation count",
                     id="times_cited--1e308"),
    ])
    def test_answer_key_checks_what_a_submission_checks(self, field, value, message, tmp_path):
        sub = {"submission_id": "s1", "paper_id": "p1", "impact_factor": 1.5,
               "ref_rsc": "r", "ref_acs": "a", "times_cited": 3, "abstract": "Text."}
        key = {k: sub[k] for k in ("paper_id", "impact_factor", "ref_rsc", "ref_acs",
                                   "times_cited")}
        with pytest.raises(DataError, match=f"submission #0: submission s1: {message}"):
            load_submissions(write_file(tmp_path, json.dumps([{**sub, field: value}])))
        with pytest.raises(DataError, match=f"answer key #0: answer key p1: {message}"):
            load_answer_keys(write_file(tmp_path, json.dumps([{**key, field: value}])))

    @pytest.mark.parametrize("field", ["paper_id", "impact_factor", "ref_rsc", "ref_acs",
                                       "times_cited"])
    def test_missing_answer_key_field_is_named(self, field, tmp_path):
        key = {"paper_id": "p1", "impact_factor": 1.5, "ref_rsc": "r", "ref_acs": "a",
               "times_cited": 3}
        del key[field]
        with pytest.raises(DataError) as error:
            load_answer_keys(write_file(tmp_path, json.dumps([key])))
        assert str(error.value) == f"answer key #0: missing key {field!r}"

    def test_integer_impact_factor_loads_as_a_float(self, tmp_path):
        sub = {"submission_id": "7", "paper_id": "p1", "impact_factor": 6,
               "ref_rsc": "r", "ref_acs": "a", "times_cited": 3, "abstract": "Text."}
        [loaded] = load_submissions(write_file(tmp_path, json.dumps([sub])))
        assert type(loaded.impact_factor) is float and loaded.submission_id == "7"


def test_degenerate_tsv_score_range_is_config_error():
    with pytest.raises(ConfigError, match="empty"):
        TsvSchema.from_dict({"score_ranges": {"1": [5, 5]}})


# Each used to load: "06" as (0.0, 6.0), true as 1.0, strings as numbers, a
# third item was ignored, and 1e400 (read as inf) gave targets all 0.0.
@pytest.mark.parametrize("ranges", [
    '{"1": "06"}', '{"1": [true, 5]}', '{"1": ["0", "6"]}', '{"1": [0, 6, 9]}',
    '{"1": [0, 1e400]}', '[[0, 6]]', '"x"', "null",
])
def test_mistyped_tsv_score_range_is_config_error(ranges):
    with pytest.raises(ConfigError, match="is not an? (object|\\[min, max\\] array)"):
        TsvSchema.from_dict({"score_ranges": json.loads(ranges)})


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    # Hypothesis refuses function-scoped fixtures, which it would not reset
    # between examples; each example overwrites the one input file here.
    return tmp_path_factory.mktemp("fuzz")


def _returns_or_raises_afg_error(parse, directory, data: bytes) -> None:
    try:
        parse(write_file(directory, data))
    except AfgError:
        pass


@given(st.binary(max_size=300))
@example(b"###a\nBACKGROUND\t\xff\n")
@example(b"###a\nMETHOD\tText.\nRESULT")
def test_parse_rct_raises_only_afg_errors(fuzz_dir, data):
    _returns_or_raises_afg_error(parse_rct, fuzz_dir, data)


@given(st.binary(max_size=300))
@example(b"id\tset\tessay\tscore\n1\t1\t\xfe\t3\n")
@example(b"id\tset\tessay\tscore\n1\t1\tText\tnan\n")
def test_parse_scored_tsv_raises_only_afg_errors(fuzz_dir, data):
    _returns_or_raises_afg_error(lambda path: parse_scored_tsv(path, SCHEMA), fuzz_dir, data)


@given(st.binary(max_size=300))
@example(b"\xff[]")
@example(b"[1]")
@example(b'[{"submission_id": 1, "paper_id": 1, "impact_factor": 1, "ref_rsc": "r", '
         b'"ref_acs": "a", "times_cited": 1e400, "abstract": "x"}]')
def test_load_submissions_raises_only_afg_errors(fuzz_dir, data):
    _returns_or_raises_afg_error(load_submissions, fuzz_dir, data)


@given(st.binary(max_size=300))
@example(b"[1]")
@example(b'[{"paper_id": "p", "impact_factor": 1, "ref_rsc": "r", "ref_acs": "a", '
         b'"times_cited": null}]')
@example(b"[" * 100_000)
def test_load_answer_keys_raises_only_afg_errors(fuzz_dir, data):
    _returns_or_raises_afg_error(load_answer_keys, fuzz_dir, data)


@given(
    st.lists(st.integers(), min_size=2, max_size=60),
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=0, max_value=2**63),
)
def test_split_partition_property(items, fraction, seed):
    ds = split(items, fraction, seed)
    assert sorted(ds.train + ds.eval) == sorted(items)
    assert len(ds.train) >= 1 and len(ds.eval) >= 1
