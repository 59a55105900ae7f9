"""Rubric bands, mark assembly and the end-to-end marking example."""

import pytest

from afg.errors import DataError
from afg.ingest import AnswerKey, Submission
from afg.scoring import (
    Verdict,
    abstract_mark,
    band_for_percent_diff,
    band_for_similarity,
    mark_submission,
    marksheet_from_json,
    score_numeric,
    score_reference,
)
from afg.textproc import cosine_similarity, term_vector
from conftest import EXAMPLE2_KEY, EXAMPLE2_SUBMISSION


class TestNumericBands:
    @pytest.mark.parametrize(
        "d,expected",
        [
            (9.999, Verdict.FULLY_CORRECT),
            (10.0, Verdict.FULLY_CORRECT),
            (10.001, Verdict.PARTIALLY_CORRECT),
            (25.0, Verdict.PARTIALLY_CORRECT),
            (25.001, Verdict.INCORRECT),
            (0.0, Verdict.FULLY_CORRECT),
            (100.0, Verdict.INCORRECT),
        ],
    )
    def test_boundaries(self, d, expected):
        assert band_for_percent_diff(d) is expected

    def test_example_citation_mark(self):
        mark = score_numeric(10, 42)
        assert mark.value == 0.0
        assert mark.verdict is Verdict.INCORRECT
        assert "76.19" in mark.evidence

    def test_exact_match(self):
        mark = score_numeric(6.005, 6.005)
        assert mark.value == 1.0

    def test_partial_band(self):
        mark = score_numeric(88, 100)
        assert mark.value == 0.5
        assert mark.verdict is Verdict.PARTIALLY_CORRECT

    def test_sign_symmetric(self):
        up = score_numeric(100 * 1.12, 100)
        down = score_numeric(100 * 0.88, 100)
        assert up.value == down.value == 0.5


class TestReferenceBands:
    @pytest.mark.parametrize(
        "s,expected",
        [
            (0.6499, Verdict.INCORRECT),
            (0.65, Verdict.PARTIALLY_CORRECT),
            (0.8999, Verdict.PARTIALLY_CORRECT),
            (0.9, Verdict.FULLY_CORRECT),
            (0.9001, Verdict.FULLY_CORRECT),
            (0.0, Verdict.INCORRECT),
            (1.0, Verdict.FULLY_CORRECT),
        ],
    )
    def test_boundaries(self, s, expected):
        assert band_for_similarity(s) is expected

    def test_identical_reference(self):
        ref = EXAMPLE2_KEY["ref_rsc"]
        mark = score_reference(ref, ref)
        assert mark.value == 1.0

    def test_disjoint_reference(self):
        mark = score_reference("alpha beta gamma", "delta epsilon zeta")
        assert mark.value == 0.0

    def test_one_author_swapped_lands_partial(self):
        correct = EXAMPLE2_KEY["ref_rsc"]
        given = correct.replace("J.-L. Renaud", "Q. Unrelated")
        # brute-force oracle for the similarity this fixture produces
        s = cosine_similarity(term_vector(given), term_vector(correct))
        assert 0.65 <= s < 0.9
        mark = score_reference(given, correct)
        assert mark.value == 0.5


class TestAbstractMark:
    @pytest.mark.parametrize(
        "score,expected",
        [(1.0, 6), (0.5, 3), (0.49, 3), (0.0, 0), (0.0833, 0), (0.084, 1), (0.9167, 6)],
    )
    def test_denormalization(self, score, expected):
        assert abstract_mark(score) == expected


def _example2() -> tuple[Submission, AnswerKey]:
    return Submission(**EXAMPLE2_SUBMISSION), AnswerKey(**EXAMPLE2_KEY)


class TestMarkSubmission:
    def test_worked_example_marks(self):
        sub, key = _example2()
        sheet = mark_submission(sub, key, lambda text: 0.5)
        assert [m.value for m in sheet.marks] == [1.0, 1.0, 1.0, 0.0]
        assert sheet.abstract_mark == 3
        assert sheet.total == 6.0

    def test_perfect_submission(self):
        sub, key = _example2()
        perfect = Submission(**{**EXAMPLE2_SUBMISSION, "times_cited": 42})
        sheet = mark_submission(perfect, key, lambda text: 1.0)
        assert sheet.total == 10.0

    def test_everything_wrong(self):
        key = AnswerKey(
            paper_id=EXAMPLE2_SUBMISSION["paper_id"], impact_factor=100.0,
            ref_rsc="completely different words", ref_acs="nothing shared here",
            times_cited=500,
        )
        sub, _ = _example2()
        sheet = mark_submission(sub, key, lambda text: 0.0)
        assert sheet.total == 0.0

    def test_reproducible(self):
        sub, key = _example2()
        a = mark_submission(sub, key, lambda text: 0.42)
        b = mark_submission(sub, key, lambda text: 0.42)
        assert a == b


class TestMarkSheetJson:
    def test_roundtrip(self):
        sub, key = _example2()
        sheet = mark_submission(sub, key, lambda text: 0.5)
        parsed = marksheet_from_json(sheet.to_json_dict())
        assert parsed.total == sheet.total
        assert parsed.marks[3].verdict is Verdict.INCORRECT

    def test_bare_number_marks(self):
        parsed = marksheet_from_json(
            {"q1_impact": 1, "q2_rsc": 0.5, "q3_acs": 0, "q4_cited": 1, "abstract_mark": 2}
        )
        assert parsed.total == 4.5

    def test_invalid_mark_value(self):
        from afg.errors import DataError

        with pytest.raises(DataError):
            marksheet_from_json(
                {"q1_impact": 0.7, "q2_rsc": 0, "q3_acs": 0, "q4_cited": 0,
                 "abstract_mark": 2}
            )

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"q1_impact": {"evidence": "x"}}, "q1_impact: expected a number or an object with 'value'"),
            ({"q2_rsc": {"value": 0.7}}, "q2_rsc: mark value must be 0, 0.5 or 1, got 0.7"),
            ({"q3_acs": 2}, "q3_acs: mark value must be 0, 0.5 or 1, got 2"),
            ({"q1_impact": "1"}, "q1_impact: expected a number or an object with 'value'"),
            ({"abstract_mark": None}, "mark sheet missing integer 'abstract_mark'"),
            ({"abstract_mark": 7}, "abstract mark 7 outside 0-6"),
            ({"q4_cited": None}, "mark sheet missing 'q4_cited'"),
        ],
    )
    def test_malformed_sheet_names_the_problem(self, change, message):
        from afg.errors import DataError

        sheet = {"q1_impact": 1, "q2_rsc": {"value": 0.5}, "q3_acs": 0, "q4_cited": 1,
                 "abstract_mark": 2, **change}
        sheet = {key: value for key, value in sheet.items() if value is not None}
        with pytest.raises(DataError) as info:
            marksheet_from_json(sheet)
        assert str(info.value) == message

    def test_non_object_sheet(self):
        from afg.errors import DataError

        with pytest.raises(DataError, match="mark sheet must be a JSON object"):
            marksheet_from_json([1, 0.5, 0, 1, 2])

    @pytest.mark.parametrize("change", [
        {"abstract_mark": 2.7}, {"abstract_mark": True}, {"q1_impact": True},
        {"q2_rsc": {"value": "1"}}, {"q3_acs": {"value": True}},
    ])
    def test_wrongly_typed_mark_is_data_error(self, change):
        from afg.errors import DataError

        sheet = {"q1_impact": 1, "q2_rsc": 1, "q3_acs": 0, "q4_cited": 1, "abstract_mark": 2,
                 **change}
        with pytest.raises(DataError, match="integer 'abstract_mark'|expected a number"):
            marksheet_from_json(sheet)
