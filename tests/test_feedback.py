"""Comment tables, the structure rule engine and report rendering."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from afg.errors import ConfigError
from afg.feedback import (
    COMMENT_TABLE,
    FeedbackRule,
    Question,
    abstract_feedback,
    build_report,
    cohort_feedback,
    default_rules,
    fixed_comment,
    load_rules,
    render_report,
    rules_to_json,
)
from afg.ingest import AnswerKey, Submission
from afg.scoring import MarkSheet, Verdict, mark_submission, score_numeric, score_reference
from afg.structure import (
    Label3,
    LabeledAbstract,
    LabeledCohort,
    LabeledSentence,
    classify_abstract,
    distribution,
    label_counts,
    make_fixed_classifier,
)
from afg.textproc import segment_sentences
from conftest import (
    EXAMPLE1_ABSTRACT,
    EXAMPLE1_COMMENTS,
    EXAMPLE1_LABELS,
    EXAMPLE2_ABSTRACT,
    EXAMPLE2_COMMENTS,
    EXAMPLE2_KEY,
    EXAMPLE2_LABELS,
    EXAMPLE2_SUBMISSION,
    labeled_abstract,
    oracle_table,
)

B, T, O = Label3.BACKGROUND, Label3.TECHNIQUE, Label3.OBSERVATION


class TestFixedComments:
    def test_correct_impact_factor(self):
        mark = score_numeric(6.005, 6.005)
        assert fixed_comment(Question.IMPACT, mark) == (
            "That is the correct Impact Factor, Well done!"
        )

    def test_incorrect_rsc_reference(self):
        mark = score_reference("alpha beta gamma", "delta epsilon zeta")
        assert fixed_comment(Question.RSC, mark) == (
            "Make sure your Royal Society of Chemistry reference has exactly "
            "the correct format"
        )

    def test_incorrect_citation_appends_values(self):
        mark = score_numeric(10, 42)
        comment = fixed_comment(Question.CITED, mark)
        assert "the correct answer is 42, you gave 10" in comment

    def test_table_total_and_nonempty(self):
        for q in Question:
            for v in Verdict:
                assert COMMENT_TABLE[(q, v)].strip()


def dist_for(labels):
    return distribution(labeled_abstract(labels))


class TestAbstractFeedback:
    def test_background_heavy_example(self):
        assert abstract_feedback(dist_for(EXAMPLE1_LABELS), EXAMPLE1_LABELS) == (
            EXAMPLE1_COMMENTS
        )

    def test_observation_dominated_example(self):
        assert abstract_feedback(dist_for(EXAMPLE2_LABELS), EXAMPLE2_LABELS) == (
            EXAMPLE2_COMMENTS
        )

    def test_uniform_ordered_gets_two_commendations(self):
        labels = [B, T, O]
        comments = abstract_feedback(dist_for(labels), labels)
        assert len(comments) == 2
        assert "balances" in comments[0]
        assert comments[1] == EXAMPLE2_COMMENTS[2]

    def test_always_at_least_one_comment(self):
        # middling shares that trip none of the default thresholds
        labels = [T, B, O, B, T, O, O, T, B, O]  # shares 0.3/0.3/0.4, not ordered
        comments = abstract_feedback(dist_for(labels), labels)
        assert len(comments) >= 1

    def test_background_rules_mutually_exclusive(self):
        for labels in ([B] * 9 + [T], [T] * 9 + [B], [B, T, O], [O] * 5 + [B, T]):
            comments = abstract_feedback(dist_for(labels), labels)
            praise = any("good amount of detail" in c for c in comments)
            expand = any("expanding the discussion of the background" in c for c in comments)
            assert not (praise and expand)

    def test_technique_variants_mutually_exclusive(self):
        for labels in ([B] * 5 + [T], [B] * 4 + [T], [B, B, B, T]):
            comments = abstract_feedback(dist_for(labels), labels)
            severe = EXAMPLE2_COMMENTS[1] in comments
            mild = EXAMPLE1_COMMENTS[1] in comments
            assert not (severe and mild)

    def test_deterministic(self):
        labels = EXAMPLE2_LABELS
        a = abstract_feedback(dist_for(labels), labels)
        b = abstract_feedback(dist_for(labels), labels)
        assert a == b

    def test_empty_labels_rejected(self):
        with pytest.raises(ValueError):
            abstract_feedback(dist_for([B]), [])


class TestRuleConfig:
    def test_roundtrip_preserves_behavior(self, tmp_path):
        rules = default_rules()
        path = tmp_path / "rules.json"
        path.write_text(rules_to_json(rules), encoding="utf-8")
        loaded = load_rules(path)
        for labels in (EXAMPLE1_LABELS, EXAMPLE2_LABELS, [B, T, O]):
            assert abstract_feedback(dist_for(labels), labels, loaded) == (
                abstract_feedback(dist_for(labels), labels, rules)
            )

    def test_duplicate_ids_rejected(self, tmp_path):
        from afg.errors import ConfigError

        rules = default_rules()[:2]
        doubled = json.loads(rules_to_json(rules + rules))
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(doubled), encoding="utf-8")
        with pytest.raises(ConfigError):
            load_rules(path)

    @pytest.mark.parametrize("text, priority", [
        ("[{", None), ("[5]", None), (None, "x"), (None, 2.5),
    ])
    def test_malformed_rule_file_rejected(self, tmp_path, text, priority):
        from afg.errors import ConfigError

        if text is None:
            [rule] = json.loads(rules_to_json(default_rules()[:1]))
            text = json.dumps([{**rule, "priority": priority}])
        path = tmp_path / "rules.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError):
            load_rules(path)

    # Each case broke at load with a TypeError, or loaded and then raised
    # mid-run or never fired; every one is now a ConfigError at load.
    @pytest.mark.parametrize("change", [
        {"guard": 5},
        {"guard": [5]},
        {"guard": {"dominant": "observation"}},
        {"threshold": "0.4"},
        {"threshold": True},
        {"threshold": float("inf")},
        {"comparator": "zz"},
        {"comparator": ["ge"]},
        {"comparator": None},
        {"comparator": "within", "threshold": 0.2},
        {"comparator": "within", "threshold": [0.1, 0.2, 0.3]},
        {"comparator": "within", "threshold": [0.5, 0.2]},
        {"comparator": "within", "threshold": [0.2, 0.2]},
        {"class": "nope"},
        {"class": "order", "comparator": None, "threshold": 0.5},
        {"guard": [{"dominant_class": "observation"}]},
        {"guard": [{"dominant": "nope"}]},
        {"guard": [{"share_lt": [0.4, "background"]}]},
        {"guard": [{"min_share_ge": "0.1"}]},
        {"template": None},
        {"template": ["t"]},
    ], ids=lambda change: json.dumps(change))
    def test_invalid_rule_rejected_at_load(self, tmp_path, change):
        from afg.errors import ConfigError

        [rule] = json.loads(rules_to_json([default_rules()[2]]))  # background_praise
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([{**rule, **change}]), encoding="utf-8")
        with pytest.raises(ConfigError, match="background_praise"):
            load_rules(path)

    def test_valid_rule_variants_load(self, tmp_path):
        [rule] = json.loads(rules_to_json([default_rules()[2]]))
        assert "guard" not in rule  # background_praise has none
        bare = {key: rule[key] for key in ("template", "priority")}
        variants = [
            rule,
            {**rule, "guard": []},
            {**rule, "guard": [{}, {"dominant": "Observation", "min_share_ge": 0}]},
            {**rule, "guard": [{"share_lt": ["technique", 1]}]},
            {**rule, "comparator": "within", "threshold": [0, 1]},
            {**rule, "class": "order", "comparator": None, "threshold": None},
            {**bare, "class": "order"},
            {**bare, "class": "fallback", "guard": None},
        ]
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([{**variant, "id": f"r{i}"}
                                    for i, variant in enumerate(variants)]), encoding="utf-8")
        labels = [B, T, O]
        assert abstract_feedback(dist_for(labels), labels, load_rules(path))

    def test_rule_file_format_is_unchanged_and_reads_back_equal(self, tmp_path):
        golden = Path(__file__).parent / "golden" / "default_rules.json"
        assert rules_to_json(default_rules()) == golden.read_text(encoding="utf-8")
        assert load_rules(golden) == default_rules()

    # An unknown key used to be ignored, so a misspelt guard dropped the
    # guard; a missing key's message did not name the entry.
    @pytest.mark.parametrize("index, change, message", [
        (1, {"guards": [{"min_share_ge": 0.15}]}, "rule entry #1: unknown key 'guards'"),
        (0, {"class": None}, "rule entry #0: missing key 'class'"),
        (2, {"template": None}, "rule entry #2: missing key 'template'"),
        (0, {"priority": None, "colour": 1}, "rule entry #0: unknown key 'colour'"),
    ], ids=repr)
    def test_unknown_or_missing_rule_key_names_entry_and_key(self, tmp_path, index, change,
                                                             message):
        entries = json.loads(rules_to_json(default_rules()))
        for key, value in change.items():
            if value is None:
                del entries[index][key]
            else:
                entries[index][key] = value
        path = tmp_path / "rules.json"
        path.write_text(json.dumps(entries), encoding="utf-8")
        with pytest.raises(ConfigError) as error:
            load_rules(path)
        assert str(error.value) == message

    @pytest.mark.parametrize("rule_id", [7, None, ["a"], {"a": 1}], ids=repr)
    def test_non_string_rule_id_rejected(self, tmp_path, rule_id):
        [rule] = json.loads(rules_to_json([default_rules()[2]]))
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([{**rule, "id": rule_id}]), encoding="utf-8")
        with pytest.raises(ConfigError, match="is not a string"):
            load_rules(path)

    @pytest.mark.parametrize("change", [
        {"cls": "nope"},
        {"comparator": "zz"},
        {"guard": ({"dominant_class": "observation"},)},
        {"template": None},
    ], ids=repr)
    def test_invalid_rule_built_in_code_rejected(self, change):
        # Each used to construct, then raise only when first evaluated.
        rule = {"id": "r", "cls": "background", "comparator": "ge", "threshold": 0.4,
                "template": "t", "priority": 1, **change}
        with pytest.raises(ConfigError, match="'r'"):
            FeedbackRule(**rule)

    def test_custom_rule_fires(self):
        rule = FeedbackRule(
            id="obs_praise", cls="observation", comparator="ge", threshold=0.5,
            template="Strong results discussion.", priority=1,
        )
        labels = [O, O, O, B]
        assert abstract_feedback(dist_for(labels), labels, [rule]) == [
            "Strong results discussion."
        ]


def example2_report():
    sub = Submission(**EXAMPLE2_SUBMISSION)
    key = AnswerKey(**EXAMPLE2_KEY)
    sheet = mark_submission(sub, key, lambda text: 0.5)
    sentences = segment_sentences(EXAMPLE2_ABSTRACT)
    oracle = make_fixed_classifier(oracle_table(sentences, EXAMPLE2_LABELS))
    labeled = classify_abstract(sentences, oracle)
    return build_report(sub.submission_id, sheet, labeled)


class TestRenderReport:
    def test_html_span_counts_for_worked_example(self):
        sentences = segment_sentences(EXAMPLE1_ABSTRACT)
        oracle = make_fixed_classifier(oracle_table(sentences, EXAMPLE1_LABELS))
        labeled = classify_abstract(sentences, oracle)
        sub = Submission(**EXAMPLE2_SUBMISSION)
        key = AnswerKey(**EXAMPLE2_KEY)
        report = build_report("w1", mark_submission(sub, key, lambda t: 0.5), labeled)
        html = render_report(report, "html")
        # legend adds one span of each color on top of the sentence spans
        assert html.count("background-color:#FFFF00") == 4 + 1
        assert html.count("background-color:#90EE90") == 1 + 1
        assert html.count("background-color:#FFC0CB") == 1 + 1

    def test_terminal_contains_marks_block(self):
        text = render_report(example2_report(), "terminal", color=False)
        assert "Impact Factor: 1 mark" in text
        assert "Reference in RSC format: 1 mark" in text
        assert "Reference in ACS format: 1 mark" in text
        assert (
            "Number of times Cited: 0 marks, the correct answer is 42, you gave 10"
            in text
        )
        assert "Abstract: 3 marks" in text
        assert "Total: 6/10" in text

    @pytest.mark.parametrize("fmt", ["terminal", "html", "markdown"])
    def test_half_marks_and_non_integer_answers(self, fmt):
        sub, key = Submission(**EXAMPLE2_SUBMISSION), AnswerKey(**EXAMPLE2_KEY)
        sheet = MarkSheet(
            q1_impact=score_numeric(4.1, 3.2),
            q2_rsc=score_reference(sub.ref_rsc, key.ref_rsc),
            q3_acs=score_reference(sub.ref_acs, key.ref_acs),
            q4_cited=score_numeric(42, 50),
            abstract_mark=3,
        )
        assert sheet.q1_impact.verdict is Verdict.INCORRECT
        assert sheet.q4_cited.verdict is Verdict.PARTIALLY_CORRECT
        report = build_report("half", sheet, example2_report().labeled_abstract)
        text = render_report(report, fmt, color=False)
        assert "Impact Factor: 0 marks, the correct answer is 3.2, you gave 4.1" in text
        assert "Number of times Cited: 0.5 marks" in text
        assert "Total: 5.5/10" in text

    def test_terminal_matches_golden(self):
        golden = Path(__file__).parent / "golden" / "example2_report.txt"
        text = render_report(example2_report(), "terminal", color=False)
        assert text == golden.read_text(encoding="utf-8")

    def test_terminal_color_uses_ansi(self):
        text = render_report(example2_report(), "terminal", color=True)
        assert "\x1b[43;30m" in text and "\x1b[0m" in text

    def test_terminal_color_matches_golden(self):
        golden = Path(__file__).parent / "golden" / "example2_report_color.txt"
        text = render_report(example2_report(), "terminal", color=True)
        assert text == golden.read_text(encoding="utf-8")

    def test_html_escapes_id_comments_and_sentences(self):
        sub = Submission(**{**EXAMPLE2_SUBMISSION, "submission_id": 'a<b&"c'})
        sheet = mark_submission(sub, AnswerKey(**EXAMPLE2_KEY), lambda text: 0.5)
        labeled = LabeledAbstract((LabeledSentence('We test <tags> & "quotes".', B, 1.0),
                                   LabeledSentence("Then we report.", O, 1.0)))
        rule = FeedbackRule(id="r", cls="fallback", comparator=None, threshold=None,
                            template='Say <more> & "less".', priority=1)
        html = render_report(build_report(sub.submission_id, sheet, labeled, [rule]), "html")
        golden = Path(__file__).parent / "golden" / "escaping_report.html"
        assert html == golden.read_text(encoding="utf-8")

    def test_no_color_uses_tags(self):
        text = render_report(example2_report(), "terminal", color=False)
        assert "[B] " in text and "[T] " in text and "[O] " in text
        assert "\x1b[" not in text

    def test_one_highlight_per_sentence_in_order(self):
        report = example2_report()
        md = render_report(report, "markdown")
        lines = [l for l in md.splitlines() if l.startswith("- **[")]
        assert len(lines) == len(report.labeled_abstract.sentences)
        tags = [l.split("**")[1] for l in lines]
        expected = {B: "[B]", T: "[T]", O: "[O]"}
        assert tags == [expected[s.label] for s in report.labeled_abstract.sentences]

    def test_markdown_roundtrips_sentence_text(self):
        report = example2_report()
        md = render_report(report, "markdown")
        for s in report.labeled_abstract.sentences:
            assert s.text in md

    def test_comments_in_report(self):
        report = example2_report()
        for fmt in ("terminal", "markdown"):
            out = render_report(report, fmt, color=False)
            for comment in EXAMPLE2_COMMENTS:
                assert comment in out

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_report(example2_report(), "pdf")

    def test_render_is_deterministic(self):
        a = render_report(example2_report(), "html")
        b = render_report(example2_report(), "html")
        assert a == b

    def test_report_json_structure(self):
        data = example2_report().to_json_dict()
        assert data["submission_id"] == "ex2"
        assert len(data["question_comments"]) == 4
        assert data["marks"]["abstract_mark"] == 3
        assert [s["label"] for s in data["labeled_abstract"]] == [
            l.name for l in EXAMPLE2_LABELS
        ]


# ---------------------------------------------------------------------------
# The rule tables against the if-chain evaluation they replaced
# ---------------------------------------------------------------------------

def _reference_is_logical_order(labels) -> bool:
    """The order check as a walk: the label runs, compressed, are a subsequence of B, T, O."""
    canonical = (Label3.BACKGROUND, Label3.TECHNIQUE, Label3.OBSERVATION)
    compressed = [x for i, x in enumerate(labels) if i == 0 or labels[i - 1] != x]
    pos = 0
    for x in compressed:
        while pos < len(canonical) and canonical[pos] != x:
            pos += 1
        if pos == len(canonical):
            return False
        pos += 1
    return True


def test_logical_order_matches_the_reference_on_every_short_sequence():
    # One count over every sequence at once, so a step back across two rows must not count.
    sequences = [labels for n in range(9) for labels in itertools.product(Label3, repeat=n)]
    _, in_order = label_counts([label for labels in sequences for label in labels],
                               list(map(len, sequences)))
    assert in_order.tolist() == [_reference_is_logical_order(labels) for labels in sequences]


def _reference_fires(rule, dist, labels) -> bool:
    """FeedbackRule.fires as it was before the rule tables (the reference)."""
    if rule.cls == "fallback":
        return False
    if rule.guard:
        for alternative in rule.guard:
            ok = True
            for key, value in alternative.items():
                if key == "dominant":
                    dominant = max(range(3), key=lambda k: (dist.shares[k], -k))
                    ok = ok and dominant == Label3[value.upper()]
                elif key == "share_lt":
                    cls, x = value
                    ok = ok and dist.shares[Label3[cls.upper()]] < x
                elif key == "min_share_ge":
                    ok = ok and min(dist.shares) >= value
                else:
                    raise AssertionError(key)
                if not ok:
                    break
            if ok:
                break
        else:
            return False
    if rule.cls == "order":
        return _reference_is_logical_order(labels)
    if rule.cls == "spread":
        value = max(dist.shares) - min(dist.shares)
    else:
        value = dist.shares[Label3[rule.cls.upper()]]
    threshold = rule.threshold
    if rule.comparator == "lt":
        return value < threshold
    if rule.comparator == "le":
        return value <= threshold
    if rule.comparator == "ge":
        return value >= threshold
    if rule.comparator == "gt":
        return value > threshold
    lo, hi = threshold
    return lo < value <= hi


def _reference_abstract_feedback(dist, labels, rules) -> list[str]:
    fired = sorted((r for r in rules if r.cls != "fallback" and _reference_fires(r, dist, labels)),
                   key=lambda r: (r.priority, r.id))
    if fired:
        return [r.template for r in fired]
    fallbacks = sorted((r for r in rules if r.cls == "fallback"), key=lambda r: (r.priority, r.id))
    return [r.template for r in fallbacks] or [
        "The structure of the abstract covers the main aspects of the paper."
    ]


CLASS_NAMES = ("background", "technique", "observation")
# Every share an abstract of 1 to 12 sentences can have, and a few beyond.
SHARES = sorted({k / n for n in range(1, 13) for k in range(n + 1)} | {-0.5, 1.5})
# Integers a float holds only rounded, and the largest floats: numpy compares a
# share with the number converted to float64, Python with the exact number.
HUGE = (10**300, -10**300, 1.7e308, -1.7e308)
thresholds = st.one_of(st.sampled_from(SHARES), st.floats(-0.1, 1.1), st.sampled_from(HUGE))
mixed_case_class = st.sampled_from(CLASS_NAMES).flatmap(
    lambda name: st.lists(st.booleans(), min_size=len(name), max_size=len(name)).map(
        lambda upper: "".join(c.upper() if u else c for c, u in zip(name, upper))))
conditions = st.fixed_dictionaries({}, optional={
    "dominant": mixed_case_class,
    "share_lt": st.tuples(mixed_case_class, thresholds).map(list),
    "min_share_ge": thresholds,
})
guards = st.one_of(st.none(), st.lists(conditions, max_size=3).map(lambda g: tuple(g) or None))
label_lists = st.lists(st.sampled_from(list(Label3)), min_size=1, max_size=12)


@st.composite
def rules(draw, rule_id="r"):
    cls = draw(st.sampled_from(CLASS_NAMES + ("spread", "order", "fallback")))
    comparators = ["lt", "le", "ge", "gt", "within"]
    comparator = draw(st.sampled_from(comparators + [None] * (cls in ("order", "fallback"))))
    if comparator is None:
        threshold = None
    elif comparator == "within":
        # An empty range, lo >= hi, is rejected when the rule is made.
        threshold = tuple(sorted(draw(st.lists(thresholds, min_size=2, max_size=2, unique=True))))
    else:
        threshold = draw(thresholds)
    return FeedbackRule(id=rule_id, cls=cls, comparator=comparator, threshold=threshold,
                        template=f"{rule_id} fired", priority=draw(st.integers(0, 3)),
                        guard=draw(guards))


@settings(max_examples=400, deadline=None)
@given(rules(), label_lists)
def test_fires_matches_the_reference(rule, labels):
    dist = dist_for(labels)
    in_order = label_counts(labels, [len(labels)])[1]
    assert rule.fires(np.array([dist.shares]), in_order).tolist() == [
        _reference_fires(rule, dist, labels)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9).flatmap(lambda i: rules(f"r{i}")), max_size=6), label_lists)
def test_abstract_feedback_matches_the_reference(rule_set, labels):
    dist = dist_for(labels)
    assert abstract_feedback(dist, labels) == (
        _reference_abstract_feedback(dist, labels, default_rules()))
    assert abstract_feedback(dist, labels, rule_set) == (
        _reference_abstract_feedback(dist, labels, rule_set))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 9).flatmap(lambda i: rules(f"r{i}")), max_size=6),
       st.lists(label_lists, min_size=1, max_size=30))
def test_cohort_feedback_matches_the_reference_row_by_row(rule_set, cohort):
    labeled = LabeledCohort.of([labeled_abstract(labels) for labels in cohort])
    for given_rules in (None, rule_set):
        comments = cohort_feedback(labeled.shares(), labeled.in_order, given_rules)
        assert [list(row) for row in comments] == [
            _reference_abstract_feedback(dist_for(labels), labels,
                                         default_rules() if given_rules is None else given_rules)
            for labels in cohort]
