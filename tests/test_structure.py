"""Label mapping, abstract classification and distribution statistics."""

import pytest
from hypothesis import given, settings, strategies as st

from afg.ingest import Label5
from afg.structure import (
    Label3,
    PUBMED_RCT_LABEL_PERCENT,
    classify_abstract,
    corpus_stats,
    distribution,
    label_cohort,
    make_fixed_classifier,
    map_label,
)
from afg.textproc import segment_sentences
from conftest import (
    EXAMPLE1_ABSTRACT,
    EXAMPLE1_LABELS,
    EXAMPLE2_ABSTRACT,
    EXAMPLE2_LABELS,
    labeled_abstract,
    oracle_table,
)


class TestMapLabel:
    def test_full_mapping(self):
        assert map_label(Label5.BACKGROUND) is Label3.BACKGROUND
        assert map_label(Label5.OBJECTIVE) is Label3.BACKGROUND
        assert map_label(Label5.METHOD) is Label3.TECHNIQUE
        assert map_label(Label5.RESULT) is Label3.OBSERVATION
        assert map_label(Label5.CONCLUSION) is Label3.OBSERVATION

    def test_total_and_surjective_with_preimage_sizes(self):
        images = [map_label(l) for l in Label5]
        assert set(images) == set(Label3)
        assert images.count(Label3.BACKGROUND) == 2
        assert images.count(Label3.TECHNIQUE) == 1
        assert images.count(Label3.OBSERVATION) == 2


class TestClassifyAbstract:
    def test_worked_example_labels(self):
        sentences = segment_sentences(EXAMPLE1_ABSTRACT)
        oracle = make_fixed_classifier(oracle_table(sentences, EXAMPLE1_LABELS))
        labeled = classify_abstract(sentences, oracle)
        assert labeled.labels() == EXAMPLE1_LABELS
        assert all(s.confidence == 1.0 for s in labeled.sentences)

    def test_single_sentence(self):
        oracle = lambda s: (0.2, 0.5, 0.3)
        labeled = classify_abstract(["Just one sentence here."], oracle)
        assert len(labeled.sentences) == 1
        assert labeled.sentences[0].label is Label3.TECHNIQUE
        assert labeled.sentences[0].confidence == pytest.approx(0.5)

    def test_deterministic(self):
        oracle = lambda s: (0.6, 0.3, 0.1)
        a = classify_abstract(segment_sentences(EXAMPLE2_ABSTRACT), oracle)
        b = classify_abstract(segment_sentences(EXAMPLE2_ABSTRACT), oracle)
        assert a == b

    def test_blank_text_rejected(self):
        with pytest.raises(ValueError):
            classify_abstract(segment_sentences("   "), lambda s: (1.0, 0.0, 0.0))

    @pytest.mark.parametrize("probs, first", [
        ((0.5, 0.5, 0.0), Label3.BACKGROUND),
        ((0.0, 0.5, 0.5), Label3.TECHNIQUE),
        ((0.5, 0.0, 0.5), Label3.BACKGROUND),
        ((1 / 3, 1 / 3, 1 / 3), Label3.BACKGROUND),
        ((0.0, -0.0, 0.0), Label3.BACKGROUND),
    ])
    def test_a_tie_goes_to_the_first_most_probable_class(self, probs, first):
        labeled = classify_abstract(["A tie.", "No tie."],
                                    {"A tie.": probs, "No tie.": (0.1, 0.2, 0.7)}.__getitem__)
        assert [s.label for s in labeled.sentences] == [first, Label3.OBSERVATION]
        assert labeled.sentences[0].confidence.hex() == float(probs[first]).hex()


PROBABILITIES = st.sampled_from([0.0, -0.0, 5e-324, 0.25, 1 / 3, 0.5, 1.0])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(PROBABILITIES, PROBABILITIES, PROBABILITIES),
                         min_size=1, max_size=8), min_size=1, max_size=10))
def test_label_cohort_matches_a_sentence_by_sentence_reference(cohort):
    texts = [[f"a{i} s{j}." for j in range(len(rows))] for i, rows in enumerate(cohort)]
    labeled = label_cohort(texts, {text: probs for sentences, rows in zip(texts, cohort)
                                   for text, probs in zip(sentences, rows)})
    for abstract, rows, counts, in_order in zip(labeled.abstracts, cohort, labeled.counts,
                                                labeled.in_order):
        best = [max(range(3), key=probs.__getitem__) for probs in rows]
        assert [s.label for s in abstract.sentences] == [Label3(k) for k in best]
        assert [s.confidence.hex() for s in abstract.sentences] == [
            float(probs[k]).hex() for probs, k in zip(rows, best)]
        assert counts.tolist() == [best.count(k) for k in range(3)]
        assert in_order == all(a <= b for a, b in zip(best, best[1:]))


class TestDistribution:
    def test_worked_example_shares(self):
        dist = distribution(labeled_abstract(EXAMPLE1_LABELS))
        assert dist.counts == (4, 1, 1)
        assert dist.shares == pytest.approx((4 / 6, 1 / 6, 1 / 6))
        assert dist.n_classes_present == 3

    def test_single_class(self):
        dist = distribution(labeled_abstract([Label3.BACKGROUND] * 4))
        assert dist.shares == (1.0, 0.0, 0.0)
        assert dist.n_classes_present == 1

    def test_uniform(self):
        dist = distribution(labeled_abstract(list(Label3)))
        assert dist.shares == pytest.approx((1 / 3, 1 / 3, 1 / 3))

    def test_shares_sum_to_one(self):
        dist = distribution(labeled_abstract(EXAMPLE2_LABELS))
        assert sum(dist.shares) == pytest.approx(1.0, abs=1e-9)

    def test_duplication_leaves_shares_unchanged(self):
        once = distribution(labeled_abstract(EXAMPLE1_LABELS))
        twice = distribution(labeled_abstract(EXAMPLE1_LABELS * 2))
        assert twice.shares == pytest.approx(once.shares)
        assert twice.counts == tuple(2 * c for c in once.counts)


class TestCorpusStats:
    def test_hand_counted_pool(self):
        a = labeled_abstract([Label3.BACKGROUND, Label3.BACKGROUND])
        b = labeled_abstract([Label3.TECHNIQUE, Label3.OBSERVATION])
        stats = corpus_stats([a, b])
        assert stats.pooled_shares == pytest.approx((0.5, 0.25, 0.25))
        assert stats.two_or_fewer_classes_fraction == 1.0

    def test_full_coverage_abstract(self):
        stats = corpus_stats(
            [labeled_abstract([Label3.BACKGROUND, Label3.TECHNIQUE, Label3.OBSERVATION])]
        )
        assert stats.two_or_fewer_classes_fraction == 0.0

    def test_reference_row_constant(self):
        stats = corpus_stats([labeled_abstract(EXAMPLE1_LABELS)])
        assert stats.reference_percent["pubmed_rct"] == (19.8, 33.0, 47.3)
        assert PUBMED_RCT_LABEL_PERCENT == (19.8, 33.0, 47.3)

    def test_pooled_equals_weighted_mean_of_shares(self):
        import numpy as np

        rng = np.random.default_rng(2)
        abstracts = []
        for _ in range(25):
            n = int(rng.integers(1, 12))
            labels = [Label3(int(k)) for k in rng.integers(0, 3, n)]
            abstracts.append(labeled_abstract(labels))
        stats = corpus_stats(abstracts)
        weighted = np.zeros(3)
        total = 0
        for a in abstracts:
            d = distribution(a)
            weighted += np.array(d.shares) * d.n_sentences
            total += d.n_sentences
        assert stats.pooled_shares == pytest.approx(tuple(weighted / total))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats([])


class TestSerialization:
    def test_labeled_abstract_json(self):
        labeled = labeled_abstract(EXAMPLE1_LABELS)
        data = labeled.to_json_list()
        assert len(data) == 6
        assert data[0] == {"text": "s0.", "label": "BACKGROUND", "confidence": 1.0}

    def test_corpus_stats_json(self):
        stats = corpus_stats([labeled_abstract(EXAMPLE1_LABELS)])
        data = stats.to_json_dict()
        assert data["pooled_counts"] == [4, 1, 1]
        assert data["reference_percent"]["reported_student_data"] == [49.9, 11.5, 38.6]
