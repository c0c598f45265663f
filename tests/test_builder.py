from dataclasses import replace
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from eastgen import (
    AnnotatedSentence,
    BuilderConfig,
    Dataset,
    EntityLexicon,
    GenerationConfig,
    SentenceTemplate,
    build,
    build_dataset,
    determine_main_entities,
    entity_occurrence,
    generate_batch,
    parse_conll,
    serialize,
    validate,
)
from eastgen.east import (
    ENTITY,
    EXCHANGEABLE,
    FIXED,
    ORDER,
    PICKONE,
    iter_nodes,
)
from eastgen.errors import TreeValidationError
from helpers import enumerate_language, random_tree, small_lexicon


def sentence(intent, *pairs):
    tokens = tuple(t for t, _ in pairs)
    tags = tuple(s for _, s in pairs)
    return AnnotatedSentence(tokens, tags, intent)


def exchangeable_nodes(tree):
    return [n for _, n in iter_nodes(tree) if n.kind == EXCHANGEABLE]


def spine_of(tree):
    """The spine of a built tree: the entity slots of its first alignment
    (the root order, or the root pick-one's first child) in order, and the
    positions p of the spine pairs (p, p + 1) that exchangeable nodes hold."""
    alignment = tree.root if tree.root.kind == ORDER else tree.root.children[0]
    slots, swaps = [], set()
    for child in alignment.children:
        if child.kind == EXCHANGEABLE:
            swaps.add(len(slots))
            slots.extend(c.slot for c in child.children)
        elif child.kind == ENTITY:
            slots.append(child.slot)
    return tuple(slots), swaps


class TestEntityOccurrence:
    def test_airline_fractions_exact(self, airline_templates):
        occ = entity_occurrence(airline_templates)
        assert occ == {
            "flight_days": Fraction(2, 3),
            "city_name": Fraction(1),
            "month_name": Fraction(2, 3),
            "day_number": Fraction(2, 3),
        }

    def test_single_template_single_entity(self):
        template = SentenceTemplate(("A",), ("", ""))
        assert entity_occurrence([template]) == {"A": Fraction(1)}

    def test_source_count_weighs_occurrence(self):
        # duplicate template (count 2) plus one different: 3 sentences total
        doubled = SentenceTemplate(("A",), ("", ""), source_count=2)
        other = SentenceTemplate(("B",), ("hi", ""))
        occ = entity_occurrence([doubled, other])
        assert occ == {"A": Fraction(2, 3), "B": Fraction(1, 3)}

    def test_repeated_label_counts_once_per_template(self):
        template = SentenceTemplate(("A", "A"), ("", "", ""))
        assert entity_occurrence([template]) == {"A": Fraction(1)}


class TestDetermineMainEntities:
    def test_airline_all_above_half(self, airline_templates):
        occ = entity_occurrence(airline_templates)
        assert determine_main_entities(occ, 0.5) == [
            "city_name",
            "day_number",
            "flight_days",
            "month_name",
        ]

    def test_high_threshold_keeps_only_certain(self, airline_templates):
        occ = entity_occurrence(airline_templates)
        assert determine_main_entities(occ, 0.9) == ["city_name"]

    def test_fallback_to_most_frequent(self):
        occ = {"a": Fraction(3, 10), "b": Fraction(4, 10)}
        assert determine_main_entities(occ, 0.5) == ["b"]

    def test_fallback_tie_is_lexicographic(self):
        occ = {"b": Fraction(2, 10), "a": Fraction(2, 10)}
        assert determine_main_entities(occ, 0.5) == ["a"]

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            determine_main_entities({"a": Fraction(1)}, 1.0)


class TestSkeleton:
    """The spine `build` picks: the modal main-entity arrangement."""

    def test_airline_spine_is_modal_arrangement(self, airline_dataset):
        tree = build(airline_dataset)["airline"]
        # the date pair is planned as a transposition site, spine order kept
        assert spine_of(tree) == (
            ("flight_days", "city_name", "city_name", "month_name", "day_number"),
            {3},
        )

    def test_single_label_spine(self):
        tree = build(build_dataset([sentence("x", ("hi", "O"), ("oslo", "B-A"))]))["x"]
        assert spine_of(tree) == (("A",), set())

    def test_identical_spines_agree(self):
        corpus = [
            sentence("x", ("a", "B-A"), ("x", "O"), ("b", "B-B")),
            sentence("x", ("a", "B-A"), ("y", "O"), ("b", "B-B")),
        ]
        tree = build(build_dataset(corpus))["x"]
        assert spine_of(tree) == (("A", "B"), set())

    def test_mode_weighs_source_count(self):
        minority = sentence("x", ("a", "B-A"), ("b", "B-B"))
        majority = sentence("x", ("b", "B-B"), ("a", "B-A"))
        tree = build(build_dataset([minority] + [majority] * 3))["x"]
        assert spine_of(tree) == (("B", "A"), {0})

    def test_tie_goes_to_first_seen_arrangement(self):
        first = sentence("x", ("b", "B-B"), ("a", "B-A"))
        second = sentence("x", ("a", "B-A"), ("b", "B-B"))
        tree = build(build_dataset([first, second]))["x"]
        assert spine_of(tree) == (("B", "A"), {0})


class TestGrow:
    """How `build` merges templates into the spine or into root branches."""

    def test_opening_region_merges_phrasings(self, airline_corpus):
        dataset = build_dataset(parse_conll(airline_corpus)[:2])
        tree = build(dataset)["airline"]
        opening = tree.root.children[0]
        assert opening.kind == FIXED
        assert opening.dictionary == {"which airlines have": 1, "are there any": 1}

    def test_mismatching_template_becomes_branch(self, airline_dataset):
        tree = build(airline_dataset)["airline"]
        assert tree.root.kind == PICKONE
        spine, branch = tree.root.children
        assert [c.slot for c in branch.children if c.kind == ENTITY] == [
            "city_name",
            "city_name",
        ]
        assert spine.weight == pytest.approx(2 / 3)


class TestFinalizeWeights:
    def test_region_dropout_counts_absent_sentences(self):
        corpus = [
            sentence("x", ("book", "O"), ("oslo", "B-A"), ("now", "O")),
            sentence("x", ("book", "O"), ("oslo", "B-A"), ("now", "O")),
            sentence("x", ("book", "O"), ("oslo", "B-A")),
        ]
        tree = build(build_dataset(corpus))["x"]
        trailing = tree.root.children[-1]
        assert trailing.kind == FIXED
        assert trailing.dictionary == {"now": 2}
        assert trailing.dropout == pytest.approx(1 / 3)

    def test_root_alternatives_weighted_and_normalized(self, airline_dataset):
        tree = build(airline_dataset)["airline"]
        assert tree.root.kind == PICKONE
        assert [c.weight for c in tree.root.children] == pytest.approx([2 / 3, 1 / 3])

    def test_single_branch_weight_one_no_dropout(self):
        corpus = [sentence("x", ("hello", "O"))]
        tree = build(build_dataset(corpus))["x"]
        assert tree.root.kind == "order"
        node = tree.root.children[0]
        assert node.weight == 1.0 and node.dropout is None


class TestDetectExchangeable:
    """Entity pairs realized next to each other in both orders become
    exchangeable nodes as build lowers the tree, planned swap or not."""

    def test_non_main_date_pair_wrapped_in_each_region_shape(self, airline_dataset):
        # with one main entity the dates sit inside the region after the last
        # city, one region shape per order, where no planned swap reaches
        tree = build(airline_dataset, BuilderConfig(singleton_main=True))["airline"]
        assert [[c.slot for c in n.children] for n in exchangeable_nodes(tree)] == [
            ["month_name", "day_number"], ["day_number", "month_name"]
        ]
        language = enumerate_language(tree, include_dropout_variants=True)
        for template in airline_dataset.by_intent["airline"]:
            assert template in language

    def test_spine_pair_seen_reversed_only_in_a_branch_wrapped(self):
        corpus = [
            sentence("p", ("go", "O"), ("a", "B-A"), ("b", "B-B")),
            sentence("p", ("fly", "O"), ("a", "B-A"), ("b", "B-B")),
            sentence("p", ("b", "B-B"), ("a", "B-A"), ("a", "B-A")),
        ]
        dataset = build_dataset(corpus)
        tree = build(dataset)["p"]
        assert tree.root.kind == PICKONE
        spine, branch = tree.root.children
        # B A A has no swap decomposition onto the spine A B, so no swap is
        # planned; the branch alone shows B right before A
        assert [c.kind for c in spine.children] == [FIXED, EXCHANGEABLE]
        assert [c.kind for c in branch.children] == [EXCHANGEABLE, ENTITY]
        language = enumerate_language(tree, include_dropout_variants=True)
        for template in dataset.by_intent["p"]:
            assert template in language

    def test_no_reversal_leaves_tree_unchanged(self):
        corpus = [
            sentence("x", ("a", "B-A"), ("b", "B-B")),
            sentence("x", ("a", "B-A"), ("b", "B-B"), ("c", "O")),
        ]
        dataset = build_dataset(corpus)
        tree = build(dataset)["x"]
        assert exchangeable_nodes(tree) == []

    def test_three_way_reordering_only_wraps_adjacent_swap(self):
        corpus = [
            sentence("p", ("go", "O"), ("a", "B-A"), ("b", "B-B"), ("c", "B-C")),
            sentence("p", ("go", "O"), ("a", "B-A"), ("c", "B-C"), ("b", "B-B")),
            sentence("p", ("go", "O"), ("c", "B-C"), ("a", "B-A"), ("b", "B-B")),
        ]
        dataset = build_dataset(corpus)
        tree = build(dataset)["p"]
        assert tree.root.kind == PICKONE
        spine, branch = tree.root.children
        # spine keeps A then an exchangeable (B, C); the rotation stays a branch
        spine_exchange = [n for n in spine.children if n.kind == EXCHANGEABLE]
        assert len(spine_exchange) == 1
        assert {c.slot for c in spine_exchange[0].children} == {"B", "C"}
        language = enumerate_language(tree, include_dropout_variants=True)
        for template in dataset.by_intent["p"]:
            assert template in language


class TestBuild:
    @pytest.mark.parametrize("template, message", [
        (SentenceTemplate(("a b",), ("go", "")),
         "root.children[1]: malformed slot label 'a b'"),
        (SentenceTemplate(("a",), ("go  now", "")), "root.children[0]: malformed phrase 'go  now'"),
    ], ids=["label", "phrase"])
    def test_malformed_template_built_in_code_is_named_by_node(self, template, message):
        """A template built in code is checked on the tree it builds."""
        dataset = Dataset([], {"i": [template]}, EntityLexicon())
        with pytest.raises(TreeValidationError) as err:
            build(dataset)
        assert str(err.value) == message

    def test_airline_end_to_end(self, airline_dataset):
        trees = build(airline_dataset, BuilderConfig(main_entity_threshold=0.5))
        tree = trees["airline"]
        assert validate(tree) == []
        (node,) = exchangeable_nodes(tree)
        assert {c.slot for c in node.children} == {"month_name", "day_number"}
        language = enumerate_language(tree, include_dropout_variants=True)
        for template in airline_dataset.by_intent["airline"]:
            assert template in language

    def test_single_sentence_generates_exactly_itself(self):
        corpus = [sentence("x", ("fly", "O"), ("to", "O"), ("oslo", "B-city"))]
        dataset = build_dataset(corpus)
        tree = build(dataset)["x"]
        language = enumerate_language(tree, include_dropout_variants=True)
        assert len(language) == 1
        assert dataset.by_intent["x"][0] in language

    def test_duplicate_corpus_same_structure_all_weights_one(self):
        once = build(build_dataset([sentence("x", ("hi", "O"), ("oslo", "B-city"))]))["x"]
        twice = build(
            build_dataset(
                [
                    sentence("x", ("hi", "O"), ("oslo", "B-city")),
                    sentence("x", ("hi", "O"), ("oslo", "B-city")),
                ]
            )
        )["x"]
        assert [n.kind for _, n in iter_nodes(once)] == [
            n.kind for _, n in iter_nodes(twice)
        ]
        assert all(n.weight == 1.0 for _, n in iter_nodes(twice))
        assert enumerate_language(once).templates == enumerate_language(twice).templates

    def test_intent_without_entities(self):
        corpus = [
            sentence("chat", ("hello", "O"), ("there", "O")),
            sentence("chat", ("good", "O"), ("morning", "O")),
        ]
        tree = build(build_dataset(corpus))["chat"]
        assert validate(tree) == []
        (node,) = tree.root.children
        assert node.kind == FIXED
        assert node.dictionary == {"hello there": 1, "good morning": 1}

    def test_non_main_entity_kept_inside_region(self):
        # B occurs in 1 of 4 sentences: below threshold, so it stays inside
        # the region after the main entity
        corpus = [
            sentence("x", ("go", "O"), ("oslo", "B-A"), ("quickly", "O")),
            sentence("x", ("go", "O"), ("paris", "B-A"), ("quickly", "O")),
            sentence("x", ("go", "O"), ("rome", "B-A"), ("quickly", "O")),
            sentence("x", ("go", "O"), ("bonn", "B-A"), ("at", "O"), ("9", "B-B")),
        ]
        dataset = build_dataset(corpus)
        tree = build(dataset)["x"]
        assert validate(tree) == []
        region = tree.root.children[-1]
        assert region.kind == PICKONE
        assert [c.weight for c in region.children] == pytest.approx([3 / 4, 1 / 4])
        language = enumerate_language(tree, include_dropout_variants=True)
        for template in dataset.by_intent["x"]:
            assert template in language

    def test_region_shapes_differ_by_their_empty_gaps(self):
        # B occurs in 2 of 4 sentences, so it stays inside the region after
        # A; "<B> now" and "then <B>" hold the same labels but leave
        # different gaps empty, so each becomes its own order
        corpus = [
            sentence("x", ("go", "O"), ("oslo", "B-A")),
            sentence("x", ("go", "O"), ("rome", "B-A")),
            sentence("x", ("go", "O"), ("paris", "B-A"), ("9", "B-B"), ("now", "O")),
            sentence("x", ("go", "O"), ("bonn", "B-A"), ("then", "O"), ("10", "B-B")),
        ]
        dataset = build_dataset(corpus)
        tree = build(dataset)["x"]
        region = tree.root.children[-1]
        assert region.kind == PICKONE
        assert region.dropout == pytest.approx(1 / 2)
        assert [[c.kind for c in child.children] for child in region.children] == [
            [ENTITY, FIXED],
            [FIXED, ENTITY],
        ]
        language = enumerate_language(tree, include_dropout_variants=True)
        for template in dataset.by_intent["x"]:
            assert template in language

    def test_singleton_main_flag(self, airline_dataset):
        trees = build(airline_dataset, BuilderConfig(singleton_main=True))
        tree = trees["airline"]
        assert validate(tree) == []
        # every template matches the city-city spine, so the root is the
        # spine itself and the other labels live inside region alternatives
        assert tree.root.kind == "order"
        slots = [n.slot for n in tree.root.children if n.kind == "entity"]
        assert slots == ["city_name", "city_name"]
        language = enumerate_language(tree, include_dropout_variants=True)
        for template in airline_dataset.by_intent["airline"]:
            assert template in language

    def test_zero_template_intent_skipped(self, airline_dataset):
        airline_dataset.by_intent["ghost"] = []
        trees = build(airline_dataset)
        assert "ghost" not in trees

    def test_build_is_deterministic(self, airline_dataset):
        assert build(airline_dataset) == build(airline_dataset)


def _reserve(party: bool, time: bool):
    tail = [("for", "O"), ("4", "B-party")] if party else []
    at = [("at", "O"), ("8pm", "B-time")] if time else []
    return sentence("reserve", ("book", "O"), ("nopa", "B-restaurant"), *at, *tail)


def _travel(airline: bool, date: bool):
    on = [("on", "O"), ("friday", "B-date")] if date else []
    tail = [("with", "O"), ("klm", "B-airline")] if airline else []
    return sentence("travel", ("fly", "O"), *on, ("to", "O"), ("oslo", "B-city"), *tail)


# slot shares lie at least 0.2 from the default threshold of 0.5
AWAY_FROM_THRESHOLD = (
    [_reserve(party=True, time=True)] * 2
    + [_reserve(party=False, time=True)] * 6
    + [_reserve(party=False, time=False)] * 2
    + [_travel(airline=True, date=True)]
    + [_travel(airline=False, date=True)] * 8
    + [_travel(airline=False, date=False)]
)

# intent -> (slot shares, main entities, spine)
AWAY_EXPECTED = {
    "reserve": (
        {"restaurant": Fraction(1), "time": Fraction(4, 5), "party": Fraction(1, 5)},
        ["restaurant", "time"],
        ("restaurant", "time"),
    ),
    # main entities rank by share; the spine keeps the sentences' order
    "travel": (
        {"city": Fraction(1), "date": Fraction(9, 10), "airline": Fraction(1, 10)},
        ["city", "date"],
        ("date", "city"),
    ),
}


class TestMainEntitiesAwayFromThreshold:
    """Which slots become main, and the spine they form, on corpora whose
    slot shares lie well away from the threshold: any threshold inside the
    gap gives the same tree skeleton, so sampling noise cannot flip it."""

    @pytest.mark.parametrize("threshold", [0.35, 0.5, 0.65])
    def test_main_entities_and_spine_are_pinned(self, threshold):
        dataset = build_dataset(AWAY_FROM_THRESHOLD)
        trees = build(dataset, BuilderConfig(main_entity_threshold=threshold))
        for intent, (shares, main, spine) in AWAY_EXPECTED.items():
            templates = dataset.by_intent[intent]
            occ = entity_occurrence(templates)
            assert occ == shares
            assert min(abs(share - threshold) for share in occ.values()) > 0.1
            assert determine_main_entities(occ, threshold) == main
            # the spine is the built tree's first alignment
            root = trees[intent].root
            assert root.kind == PICKONE  # the sentences without a main entity branch off
            alignment = root.children[0]
            assert alignment.kind == ORDER
            assert tuple(c.slot for c in alignment.children if c.kind == ENTITY) == spine


class TestSwapPlanning:
    """Corner cases where transposition merging must not lose templates."""

    def run(self, corpus):
        dataset = build_dataset(corpus)
        tree = build(dataset)[corpus[0].intent]
        assert validate(tree) == []
        language = enumerate_language(tree, include_dropout_variants=True)
        for template in dataset.by_intent[corpus[0].intent]:
            assert template in language
        return tree, language

    def test_planned_swap_wrapped_over_reversible_left_neighbor(self):
        # spine B A B with the swap (A, B) planned; B-A is also seen both
        # ways, but wrapping it instead would lose the template B B A
        tree, _ = self.run(
            [
                sentence("x", ("p", "B-B"), ("p", "B-A"), ("p", "B-B"),
                         ("go", "O"), ("go", "O")),
                sentence("x", ("go", "O")),
                sentence("x", ("p", "B-B"), ("p", "B-B"), ("p", "B-A")),
            ]
        )
        (node,) = exchangeable_nodes(tree)
        assert [c.slot for c in node.children] == ["A", "B"]

    def test_forward_middle_content_blocks_wrapping(self):
        # (A x B) and (B A): no template realizes A-B adjacently, so the
        # reversal stays a branch and nothing is wrapped
        tree, _ = self.run(
            [
                sentence("x", ("a", "B-A"), ("mid", "O"), ("b", "B-B")),
                sentence("x", ("b", "B-B"), ("a", "B-A")),
            ]
        )
        assert exchangeable_nodes(tree) == []

    def test_middle_content_outlier_branches_off(self):
        # clean A-B and B-A wrap; the sentence with interior content cannot
        # live between exchangeable leaves and becomes a branch
        tree, language = self.run(
            [
                sentence("x", ("a", "B-A"), ("b", "B-B")),
                sentence("x", ("b", "B-B"), ("a", "B-A")),
                sentence("x", ("a", "B-A"), ("mid", "O"), ("b", "B-B")),
            ]
        )
        assert len(exchangeable_nodes(tree)) == 1
        assert tree.root.kind == PICKONE

    def test_overlapping_swap_candidates_keep_leftmost(self):
        # BAC needs pair (0,1), ACB needs (1,2); the pairs overlap so only
        # one merges and the other template survives as a branch
        tree, language = self.run(
            [
                sentence("x", ("a", "B-A"), ("b", "B-B"), ("c", "B-C")),
                sentence("x", ("b", "B-B"), ("a", "B-A"), ("c", "B-C")),
                sentence("x", ("a", "B-A"), ("c", "B-C"), ("b", "B-B")),
            ]
        )
        assert len(language) == 3

    def test_two_disjoint_swaps_merge(self):
        tree, language = self.run(
            [
                sentence("x", ("a", "B-A"), ("b", "B-B"), ("c", "B-C"), ("d", "B-D")),
                sentence("x", ("b", "B-B"), ("a", "B-A"), ("d", "B-D"), ("c", "B-C")),
            ]
        )
        assert len(exchangeable_nodes(tree)) == 2
        assert tree.root.kind == "order"
        assert len(language) == 4

    def test_same_label_pair_never_wraps(self):
        tree, _ = self.run(
            [
                sentence("x", ("p", "B-A"), ("q", "B-A")),
                sentence("x", ("q", "B-A"), ("p", "B-A")),
            ]
        )
        assert exchangeable_nodes(tree) == []


# --- properties ---------------------------------------------------------------

_TOKENS = ("go", "to", "the", "red", "fox", "now")
_FORMS = ("p", "q")


@st.composite
def small_corpora(draw, min_sentences=1, max_sentences=5):
    n = draw(st.integers(min_sentences, max_sentences))
    sentences = []
    for _ in range(n):
        m = draw(st.integers(1, 5))
        tokens, tags = [], []
        for _ in range(m):
            choice = draw(st.sampled_from(("lit", "lit", "A", "B")))
            if choice == "lit":
                tokens.append(draw(st.sampled_from(_TOKENS)))
                tags.append("O")
            else:
                tokens.append(draw(st.sampled_from(_FORMS)))
                tags.append(f"B-{choice}")
        sentences.append(AnnotatedSentence(tuple(tokens), tuple(tags), "intent"))
    return sentences


@settings(max_examples=60, deadline=None)
@given(small_corpora())
def test_every_training_template_is_reconstructible(corpus):
    dataset = build_dataset(corpus)
    tree = build(dataset)["intent"]
    assert validate(tree) == []
    language = enumerate_language(tree, include_dropout_variants=True, limit=300_000)
    for template in dataset.by_intent["intent"]:
        assert template in language


@settings(max_examples=40, deadline=None)
@given(small_corpora(max_sentences=4), small_corpora(max_sentences=3))
def test_training_templates_survive_corpus_growth(corpus, extension):
    base = build_dataset(corpus)
    grown_tree = build(build_dataset(corpus + extension))["intent"]
    language = enumerate_language(
        grown_tree, include_dropout_variants=True, limit=300_000
    )
    for template in base.by_intent["intent"]:
        assert template in language


@settings(max_examples=40, deadline=None)
@given(small_corpora())
def test_built_trees_validate_and_conserve_weight(corpus):
    tree = build(build_dataset(corpus))["intent"]
    assert validate(tree) == []
    for _, node in iter_nodes(tree):
        if node.kind == PICKONE:
            assert sum(c.weight for c in node.children) == pytest.approx(1.0, abs=1e-9)
        if node.dropout is not None:
            assert 0 <= node.dropout < 1


# Metamorphic properties of the construction: changes to a corpus that must
# leave every built tree as it is. Each corpus is sampled from two or three
# random trees, one intent each, which share the slots city and color, and
# is built at one of three thresholds.


@st.composite
def tree_corpora(draw):
    """(a corpus sampled from random trees without its empty sentences, a
    BuilderConfig)."""
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=2, max_size=3, unique=True))
    trees = {
        f"r{i}": random_tree(seed, max_depth=4, intent=f"r{i}") for i, seed in enumerate(seeds)
    }
    config = GenerationConfig(seed=draw(st.integers(0, 2**32)),
                              count=draw(st.integers(5, 30)), use_embeddings=False)
    corpus = [s for s in generate_batch(trees, None, config, lexicon=small_lexicon()) if s.tokens]
    threshold = draw(st.sampled_from((0.35, 0.5, 0.65)))
    return corpus, BuilderConfig(main_entity_threshold=threshold)


def gcd_scaled(node):
    """`node` with each fixed node's counts divided by their gcd."""
    if node.dictionary is not None:
        divisor = reduce(gcd, node.dictionary.values())
        return replace(node, dictionary={p: n // divisor for p, n in node.dictionary.items()})
    return replace(node, children=tuple(map(gcd_scaled, node.children)))


def built(corpus, config, scale=False) -> dict[str, str]:
    """Each intent's serialized tree built from `corpus` (none when it is
    empty), with every fixed node's counts divided by their gcd if `scale`."""
    trees = build(build_dataset(corpus), config) if corpus else {}
    return {
        intent: serialize(replace(tree, root=gcd_scaled(tree.root)) if scale else tree)
        for intent, tree in trees.items()
    }


@settings(max_examples=100, deadline=None)
@given(tree_corpora())
def test_an_intent_builds_alone_as_inside_its_corpus(case):
    corpus, config = case
    for intent, tree in built(corpus, config).items():
        assert built([s for s in corpus if s.intent == intent], config) == {intent: tree}


@settings(max_examples=100, deadline=None)
@given(tree_corpora(), st.randoms(use_true_random=False))
def test_interleaving_the_intents_changes_no_tree(case, rng):
    """The corpus is reordered across intents; each intent keeps its own order."""
    corpus, config = case
    turns = [s.intent for s in corpus]
    rng.shuffle(turns)
    queues = {intent: iter([s for s in corpus if s.intent == intent]) for intent in turns}
    interleaved = [next(queues[intent]) for intent in turns]
    assert built(interleaved, config) == built(corpus, config)


@settings(max_examples=100, deadline=None)
@given(tree_corpora(), st.sampled_from((2, 3, 7)))
def test_repeating_every_sentence_k_times_scales_only_the_phrase_counts(case, k):
    """Weights and dropouts are shares, so they stay; a fixed node's counts
    are raw corpus counts, stored as they are, so the trees agree once each
    fixed node's counts are divided by their gcd."""
    corpus, config = case
    repeated = [s for s in corpus for _ in range(k)]
    assert built(repeated, config, scale=True) == built(corpus, config, scale=True)
