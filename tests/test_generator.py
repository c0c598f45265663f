import errno
import io
import json
import os
import pickle
import random
import time
from collections import Counter
from dataclasses import FrozenInstanceError
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from eastgen import (
    AnnotatedSentence,
    East,
    EntityLexicon,
    GenerationConfig,
    GenerationStats,
    abstract_entities,
    build,
    build_dataset,
    emit,
    entity,
    exchangeable,
    export_regex,
    fixed,
    generate_batch,
    generate_one,
    load_embeddings,
    order,
    parse_conll,
    parse_lexicon,
    parse_records,
    pick_one,
)
from eastgen import generator
from eastgen.east import MAX_DEPTH, iter_nodes, validate
from eastgen.embeddings import k_nearest_block
from eastgen.generator import OUTPUT_FORMATS, Batch
from eastgen.errors import (
    EastgenError, MissingLexiconError, MissingTrainingSizeError, TreeValidationError,
)

from helpers import (
    brute_force_knn,
    enumerate_language,
    ground_truth_world,
    path_distribution,
    random_tree,
    random_tree_with_budget,
    small_lexicon,
    total_variation,
)


def cfg(**kwargs) -> GenerationConfig:
    kwargs.setdefault("seed", 99)
    kwargs.setdefault("use_embeddings", False)
    return GenerationConfig(**kwargs)


class TestGenerateOne:
    def test_deterministic_single_phrase(self):
        tree = East("x", order(fixed({"hi": 1})))
        s, provenance = generate_one(tree, EntityLexicon(), None, cfg(), random.Random(1))
        assert s == AnnotatedSentence(("hi",), ("O",), "x")
        assert provenance == ("phrase:0",)

    def test_entity_fill_and_tagging(self):
        tree = East("x", order(fixed({"fly to": 1}), entity("city_name")))
        lexicon = EntityLexicon()
        lexicon.add("city_name", "Beijing")
        s, _ = generate_one(tree, lexicon, None, cfg(), random.Random(1))
        assert s.tokens == ("fly", "to", "Beijing")
        assert s.slots == ("O", "O", "B-city_name")

    def test_multi_token_form_gets_inside_tags(self):
        tree = East("x", order(entity("city")))
        lexicon = EntityLexicon()
        lexicon.add("city", "san francisco")
        s, _ = generate_one(tree, lexicon, None, cfg(), random.Random(1))
        assert s.tokens == ("san", "francisco")
        assert s.slots == ("B-city", "I-city")

    def test_missing_lexicon_entry_names_slot(self):
        tree = East("x", order(entity("city")))
        with pytest.raises(MissingLexiconError) as err:
            generate_one(tree, EntityLexicon(), None, cfg(), random.Random(1))
        assert err.value.slot == "city"

    def test_dropout_can_remove_optional_region(self):
        tree = East("x", order(fixed({"a": 1}), fixed({"b": 1}, dropout=0.5)))
        rng = random.Random(5)
        lengths = {
            len(generate_one(tree, EntityLexicon(), None, cfg(), rng)[0].tokens)
            for _ in range(50)
        }
        assert lengths == {1, 2}

    def test_no_dropout_flag_keeps_everything(self):
        tree = East("x", order(fixed({"a": 1}), fixed({"b": 1}, dropout=0.9)))
        rng = random.Random(5)
        for _ in range(30):
            s, _ = generate_one(tree, EntityLexicon(), None, cfg(apply_dropout=False), rng)
            assert s.tokens == ("a", "b")

    def test_entity_never_dropped(self):
        tree = East("x", order(fixed({"a": 1}, dropout=0.9), entity("city")))
        lexicon = EntityLexicon()
        lexicon.add("city", "oslo")
        rng = random.Random(5)
        for _ in range(30):
            assert "oslo" in generate_one(tree, lexicon, None, cfg(), rng)[0].tokens


class TestGenerationConfig:
    @pytest.mark.parametrize("name, value", [
        ("k", 0), ("k", 2.5), ("k", True), ("k", "5"), ("factor", 0), ("factor", 2.5),
        ("factor", True), ("factor", None), ("count", 0), ("count", 1.5), ("count", True),
    ])
    def test_a_size_that_is_not_an_int_of_at_least_1_is_rejected(self, name, value):
        """count=1.5 ended in TypeError from range, and True or 2.5 passed."""
        with pytest.raises(ValueError, match=f"^{name} must be an int >= 1, got {value!r}$"):
            cfg(**{name: value})


class TestEmbeddingSubstitution:
    @pytest.fixture
    def table(self, vector_fixture):
        text, _ = vector_fixture
        return load_embeddings(text)

    def test_fill_stays_in_candidate_pool(self, table, vector_fixture):
        _, vectors = vector_fixture
        tree = East("x", order(entity("city")))
        lexicon = EntityLexicon()
        lexicon.add("city", "tok0010")
        pool = {"tok0010"} | {t for t, _ in brute_force_knn(vectors, "tok0010", 5)}
        config = cfg(use_embeddings=True, k=5)
        rng = random.Random(3)
        seen = set()
        for _ in range(1000):
            s, _ = generate_one(tree, lexicon, table, config, rng)
            assert len(s.tokens) == 1
            assert s.slots == ("B-city",)
            seen.add(s.tokens[0])
        assert seen <= pool
        assert len(seen) > 1  # neighbors actually get sampled

    def test_oov_candidate_bypasses_knn(self, table):
        tree = East("x", order(entity("city")))
        lexicon = EntityLexicon()
        lexicon.add("city", "zzz-not-in-table")
        dataset = None
        out = generate_batch(
            {"x": tree}, dataset, cfg(use_embeddings=True, count=20), table,
            lexicon=lexicon,
        )
        assert all(s.tokens == ("zzz-not-in-table",) for s in out)
        assert out.stats.oov_bypasses == 20

    def test_multi_token_candidate_bypasses_knn(self, table):
        tree = East("x", order(entity("city")))
        lexicon = EntityLexicon()
        lexicon.add("city", "san francisco")
        out = generate_batch(
            {"x": tree}, None, cfg(use_embeddings=True, count=10), table,
            lexicon=lexicon,
        )
        assert all(s.tokens == ("san", "francisco") for s in out)
        assert out.stats.multi_token_bypasses == 10

    def test_neighbors_restricted_to_lexicon(self, table):
        tree = East("x", order(entity("city")))
        lexicon = EntityLexicon()
        for form in ("tok0001", "tok0002", "tok0003"):
            lexicon.add("city", form)
        config = cfg(use_embeddings=True, neighbors_within_lexicon=True)
        rng = random.Random(4)
        for _ in range(200):
            s, _ = generate_one(tree, lexicon, table, config, rng)
            assert s.tokens[0] in {"tok0001", "tok0002", "tok0003"}


    @pytest.mark.parametrize("within", [False, True])
    @pytest.mark.parametrize("count", [50, 1])
    @pytest.mark.parametrize("forms, message", [
        ({"tok0001": 1, 5: 1}, "lexicon: 'city' form 5: not single-space-joined tokens"),
        (5, "lexicon: 'city': expected an object of {form: count}"),
    ])
    def test_malformed_entry_built_in_code_fails_before_sampling(
            self, table, monkeypatch, forms, message, count, within):
        """With a table, every slot's form table is loaded before any pool is
        built, whether the batch then builds its pools (50 draws) or leaves
        them to its draws (1), so such an entry raises the error a lexicon
        file would before any intent is sampled. With lexicon neighbors it
        ended in a TypeError from reading the raw entry for the pools."""
        def sampled(*args):
            raise AssertionError("sampled before the lexicon was checked")

        monkeypatch.setattr(generator, "_compile", sampled)
        tree = East("x", order(entity("city")))
        config = cfg(use_embeddings=True, count=count, neighbors_within_lexicon=within)
        with pytest.raises(EastgenError) as err:
            generate_batch({"x": tree}, None, config, table,
                           lexicon=EntityLexicon({"city": forms}))
        assert str(err.value) == message

    @pytest.mark.parametrize("doc", [
        {}, {"city": {}}, {"city": 5}, {"city": []}, {"city": None}, {"city": {"tok0001": 0}},
        {"city": {"tok0001": True}}, {"city": {"tok0001 ": 1}},
        {"city": {"tok0001": 1, "tok0002  tok0003": 2}},
    ], ids=["absent", "empty", "int", "list", "null", "zero count", "bool count",
            "trailing space", "double space"])
    def test_every_reader_of_an_entry_raises_what_a_lexicon_file_does(self, table, doc):
        """generate_batch with and without a table, generate_one and
        export_regex read a slot's entry only through EntityLexicon.entry: an
        absent or empty entry raises MissingLexiconError naming the slot, and
        a malformed one the error parse_lexicon raises for it in a file."""
        try:
            parse_lexicon(json.dumps(doc))
            expected = MissingLexiconError("city")  # the file is valid but lacks the slot
        except EastgenError as exc:
            expected = exc
        tree = East("x", order(fixed({"to": 1}), entity("city")))
        batches = [cfg(count=5)] + [
            cfg(use_embeddings=True, count=count, neighbors_within_lexicon=within)
            for count in (5, 1) for within in (False, True)
        ]
        readers = [
            *(partial(generate_batch, {"x": tree}, None, config, table) for config in batches),
            lambda lexicon: generate_one(
                tree, lexicon, table, cfg(use_embeddings=True), random.Random(1)),
            partial(export_regex, tree),
        ]
        for read in readers:
            with pytest.raises(EastgenError) as err:
                read(lexicon=EntityLexicon(dict(doc)))
            assert (type(err.value), str(err.value)) == (type(expected), str(expected)), read
        if isinstance(expected, MissingLexiconError):
            assert err.value.slot == "city"

    @pytest.mark.parametrize("within", [False, True])
    def test_query_block_size_changes_nothing(self, table, monkeypatch, within):
        """A batch with at least as many draws as pools builds them all in one
        k_nearest_block call, one per slot for lexicon neighbors; a smaller
        one builds them lazily, a block at a time. Either way, and for any
        block size, the batch and its stats are those of lazy blocks."""
        tree = East("x", order(entity("city"), fixed({"to": 1}), entity("town")))
        lexicon = EntityLexicon()
        for i in range(0, 400, 9):
            lexicon.add("city", f"tok{i:04d}")
        for i in range(0, 400, 13):  # 4 forms are cities too
            lexicon.add("town", f"tok{i:04d}")
        lexicon.add("city", "zzz-not-in-table")
        lexicon.add("city", "tok0001 tok0002")
        pools = 45 + 31 if within else 45 + 31 - 4
        calls = []

        def counting(table, queries, k, among=None):
            calls.append(len(queries))
            return k_nearest_block(table, queries, k, among)

        monkeypatch.setattr(generator, "k_nearest_block", counting)
        prebuild = generator._Fills.prebuild_pools
        for count in (pools, 1):
            config = cfg(use_embeddings=True, count=count, k=4, neighbors_within_lexicon=within)
            runs = []
            for lazy, size in [(True, 1), (True, 16), (False, 1), (False, 16), (False, 1000)]:
                monkeypatch.setattr(generator, "QUERY_BLOCK", size)
                monkeypatch.setattr(generator._Fills, "prebuild_pools",
                                    (lambda *args: None) if lazy else prebuild)
                calls.clear()
                out = generate_batch({"x": tree}, None, config, table, lexicon=lexicon)
                runs.append((out, out.stats.to_dict()))
                if count == 1 or lazy:
                    assert calls and max(calls) <= size and sum(calls) <= pools
                else:
                    assert calls == ([45, 31] if within else [pools])
            assert all(run == runs[0] for run in runs)
            assert runs[0][1]["knn_fills"] > 0


class TestDistribution:
    def test_pickone_frequencies_match_weights(self):
        tree = East(
            "x",
            pick_one(
                fixed({"a": 1}, weight=2 / 3),
                fixed({"b": 1}, weight=1 / 3),
            ),
        )
        rng = random.Random(1234)
        counts = Counter()
        for _ in range(30_000):
            counts[generate_one(tree, EntityLexicon(), None, cfg(), rng)[0].tokens] += 1
        assert counts[("a",)] / 30_000 == pytest.approx(2 / 3, abs=0.02)
        assert counts[("b",)] / 30_000 == pytest.approx(1 / 3, abs=0.02)

    def test_exchangeable_permutations_uniform(self):
        tree = East(
            "x",
            order(exchangeable(fixed({"a": 1}), fixed({"b": 1}), fixed({"c": 1}))),
        )
        rng = random.Random(77)
        counts = Counter()
        n = 30_000
        for _ in range(n):
            counts[generate_one(tree, EntityLexicon(), None, cfg(), rng)[0].tokens] += 1
        assert len(counts) == 6
        for freq in counts.values():
            assert freq / n == pytest.approx(1 / 6, abs=0.02)

    def test_dictionary_proportions(self):
        tree = East("x", order(fixed({"a": 3, "b": 1})))
        rng = random.Random(999)
        counts = Counter()
        for _ in range(20_000):
            counts[generate_one(tree, EntityLexicon(), None, cfg(), rng)[0].tokens] += 1
        assert counts[("a",)] / 20_000 == pytest.approx(0.75, abs=0.02)

    def test_weighted_lexicon_follows_counts(self):
        tree = East("x", order(entity("city")))
        lexicon = EntityLexicon()
        lexicon.add("city", "oslo", 3)
        lexicon.add("city", "rome", 1)
        n = 20_000
        for weighted, expected in ((True, 0.75), (False, 0.5)):
            rng = random.Random(5)
            config = cfg(weighted_lexicon=weighted)
            oslo = sum(
                generate_one(tree, lexicon, None, config, rng)[0].tokens == ("oslo",)
                for _ in range(n)
            )
            assert oslo / n == pytest.approx(expected, abs=0.02)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_path_distribution_matches_exact_products(self, seed):
        tree = random_tree_with_budget(seed, 10)
        lexicon = small_lexicon()
        exact = path_distribution(tree, apply_dropout=True)
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-9)
        rng = random.Random(seed + 1)
        config = cfg()
        empirical: Counter = Counter()
        n = 30_000
        for _ in range(n):
            empirical[generate_one(tree, lexicon, None, config, rng)[1]] += 1
        observed = {path: count / n for path, count in empirical.items()}
        assert set(observed) <= set(exact)
        assert total_variation(exact, observed) < 0.02


class TestBatch:
    @pytest.fixture
    def tiny_dataset(self):
        text = (
            "# intent: greet\nhello\tO\n\n"
            "# intent: greet\nhi\tO\n\n"
            "# intent: go\nfly\tO\nto\tO\noslo\tB-city\n\n"
        )
        return build_dataset(parse_conll(text))

    def test_factor_multiplies_training_counts(self, tiny_dataset):
        trees = build(tiny_dataset)
        out = generate_batch(trees, tiny_dataset, cfg(factor=10))
        by_intent = Counter(s.intent for s in out)
        assert by_intent == {"greet": 20, "go": 10}

    def test_count_overrides_factor(self, tiny_dataset):
        trees = build(tiny_dataset)
        out = generate_batch(trees, tiny_dataset, cfg(factor=10, count=7))
        assert Counter(s.intent for s in out) == {"greet": 7, "go": 7}

    def test_output_sorted_by_intent(self, tiny_dataset):
        trees = build(tiny_dataset)
        out = generate_batch(trees, tiny_dataset, cfg())
        intents = [s.intent for s in out]
        assert intents == sorted(intents)

    def test_same_seed_identical_output(self, tiny_dataset):
        trees = build(tiny_dataset)
        first = generate_batch(trees, tiny_dataset, cfg(seed=5))
        second = generate_batch(trees, tiny_dataset, cfg(seed=5))
        assert first == second
        third = generate_batch(trees, tiny_dataset, cfg(seed=6))
        assert first != third

    def test_single_path_tree_repeats_itself(self):
        corpus = [AnnotatedSentence(("hello",), ("O",), "greet")]
        dataset = build_dataset(corpus)
        trees = build(dataset)
        out = generate_batch(trees, dataset, cfg(factor=1))
        assert [s.tokens for s in out] == [("hello",)]
        out = generate_batch(trees, dataset, cfg(count=5))
        assert all(s.tokens == ("hello",) for s in out)

    def test_stats_sidecar(self, tiny_dataset):
        trees = build(tiny_dataset)
        out = generate_batch(trees, tiny_dataset, cfg(factor=2))
        assert out.stats.total == len(out) == 6
        assert out.stats.sentences_per_intent == {"greet": 4, "go": 2}
        assert 0.0 <= out.stats.duplicate_rate < 1.0

    def test_a_stats_object_describes_one_batch(self):
        """Counted into one object, two batches once gave total 2000 against
        the second batch's 353 distinct sentences (rate 0.8235), where the two
        hold 501 (0.7495); each batch now counts its own draws alone."""
        trees, lexicon = ground_truth_world()
        batches = [generate_batch(trees, None, cfg(count=200, seed=seed), lexicon=lexicon)
                   for seed in (1, 2)]
        for batch, distinct in zip(batches, (343, 353)):
            assert batch.stats.total == 1000
            assert batch.stats.distinct == len(set(batch)) == distinct
            assert batch.stats.duplicate_rate == 1 - distinct / 1000
        assert len(set(batches[0]) | set(batches[1])) == 501

    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    def test_the_stats_recount_the_drawn_list(self, force_split, split):
        children = force_split() if split else []
        trees, lexicon = ground_truth_world()
        batch = generate_batch(trees, None, cfg(count=300, seed=4), lexicon=lexicon)
        assert len(children) == (2 if split else 0)
        drawn = list(batch)
        assert batch.stats == GenerationStats(
            sentences_per_intent=dict(Counter(s.intent for s in drawn)),
            knn_fills=0, oov_bypasses=0, multi_token_bypasses=0,
            total=len(drawn), distinct=len(set(drawn)),
        )
        with pytest.raises(FrozenInstanceError):
            batch.stats.total = 0

    def test_the_per_intent_counts_cannot_be_changed(self, tiny_dataset):
        """A plain dict once took the 99 and to_dict() reported it against a
        total of 10."""
        out = generate_batch(build(tiny_dataset), tiny_dataset, cfg(count=5))
        with pytest.raises(TypeError):
            out.stats.sentences_per_intent["greet"] = 99
        assert out.stats.to_dict()["sentences_per_intent"] == {"go": 5, "greet": 5}

    def test_missing_training_size_is_an_error(self, tiny_dataset):
        trees = build(tiny_dataset)
        extra = East("orphan", order(fixed({"hi": 1})))
        with pytest.raises(ValueError):
            generate_batch({**trees, "orphan": extra}, tiny_dataset, cfg(factor=1))

    def test_a_missing_training_size_raises_before_sampling(self, tiny_dataset,
                                                             monkeypatch):
        """The intent without a size sorts after "go" and "greet", which were
        once sampled before the missing size raised."""
        sampled = []
        sample_intent = generator._sample_intent

        def counting(intent, *args):
            sampled.append(intent)
            return sample_intent(intent, *args)

        monkeypatch.setattr(generator, "_sample_intent", counting)
        trees = build(tiny_dataset)
        extra = East("orphan", order(fixed({"hi": 1})))
        with pytest.raises(MissingTrainingSizeError):
            generate_batch({**trees, "orphan": extra}, tiny_dataset, cfg(factor=1))
        assert sampled == []

    def test_an_invalid_tree_raises_before_sampling(self, monkeypatch):
        """The phrase 'a  b' was sampled and written as the lines 'a\tO',
        '\tO' and 'b\tO', which parse_conll rejects."""
        sampled = []
        monkeypatch.setattr(generator, "_sample_intent", lambda *args: sampled.append(args))
        trees = {"ok": East("ok", order(fixed({"hi": 1}))),
                 "x": East("x", order(fixed({"a  b": 1})))}
        config = GenerationConfig(seed=1, count=2, use_embeddings=False)
        with pytest.raises(TreeValidationError) as err:
            generate_batch(trees, None, config, lexicon=EntityLexicon())
        assert err.value.violations == ["intent 'x': root.children[0]: malformed phrase 'a  b'"]
        assert sampled == []


class TestBatchRecord:
    """`generate_batch` returns a frozen record of each intent's distinct
    sentences and one index per draw, which iterates as the drawn list."""

    @pytest.fixture
    def batch(self):
        trees, lexicon = ground_truth_world()
        return generate_batch(trees, None, cfg(count=30, seed=2), lexicon=lexicon)

    def test_iterates_as_its_list(self, batch):
        drawn = list(batch)
        assert len(batch) == len(drawn) == 150
        assert drawn[7] in batch
        extended = ["first"]
        extended.extend(batch)
        assert extended == ["first"] + drawn

    def test_compares_by_its_draws(self, batch):
        trees, lexicon = ground_truth_world()
        assert batch == generate_batch(trees, None, cfg(count=30, seed=2), lexicon=lexicon)
        assert batch != generate_batch(trees, None, cfg(count=30, seed=3), lexicon=lexicon)

    def test_cannot_be_changed(self, batch):
        with pytest.raises(TypeError):
            batch[0] = None
        with pytest.raises(AttributeError):
            batch.append(None)
        with pytest.raises(FrozenInstanceError):
            batch.stats = None
        with pytest.raises(FrozenInstanceError):
            batch.parts = ()
        with pytest.raises(TypeError):
            hash(batch)

    def test_its_repr_leaves_out_the_draws(self, batch):
        assert len(repr(batch)) < 500

    def test_equal_draws_share_one_object(self, batch):
        assert len({id(s) for s in batch}) == len(set(batch)) < len(batch)

    def test_an_empty_batch(self):
        batch = generate_batch({}, None, cfg(count=3), lexicon=EntityLexicon())
        assert len(batch) == batch.stats.total == 0 and not batch
        assert list(batch) == []
        assert emitted(batch, "conll") == []


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedBatch:
    """`generate_batch` split over forked children, forced by `force_split`,
    against the serial batch; no test may leave a child behind."""

    def batch(self, **config) -> tuple[Batch, dict]:
        trees, lexicon = ground_truth_world()
        out = generate_batch(trees, None, cfg(**config), lexicon=lexicon)
        return out, out.stats.to_dict()

    def test_forked_batch_equals_serial(self, force_split):
        serial = self.batch(count=400, seed=3)
        children = force_split()
        assert self.batch(count=400, seed=3) == serial
        assert len(children) == 2
        assert_no_child_left()

    def test_first_failing_intent_raises_as_serially(self, force_split):
        # sizes 1, 3 and 5 put "c" in this process's share and "a" in a
        # child's; both lack their slot, and the sorted-first "a" must win
        corpus = [
            AnnotatedSentence(("hi",), ("O",), intent)
            for intent, size in (("a", 1), ("b", 3), ("c", 5)) for _ in range(size)
        ]
        dataset = build_dataset(corpus)
        trees = {
            "a": East("a", order(fixed({"to": 1}), entity("gap_a"))),
            "b": East("b", order(fixed({"hi": 1}))),
            "c": East("c", order(fixed({"to": 1}), entity("gap_c"))),
        }

        def failure():
            with pytest.raises(MissingLexiconError) as raised:
                generate_batch(trees, dataset, cfg(factor=1), lexicon=EntityLexicon())
            return str(raised.value)

        serial = failure()
        assert "gap_a" in serial
        children = force_split()
        assert failure() == serial
        assert len(children) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("fault", ["exit", "short data", "no fork"])
    def test_a_failed_child_share_is_sampled_here(self, force_split, monkeypatch, fault):
        serial = self.batch(count=300)
        children = force_split()
        parent = os.getpid()
        if fault == "no fork":
            def refused():
                raise BlockingIOError("fork: resource temporarily unavailable")

            monkeypatch.setattr(os, "fork", refused)
        elif fault == "exit":
            sample_intent = generator._sample_intent

            def dying(*args):
                if os.getpid() != parent:
                    os._exit(1)
                return sample_intent(*args)

            monkeypatch.setattr(generator, "_sample_intent", dying)
        else:
            dumps = pickle.dumps

            def truncated(*args):
                data = dumps(*args)
                return data[:len(data) // 2] if os.getpid() != parent else data

            monkeypatch.setattr(pickle, "dumps", truncated)
        assert self.batch(count=300) == serial
        assert len(children) == (0 if fault == "no fork" else 2)
        assert_no_child_left()

    @pytest.mark.parametrize("call, error", [
        ("fork", BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")),
        ("pipe", OSError(errno.EMFILE, "Too many open files")),
    ], ids=["fork", "pipe"])
    def test_a_call_refused_after_a_child_started(self, force_split, monkeypatch,
                                                  call, error):
        serial = self.batch(count=300)
        children = force_split()
        real = getattr(os, call)  # for "fork", force_split's, which records each child
        calls = []

        def second_refused():
            calls.append(len(calls))
            if len(calls) == 2:
                raise error
            return real()

        monkeypatch.setattr(os, call, second_refused)
        assert self.batch(count=300) == serial
        assert len(calls) == 2
        assert len(children) == 1
        assert_no_child_left()

    def test_a_child_sending_other_results_is_not_trusted(self, force_split, monkeypatch):
        serial = self.batch(count=300)
        children = force_split()
        parent = os.getpid()
        dumps = pickle.dumps

        def misfiled(results, *args):
            if os.getpid() != parent:
                results = list(results)  # the share's intents, but not a dict
            return dumps(results, *args)

        monkeypatch.setattr(pickle, "dumps", misfiled)
        assert self.batch(count=300) == serial
        assert len(children) == 2
        assert_no_child_left()

    def test_children_are_killed_when_this_process_raises(self, force_split, monkeypatch):
        class Stop(BaseException):
            pass

        parent = os.getpid()

        def stuck(*args):
            if os.getpid() != parent:
                time.sleep(60)
            raise Stop

        children = force_split()
        monkeypatch.setattr(generator, "_sample_intent", stuck)
        start = time.monotonic()
        with pytest.raises(Stop):
            self.batch(count=300)
        assert time.monotonic() - start < 30
        assert len(children) == 2
        assert_no_child_left()


class TestOneSampler:
    """The recording path of `generate_one` and the plain path of
    `generate_batch` are one compiled sampler; its closures nest two frames
    per tree level, which the depth bound keeps far from the recursion limit."""

    @staticmethod
    def small_table(lexicon: EntityLexicon):
        rng = random.Random(8)
        tokens = sorted({f for forms in lexicon.entries.values() for f in forms
                         if " " not in f} | {f"extra{i}" for i in range(20)})
        return load_embeddings("".join(
            token + "".join(f" {rng.uniform(-1, 1):.4f}" for _ in range(8)) + "\n"
            for token in tokens))

    @pytest.mark.parametrize("with_table", [False, True], ids=["plain", "table"])
    @pytest.mark.parametrize("world", ["ground truth", "random tree"])
    def test_recording_draws_what_a_batch_draws(self, world, with_table):
        if world == "ground truth":
            trees, lexicon = ground_truth_world()
        else:
            # every node kind, seven dropouts and a two-token form
            trees, lexicon = {"random": random_tree(11)}, small_lexicon()
        table = self.small_table(lexicon) if with_table else None
        config = cfg(seed=21, count=150, use_embeddings=with_table, k=3)
        out = generate_batch(trees, None, config, table, lexicon=lexicon)
        assert (out.stats.knn_fills > 0) == with_table
        batch = list(out)
        for intent in sorted(trees):
            rng = random.Random(generator._intent_seed(config.seed, intent))
            recorded = [generate_one(trees[intent], lexicon, table, config, rng)[0]
                        for _ in range(config.count)]
            assert recorded == [s for s in batch if s.intent == intent]

    @staticmethod
    def deepest_tree(intent: str) -> East:
        """A tree nested MAX_DEPTH levels deep with dropout on every control
        node, whose deepest phrase is drawn in about a quarter of the draws."""
        node = fixed({"deepest": 1, "bottom": 1}, weight=0.99)
        for level in range(MAX_DEPTH - 1):
            kind = (order, pick_one, exchangeable)[level % 3]
            node = kind(node, fixed({f"w{level}": 1}, weight=0.01), weight=0.99,
                        dropout=0.01)
        return East(intent, order(node, entity("city"), dropout=0.01))

    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    def test_a_tree_at_the_depth_bound_samples(self, force_split, split):
        trees = {intent: self.deepest_tree(intent) for intent in "abc"}
        tree = trees["a"]
        assert validate(tree) == []
        assert max(path.count("[") for path, _ in iter_nodes(tree)) == MAX_DEPTH
        lexicon = small_lexicon()
        children = force_split() if split else []
        batch = generate_batch(trees, None, cfg(count=2000), lexicon=lexicon)
        assert len(children) == (2 if split else 0)
        assert sum("deepest" in s.tokens or "bottom" in s.tokens for s in batch) > 1000
        rng = random.Random(3)
        drawn = [generate_one(tree, lexicon, None, cfg(), rng) for _ in range(200)]
        assert any("deepest" in s.tokens for s, _ in drawn)
        assert_no_child_left()


class TestLanguageSoundness:
    @pytest.mark.parametrize("seed", [3, 8, 13])
    def test_generated_templates_live_in_enumerated_language(self, seed):
        tree = random_tree_with_budget(seed, 60)
        lexicon = small_lexicon()
        language = enumerate_language(tree, include_dropout_variants=True)
        rng = random.Random(seed)
        config = cfg(apply_dropout=True)
        for _ in range(300):
            s, _ = generate_one(tree, lexicon, None, config, rng)
            template, _ = abstract_entities(s)
            assert template in language

    def test_airline_generation_is_iob_sound(self, airline_dataset):
        trees = build(airline_dataset)
        out = generate_batch(trees, airline_dataset, cfg(factor=30))
        from eastgen.corpus import iob_violations

        for s in out:
            assert iob_violations(s.slots) == []
            assert len(s.tokens) == len(s.slots)


def emit_per_token(sentences, fmt: str) -> list[str]:
    """The reference emitter: every sentence formatted anew, token by token.
    Both emitters return lines with their ends, which join to the bytes
    written and which pytest compares quickly when they differ."""
    sink = io.StringIO()
    if fmt == "conll":
        for s in sentences:
            if s.intent is not None:
                sink.write(f"# intent: {s.intent}\n")
            for token, tag in zip(s.tokens, s.slots):
                sink.write(f"{token}\t{tag}\n")
            sink.write("\n")
    else:
        for s in sentences:
            record: dict = {"tokens": list(s.tokens), "slots": list(s.slots)}
            if s.intent is not None:
                record["intent"] = s.intent
            sink.write(json.dumps(record, ensure_ascii=False) + "\n")
    return sink.getvalue().splitlines(keepends=True)


def emitted(sentences, fmt: str) -> list[str]:
    sink = io.StringIO()
    emit(sentences, sink, fmt)
    return sink.getvalue().splitlines(keepends=True)


def unshared(s: AnnotatedSentence) -> AnnotatedSentence:
    """An equal sentence that shares no tuple with `s`."""
    return AnnotatedSentence(tuple(list(s.tokens)), tuple(list(s.slots)), s.intent)


_ODD_CHARACTERS = '"\\/\x00\x08\t\n\x1f\x7f\x85\u00e9\u2028\u2029\ufeff\ud800\udfff\U0001f6eb'
# any code point, lone surrogates included, with the odd ones drawn often
_ANY_TEXT = st.text(st.sampled_from(_ODD_CHARACTERS) | st.characters(exclude_categories=()),
                    max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4).flatmap(lambda n: st.lists(_ANY_TEXT, min_size=2 * n, max_size=2 * n)),
       st.none() | _ANY_TEXT)
def test_a_record_line_is_json_dumps(texts, intent):
    tokens, slots = texts[::2], texts[1::2]
    record: dict = {"tokens": tokens, "slots": slots}
    if intent is not None:
        record["intent"] = intent
    sentence = AnnotatedSentence(tuple(tokens), tuple(slots), intent)
    assert generator._render_record(sentence) == json.dumps(record, ensure_ascii=False) + "\n"


def test_a_record_with_a_field_that_is_not_a_string_raises():
    """json.dumps wrote a number; the record renderer accepts only str."""
    with pytest.raises(TypeError):
        generator._render_record(AnnotatedSentence(("a", 1), ("O", "O"), "x"))


class TestEmit:
    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    @pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
    @pytest.mark.parametrize("chunk", [7, generator.EMIT_CHUNK])
    def test_a_batch_is_written_as_its_list(self, force_split, monkeypatch, fmt, split,
                                            chunk):
        monkeypatch.setattr(generator, "EMIT_CHUNK", chunk)
        children = force_split() if split else []
        trees, lexicon = ground_truth_world()
        batch = generate_batch(trees, None, cfg(count=400, seed=3), lexicon=lexicon)
        assert len(children) == (2 if split else 0)
        assert emitted(batch, fmt) == emitted(list(batch), fmt) == emit_per_token(batch, fmt)

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    def test_a_batch_matches_the_per_token_emitter(self, airline_dataset, fmt):
        out = generate_batch(build(airline_dataset), airline_dataset, cfg(count=200))
        assert len({id(s) for s in out}) < len(out)  # equal sentences share objects
        assert emitted(out, fmt) == emit_per_token(out, fmt)

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    def test_equal_sentences_that_share_nothing(self, airline_dataset, fmt):
        out = generate_batch(build(airline_dataset), airline_dataset, cfg(count=200))
        copies = [unshared(s) for s in out]
        assert all(c == s and c is not s and c.tokens is not s.tokens
                   for c, s in zip(copies, out))
        mixed = [x for pair in zip(out, copies) for x in pair]
        assert emitted(mixed, fmt) == emit_per_token(mixed, fmt)

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    def test_sentences_without_intent_and_non_ascii_tokens(self, fmt):
        sentences = [
            AnnotatedSentence(("vol", "pour", "Zürich"), ("O", "O", "B-city")),
            AnnotatedSentence(("東京", "へ"), ("B-city", "O"), intent="旅行"),
            AnnotatedSentence(("vol", "pour", "Zürich"), ("O", "O", "B-city")),
            AnnotatedSentence(("vol", "pour", "Zürich"), ("O", "O", "B-city"), intent="a"),
            AnnotatedSentence(("🛫", "\u00e9"), ("B-x", "I-x"), "a"),
            AnnotatedSentence(("東京", "へ"), ("B-city", "O"), intent="旅行"),
        ]
        lines = emitted(sentences, fmt)
        assert lines == emit_per_token(sentences, fmt)
        parse = parse_conll if fmt == "conll" else parse_records
        assert [(s.tokens, s.slots, s.intent) for s in parse("".join(lines))] == [
            (s.tokens, s.slots, s.intent) for s in sentences
        ]

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    def test_a_one_shot_generator(self, fmt):
        """Each sentence is new and dropped once written, so a memo keyed on
        object identity would see a freed id reused by a different sentence."""
        def fresh():
            for i in range(2000):
                n = i * 7 % 13
                yield AnnotatedSentence((f"w{n}",) * (1 + n % 3), ("O",) * (1 + n % 3),
                                        f"i{n % 2}")

        assert emitted(fresh(), fmt) == emit_per_token(fresh(), fmt)

    @pytest.mark.parametrize("fmt", OUTPUT_FORMATS)
    def test_each_distinct_sentence_is_rendered_once(self, monkeypatch, fmt):
        rendered = Counter()
        render = generator._RENDERERS[fmt]

        def counting(s):
            rendered[s] += 1
            return render(s)

        monkeypatch.setitem(generator._RENDERERS, fmt, counting)
        a = AnnotatedSentence(("a",), ("O",), "x")
        b = AnnotatedSentence(("b",), ("O",), "x")
        emitted([a, b, unshared(a), a, unshared(b)] * 100, fmt)
        assert rendered == {a: 1, b: 1}

    def test_conll_round_trip(self, airline_dataset):
        trees = build(airline_dataset)
        out = generate_batch(trees, airline_dataset, cfg(factor=2))
        sink = io.StringIO()
        emit(out, sink, "conll")
        parsed = parse_conll(sink.getvalue())
        assert [(s.tokens, s.slots, s.intent) for s in parsed] == [
            (s.tokens, s.slots, s.intent) for s in out
        ]

    def test_records_round_trip(self, airline_dataset):
        trees = build(airline_dataset)
        out = generate_batch(trees, airline_dataset, cfg(factor=2))
        sink = io.StringIO()
        emit(out, sink, "records")
        parsed = parse_records(sink.getvalue())
        assert [(s.tokens, s.slots, s.intent) for s in parsed] == [
            (s.tokens, s.slots, s.intent) for s in out
        ]

    def test_conll_line_arithmetic(self, airline_dataset):
        trees = build(airline_dataset)
        out = generate_batch(trees, airline_dataset, cfg(factor=4))
        sink = io.StringIO()
        emit(out, sink, "conll")
        lines = sink.getvalue().split("\n")[:-1]  # drop trailing empty split
        tokens = sum(len(s.tokens) for s in out)
        headers = len(out)
        separators = len(out)
        assert len(lines) == tokens + headers + separators

    def test_a_sentence_with_no_tokens_is_a_header_and_a_blank_line(self):
        """parse_conll drops it, header and all; perfbench's induce corpus
        relies on this to drop the empty sentences its random trees draw."""
        sentences = [AnnotatedSentence(("a",), ("O",), "x"),
                     AnnotatedSentence((), (), "y"),
                     AnnotatedSentence(("b",), ("B-c",), "z")]
        text = "".join(emitted(sentences, "conll"))
        assert text == "# intent: x\na\tO\n\n# intent: y\n\n# intent: z\nb\tB-c\n\n"
        assert [(s.tokens, s.intent) for s in parse_conll(text)] == [
            (("a",), "x"), (("b",), "z")]

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit([], io.StringIO(), "xml")
