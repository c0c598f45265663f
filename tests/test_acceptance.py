"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the report lines.
Tolerances are pinned in the asserts; timing limits are wall-clock on a
commodity desktop.
"""

import hashlib
import io
import json
import random
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from eastgen import (
    AnnotatedSentence,
    GenerationConfig,
    abstract_entities,
    build,
    build_dataset,
    deserialize,
    export_regex,
    generate_batch,
    generate_one,
    k_nearest,
    load_embeddings,
    parse_conll,
    serialize,
    validate,
)
from eastgen.builder import determine_main_entities, entity_occurrence
from eastgen.cli import main
from eastgen.corpus import iob_violations
from eastgen.east import EXCHANGEABLE, iter_nodes
from eastgen.generator import emit

from conftest import AIRLINE_CONLL, WEATHER_CONLL
from helpers import (
    brute_force_knn,
    bundle_language,
    enumerate_language,
    expand_templates,
    ground_truth_world,
    path_distribution,
    random_tree,
    random_tree_with_budget,
    small_lexicon,
    total_variation,
)


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


# 1 -----------------------------------------------------------------------


def test_weather_sentence_reproduction():
    parse_conll(WEATHER_CONLL)  # warm-up outside the timed window
    start = time.perf_counter()
    (sentence,) = parse_conll(WEATHER_CONLL)
    template, pairs = abstract_entities(sentence)
    elapsed = time.perf_counter() - start

    ok = (
        sentence.slots == ("O", "O", "O", "O", "B-LOC", "B-DATE")
        and sentence.intent == "Ask weather"
        and template.render() == "How's the weather in <LOC> <DATE>"
        and pairs == [("LOC", "Beijing"), ("DATE", "today")]
        and elapsed < 0.001
    )
    report("weather sentence parse + abstraction", ok, f"{elapsed * 1e6:.0f}us")


# 2 -----------------------------------------------------------------------


def test_airline_templates_and_occurrence_fractions():
    dataset = build_dataset(parse_conll(AIRLINE_CONLL))
    templates = dataset.by_intent["airline"]
    rendered = [t.render() for t in templates]
    expected_templates = [
        "which airlines have <flight_days> flights from <city_name> "
        "to <city_name> on <month_name> <day_number>",
        "are there any <flight_days> airplanes from <city_name> "
        "to <city_name> on <day_number> <month_name>",
        "show me the airlines that fly from <city_name> to <city_name> please",
    ]
    occ = entity_occurrence(templates)
    expected_occ = {
        "flight_days": Fraction(2, 3),
        "city_name": Fraction(1),
        "month_name": Fraction(2, 3),
        "day_number": Fraction(2, 3),
    }
    ok = rendered == expected_templates and occ == expected_occ
    report("airline corpus abstraction and occurrence fractions", ok)


# 3 -----------------------------------------------------------------------


def test_airline_end_to_end_build():
    dataset = build_dataset(parse_conll(AIRLINE_CONLL))
    start = time.perf_counter()
    tree = build(dataset)["airline"]
    violations = validate(tree)
    language = enumerate_language(tree, include_dropout_variants=True)
    elapsed = time.perf_counter() - start

    exchange = [n for _, n in iter_nodes(tree) if n.kind == EXCHANGEABLE]
    date_pair = any(
        {c.slot for c in node.children} == {"month_name", "day_number"}
        for node in exchange
    )
    contained = all(t in language for t in dataset.by_intent["airline"])
    ok = violations == [] and date_pair and contained and elapsed < 0.1
    report(
        "airline end-to-end build",
        ok,
        f"{elapsed * 1e3:.1f}ms, |language|={len(language)}",
    )


# 4 -----------------------------------------------------------------------


def test_reconstruction_completeness_at_scale():
    trees, lexicon = ground_truth_world()
    config = GenerationConfig(seed=424242, count=100, use_embeddings=False)
    sentences = generate_batch(trees, None, config, lexicon=lexicon)
    assert len(sentences) == 500

    corpus = [AnnotatedSentence(s.tokens, s.slots, s.intent) for s in sentences]
    dataset = build_dataset(corpus)
    rebuilt = build(dataset)

    missing = 0
    checked = 0
    for intent, templates in dataset.by_intent.items():
        language = enumerate_language(
            rebuilt[intent], include_dropout_variants=True, limit=2_000_000
        )
        for template in templates:
            checked += 1
            if template not in language:
                missing += 1
    ok = missing == 0 and len(dataset.by_intent) == 5
    report(
        "reconstruction completeness on 500-sentence corpus",
        ok,
        f"{checked} templates, {missing} missing",
    )


# 5 -----------------------------------------------------------------------


def test_distributional_correctness():
    lexicon = small_lexicon()
    config = GenerationConfig(seed=7, use_embeddings=False)
    draws = 30_000
    start = time.perf_counter()
    worst = 0.0
    for i in range(10):
        tree = random_tree_with_budget(1000 + i, 10)
        exact = path_distribution(tree, apply_dropout=True)
        assert sum(exact.values()) == pytest.approx(1.0, abs=1e-9)
        rng = random.Random(i)
        counts: Counter = Counter()
        for _ in range(draws):
            counts[generate_one(tree, lexicon, None, config, rng).provenance] += 1
        observed = {path: n / draws for path, n in counts.items()}
        worst = max(worst, total_variation(exact, observed))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed < 5.0
    report(
        "path distribution vs exact weight products",
        ok,
        f"max TV {worst:.4f}, {elapsed:.2f}s",
    )


# 6 -----------------------------------------------------------------------


def test_knn_matches_brute_force(vector_fixture):
    text, vectors = vector_fixture
    table = load_embeddings(text)
    rng = np.random.RandomState(99)
    queries = [f"tok{i:04d}" for i in rng.choice(1000, size=100, replace=False)]
    mismatches = 0
    for query in queries:
        got = [t for t, _ in k_nearest(table, query, 5)]
        expected = [t for t, _ in brute_force_knn(vectors, query, 5)]
        if got != expected:
            mismatches += 1
    report(
        "nearest neighbors match exhaustive scan",
        mismatches == 0,
        f"100 queries, {mismatches} mismatches",
    )


# 7 -----------------------------------------------------------------------


def test_regex_equals_enumeration():
    lexicon = small_lexicon()
    forms = {slot: lexicon.forms(slot) for slot in ("city", "color")}
    bad = 0
    for i in range(10):
        tree = random_tree_with_budget(2000 + i, 100)
        bundle = export_regex(tree, lexicon)
        templates = enumerate_language(tree, include_dropout_variants=True)
        expected = {
            " ".join(tokens)
            for tokens in expand_templates(templates.templates, forms)
        }
        if bundle_language(bundle) != expected:
            bad += 1
    report("regex language equals enumerated language", bad == 0, f"{bad} trees differ")


# 8 -----------------------------------------------------------------------


def test_serialization_round_trip_on_random_trees():
    failures = 0
    for seed in range(100):
        tree = random_tree(seed)
        assert validate(tree) == []
        if deserialize(serialize(tree)) != tree:
            failures += 1
    report("serialization round trip on 100 trees", failures == 0)


# 9 -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def atis_scale_build(tmp_path_factory):
    """Synthetic corpus at the reference training size (4,478 sentences)."""
    base = tmp_path_factory.mktemp("scale")
    trees, lexicon = ground_truth_world()
    per_intent = {
        "find_flight": 900,
        "weather": 900,
        "greet": 878,
        "play_music": 900,
        "hotel": 900,
    }
    sentences = []
    for intent, count in per_intent.items():
        config = GenerationConfig(seed=31337, count=count, use_embeddings=False)
        sentences.extend(
            generate_batch({intent: trees[intent]}, None, config, lexicon=lexicon)
        )
    assert len(sentences) == 4478

    corpus_path = base / "train.conll"
    sink = io.StringIO()
    emit(sentences, sink, "conll")
    corpus_path.write_text(sink.getvalue(), encoding="utf-8")

    trees_dir = base / "trees"
    assert main(["build", str(corpus_path), "--out", str(trees_dir)]) == 0
    return base, corpus_path, trees_dir


def test_scale_generation_under_ten_seconds(atis_scale_build):
    base, corpus_path, trees_dir = atis_scale_build
    out = base / "augmented.conll"
    start = time.perf_counter()
    code = main([
        "generate",
        "--trees", str(trees_dir),
        "--corpus", str(corpus_path),
        "--no-embeddings",
        "--factor", "10",
        "--seed", "8",
        "--out", str(out),
    ])
    elapsed = time.perf_counter() - start

    sentences = parse_conll(out.read_text(encoding="utf-8"))
    iob_clean = all(not iob_violations(s.slots) for s in sentences)
    ok = code == 0 and len(sentences) == 44_780 and iob_clean and elapsed < 10.0
    report(
        "factor-10 generation at reference training size",
        ok,
        f"{len(sentences)} sentences in {elapsed:.2f}s",
    )


# 10 ----------------------------------------------------------------------


def test_identical_manifests_identical_bytes(tmp_path):
    corpus = tmp_path / "train.conll"
    corpus.write_text(AIRLINE_CONLL, encoding="utf-8")

    def run(tag: str) -> tuple[bytes, bytes, dict]:
        trees_dir = tmp_path / f"trees_{tag}"
        assert main(["build", str(corpus), "--out", str(trees_dir)]) == 0
        out = tmp_path / f"aug_{tag}.conll"
        assert main([
            "generate",
            "--trees", str(trees_dir),
            "--corpus", str(corpus),
            "--no-embeddings",
            "--factor", "10",
            "--seed", "12345",
            "--out", str(out),
        ]) == 0
        manifest = json.loads(
            (tmp_path / f"aug_{tag}.conll.manifest.json").read_text()
        )
        tree_bytes = (trees_dir / "airline.east.json").read_bytes()
        return out.read_bytes(), tree_bytes, manifest

    out1, tree1, manifest1 = run("a")
    out2, tree2, manifest2 = run("b")
    checksums_equal = (
        manifest1["outputs"]["aug_a.conll"] == manifest2["outputs"]["aug_b.conll"]
    )
    digest1 = hashlib.sha256(out1).hexdigest()
    digest2 = hashlib.sha256(out2).hexdigest()
    ok = out1 == out2 and tree1 == tree2 and checksums_equal and digest1 == digest2
    report("re-runs are byte identical", ok, f"sha256 {digest1[:12]}")
