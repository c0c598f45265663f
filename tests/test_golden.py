"""Golden digests: fixed-seed `eastgen generate` output bytes, pinned.

The determinism promise is "same inputs and seed, same bytes" across
refactors of the sampler and across Python versions, not only between two
runs of one build. Each case writes its inputs from in-repo fixtures,
runs the CLI, and compares the sha256 of the corpus and of its
`.stats.json` sidecar with values recorded before the sampler was
rewritten. A mismatch means the random stream or the emitted bytes
changed; only a change that declares new output may update these values.

A second case pins `eastgen build` and `export-regex` on a corpus sampled
from the same trees, so refactors of the builder and the regex exporter
are held to the same promise.

The `no-embeddings` case and the build case run once more with the batch
split over forked processes, which their small counts never trigger on
their own: the bytes must not depend on how many processes sample them.
"""

import hashlib
import json

import pytest

from eastgen import (
    AnnotatedSentence,
    GenerationConfig,
    deserialize,
    emit,
    generate_batch,
    serialize,
)
from eastgen.cli import main
from eastgen.east import ENTITY, EXCHANGEABLE, ORDER, PICKONE

from helpers import ground_truth_world

COUNT = 300
SEED = 20221104

# (extra CLI arguments, corpus sha256, stats sha256)
GOLDEN = {
    "no-embeddings": (
        ["--no-embeddings"],
        "cf643308a38cd1f0c28934e0f12b49607e8c7b957c2ff7a3dd4812d8ef687587",
        "02f1a10d7a2e1bce8189b17b06ccb0067e4b48f79b161a27964c6cb545680470",
    ),
    "embeddings": (
        [],
        "3c768d7bff366ece42129531701fc3db220478e7165e04afeeb7dc9b9b29258a",
        "ab91cc4f39fe812a3f45f1497638aa45d2c412e487f31c85ac2fb1a2cb0c9ec1",
    ),
    "weighted-lexicon": (
        ["--weighted-lexicon"],
        "3ba4ed705938f897cc345db3a33ac15ce4bc790c4090eff8699b8ea4ca9c3405",
        "bfe99cc861f09ddd90e3fbf5240b22f0849bc1fb5cb7c99bcad6cd401be4e778",
    ),
    "records": (
        ["--format", "records"],
        "60ccd3728f2cb84d03ff429db0e3a18e41b6986ae28514a233892ecf071d6907",
        "ab91cc4f39fe812a3f45f1497638aa45d2c412e487f31c85ac2fb1a2cb0c9ec1",
    ),
    "neighbors-from-lexicon": (
        ["--neighbors-from-lexicon", "--weighted-lexicon"],
        "597c4f97cc8c8903ae32857f46afb7187f8e2b25408bfa67708d36ec470db7ed",
        "a1d9c3f40904069e3fc7bc10d3492de97401eb28cefe79b3fe79e6bc4853601d",
    ),
}


def _table_lexicon(vector_fixture) -> dict[str, dict[str, int]]:
    """The ground-truth lexicon with every token renamed to a table token.

    Counts vary (1-5) so that --weighted-lexicon draws differ from uniform
    ones; the two-token city keeps two tokens, so multi-token bypasses
    still occur.
    """
    text, vectors = vector_fixture
    vocabulary = list(vectors)
    _, lexicon = ground_truth_world()
    doc: dict[str, dict[str, int]] = {}
    i = 0
    for label in sorted(lexicon.entries):
        forms = doc.setdefault(label, {})
        for form in lexicon.entries[label]:
            renamed = []
            for _ in form.split(" "):
                renamed.append(vocabulary[(i * 97) % len(vocabulary)])
                i += 1
            forms[" ".join(renamed)] = 1 + (i * 7) % 5
    return doc


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, vector_fixture):
    root = tmp_path_factory.mktemp("golden")
    trees_dir = root / "trees"
    trees_dir.mkdir()
    trees, _ = ground_truth_world()
    lexicon = _table_lexicon(vector_fixture)
    for intent, tree in trees.items():
        (trees_dir / f"{intent}.east.json").write_text(serialize(tree), encoding="utf-8")
    lexicon_path = root / "lexicon.json"
    lexicon_path.write_text(json.dumps(lexicon, sort_keys=True), encoding="utf-8")
    table_path = root / "table.txt"
    table_path.write_text(vector_fixture[0], encoding="utf-8")
    return trees_dir, lexicon_path, table_path


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case, forked", [
    *(pytest.param(case, False, id=case) for case in sorted(GOLDEN)),
    # --count 300 draws 1,500 sentences, too few to fork unless forced
    pytest.param("no-embeddings", True, id="no-embeddings-forked"),
])
def test_generate_digest_is_pinned(case, forked, inputs, tmp_path, force_split):
    extra, corpus_digest, stats_digest = GOLDEN[case]
    children = force_split() if forked else []
    trees_dir, lexicon_path, table_path = inputs
    out = tmp_path / "out.txt"
    args = [
        "generate",
        "--trees", str(trees_dir),
        "--lexicon", str(lexicon_path),
        "--seed", str(SEED),
        "--count", str(COUNT),
        "--out", str(out),
    ]
    if "--no-embeddings" not in extra:  # the two options are mutually exclusive
        args += ["--embeddings", str(table_path)]
    assert main(args + extra) == 0
    stats = out.with_name(out.name + ".stats.json")
    assert (_sha256(out), _sha256(stats)) == (corpus_digest, stats_digest)
    assert len(children) == (2 if forked else 0)


def test_generate_digests_hold_on_a_cache_hit(inputs, tmp_path, monkeypatch):
    """Every embedding case, run twice in one cache directory: the second run
    reads the parsed table from the cache and must write the same bytes."""
    trees_dir, lexicon_path, table_path = inputs
    for case in sorted(c for c in GOLDEN if "--no-embeddings" not in GOLDEN[c][0]):
        extra, corpus_digest, stats_digest = GOLDEN[case]
        for run in ("first", "hit"):
            out = tmp_path / f"{case}-{run}.txt"
            with monkeypatch.context() as patch:
                if run == "hit":  # a parse would now fail the run
                    patch.setattr("eastgen.cli.load_embeddings", None)
                assert main([
                    "generate",
                    "--trees", str(trees_dir),
                    "--lexicon", str(lexicon_path),
                    "--embeddings", str(table_path),
                    "--seed", str(SEED),
                    "--count", str(COUNT),
                    "--out", str(out),
                ] + extra) == 0
        stats = out.with_name(out.name + ".stats.json")
        assert (_sha256(out), _sha256(stats)) == (corpus_digest, stats_digest)


BUILD_SEED = 5
BUILD_COUNT = 300  # per intent

# a fourth of intent x's sentences carry a B: B is not a main entity, so
# it is kept inside the region after A
NON_MAIN_CORPUS = [
    AnnotatedSentence(("go", city, "quickly"), ("O", "B-A", "O"), "x")
    for city in ("oslo", "paris", "rome")
] + [AnnotatedSentence(("go", "bonn", "at", "9"), ("O", "B-A", "O", "B-B"), "x")]

# output file (relative to the build or export directory) -> sha256
BUILD_GOLDEN = {
    "trees/find_flight.east.json":
        "8e7e0ecd5428095bc2d074890bcd0b85fdcdfbbb4b918223ca6b2cf620bbebf4",
    "trees/greet.east.json":
        "c3d8fbca287e7a1b43ed2818679b85e61dbb41939f71c815f9b6c8f015da76c0",
    "trees/hotel.east.json":
        "8dec6ace0f74b92e8eab4f8a569f75d64a76e18e3f5f43e76c2875251c1ea0ed",
    "trees/play_music.east.json":
        "22343bc3e5068548d8338c573a523811341e3b90bae8bb905ed03d3f2cfe899a",
    "trees/weather.east.json":
        "a3689a2a0ad6d33976d6404f177d1f41e6fa87b068bc072b89628f0d3c386e5e",
    "trees/x.east.json":
        "dc47255477f109b5f7d27dc7c45876a3330c171b537455a18897b38a39e37340",
    "trees/lexicon.json":
        "ac414a3fb131507784f90dd1aa949300e680f5647bafc38fc918244547d7a244",
    "regex/find_flight.regex.txt":
        "b5e6fbe41aad2527c0e37455549134c544059bc1efa0378097d6a0bbb87d4278",
    "regex/greet.regex.txt":
        "a049bbd1811022395cc94d20e8aadf760ae33bb1bd60d0e36799fc71f47fc99e",
    "regex/hotel.regex.txt":
        "a59bf6185e829f40a4f89d7388b1ebab1312ef4eb5016e1d8e2de8226e964779",
    "regex/play_music.regex.txt":
        "c65470d0b717be4f307edf35ccebe635586826d61e0e593ea4da5fef283e75b4",
    "regex/weather.regex.txt":
        "6e1a4f1213661f2af0d40ceee301d82a747b45274622dcc042f3bc4266daee4a",
    "regex/x.regex.txt":
        "009477a24b80cb753cd4240689bf4aa238232fdd6bea92517985d9e5ba4f7b73",
}


def _region_slots(node) -> set[str]:
    """Entity slots held by the regions of a tree built by `eastgen build`.

    The root is one alignment (an order) or a pick-one of alignments; an
    alignment's regions are its children that are neither entity leaves
    nor exchangeable pairs of them.
    """
    alignments = [node] if node.kind == ORDER else node.children
    slots: set[str] = set()
    stack = [
        c for a in alignments for c in a.children if c.kind not in (ENTITY, EXCHANGEABLE)
    ]
    while stack:
        n = stack.pop()
        if n.kind == ENTITY:
            slots.add(n.slot)
        stack.extend(n.children)
    return slots


def test_build_and_export_regex_digests_are_pinned(tmp_path):
    _check_build_and_export_regex_digests(tmp_path)


def test_build_and_export_regex_digests_hold_when_forked(tmp_path, force_split):
    """The same, with the sampled corpus drawn by three processes."""
    children = force_split()
    _check_build_and_export_regex_digests(tmp_path)
    assert len(children) == 2


def _check_build_and_export_regex_digests(tmp_path):
    trees, lexicon = ground_truth_world()
    config = GenerationConfig(seed=BUILD_SEED, count=BUILD_COUNT, use_embeddings=False)
    corpus = tmp_path / "corpus.conll"
    with open(corpus, "w", encoding="utf-8") as handle:
        emit(generate_batch(trees, None, config, lexicon=lexicon) + NON_MAIN_CORPUS,
             handle, "conll")
    built, exported = tmp_path / "trees", tmp_path / "regex"
    assert main(["build", str(corpus), "--out", str(built)]) == 0
    assert main([
        "export-regex",
        "--trees", str(built),
        "--lexicon", str(built / "lexicon.json"),
        "--out", str(exported),
    ]) == 0

    # the corpus exercises a planned spine swap, a root pick-one over two
    # arrangements and a region that holds a non-main entity
    induced = {
        p.name: deserialize(p.read_text(encoding="utf-8"))
        for p in built.glob("*.east.json")
    }
    weather = induced["weather.east.json"].root
    assert weather.kind == ORDER
    assert EXCHANGEABLE in [c.kind for c in weather.children]
    assert induced["hotel.east.json"].root.kind == PICKONE
    assert _region_slots(induced["x.east.json"].root) == {"B"}

    written = sorted(
        str(p.relative_to(tmp_path)) for p in tmp_path.glob("*/*")
        if p.name != "manifest.json"  # it names the temporary input paths
    )
    assert written == sorted(BUILD_GOLDEN)
    assert {name: _sha256(tmp_path / name) for name in written} == BUILD_GOLDEN
