"""Golden digests: fixed-seed `eastgen generate` output bytes, pinned.

The determinism promise is "same inputs and seed, same bytes" across
refactors of the sampler and across Python versions, not only between two
runs of one build. Each case writes its inputs from in-repo fixtures,
runs the CLI, and compares the sha256 of the corpus and of its
`.stats.json` sidecar with values recorded before the sampler was
rewritten. A mismatch means the random stream or the emitted bytes
changed; only a change that declares new output may update these values.
The `count-1` cases draw fewer sentences than there are kNN pools, so they
pin the pools built lazily as draws need them; the other embedding cases
build every pool before sampling.

A second case pins `eastgen build` and `export-regex` on a corpus sampled
from the same trees, so refactors of the builder and the regex exporter
are held to the same promise. Further cases pin the same commands on that
corpus with other builder options, `build` alone on a corpus sampled
from random trees, whose exchangeable and pick-one nodes draw entity
orders the hand-written trees do not, and both commands on a small
hand-written corpus whose spine needs a planned swap.

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

from helpers import ground_truth_world, random_tree, small_lexicon

COUNT = 300
SEED = 20221104

# (extra CLI arguments, corpus sha256, stats sha256); a case without --count
# draws COUNT per intent
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
    # one draw per intent, fewer draws than kNN pools: the pools are built
    # lazily, QUERY_BLOCK forms at a time, as in perfbench's gen-embed set-up
    "embeddings-count-1": (
        ["--count", "1"],
        "30ad488d95c6689a640cd4439f2ffb3ccd6d91568bba060503e5d2b5ffe498e4",
        "8b16a05a9f3dad4360b15e468fccb6a030cef20d0b780d5b2b4b38cd3bfd0c7a",
    ),
    "neighbors-from-lexicon-count-1": (
        ["--count", "1", "--neighbors-from-lexicon"],
        "a06c2899cc948fc4010f9582fe01833028a9bf1bd44fc337dcc5b245a45ca91e",
        "55e14d0554bb585d84c4e12e179aea48c982f046c54e2003ed45e561b5904b12",
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
        "--out", str(out),
    ]
    if "--count" not in extra:
        args += ["--count", str(COUNT)]
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
                    "--out", str(out),
                ] + ([] if "--count" in extra else ["--count", str(COUNT)]) + extra) == 0
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


# extra `build` arguments -> sha256 over every build and export-regex output
# of the same corpus (see _outputs_digest)
# of the same corpus (see _outputs_digest). Its slot shares are 1, 0.51
# (hotel's month) and 0.25 (x's B): 0.2 makes B main, 0.65 drops month, and
# 0.35 would write the default's bytes
BUILD_OPTION_GOLDEN = {
    "threshold-0.2": (
        ["--threshold", "0.2"],
        "f68f48b66f55457c8a77d339de7a02f74eabddfee65f44a0411c686ebcc0a175",
    ),
    "threshold-0.65": (
        ["--threshold", "0.65"],
        "6f8d1289bdc77f689578a0d6554a1fdaccd4487f51d0f8decf7453b2241612c4",
    ),
    "singleton-main": (
        ["--singleton-main"],
        "54c6ddfe98847c1816558c9e8c2561cd5041dacdb8e1c0a8372a05f6bbee9707",
    ),
}

# spine B A B with the swap (A, B) planned, where B is stop and A is day;
# B-A is also seen both ways, so the observed-pair rule alone would wrap that
# pair and lose the template B B A: only the planned swap writes these bytes
PLANNED_SWAP_CONLL = """\
# intent: swap
oslo\tB-stop
monday\tB-day
rome\tB-stop
please\tO
now\tO

# intent: swap
hello\tO

# intent: swap
oslo\tB-stop
rome\tB-stop
monday\tB-day
"""
# sha256 over every build and export-regex output of PLANNED_SWAP_CONLL
PLANNED_SWAP_GOLDEN = "221382ffab6c1908f3cb0f2a280571ab60c15829de123c6f7c77912a0ee5c581"

RANDOM_TREES = 8
RANDOM_COUNT = 40  # per tree
# sha256 over every `build` output of the random-tree corpus
RANDOM_BUILD_GOLDEN = "667d2c9e0a78458d30cae03318f8e412e19c235a409cf33956044d36e81e9aea"


def test_build_and_export_regex_digests_are_pinned(tmp_path):
    _check_build_and_export_regex_digests(tmp_path)


def test_build_and_export_regex_digests_hold_when_forked(tmp_path, force_split):
    """The same, with the sampled corpus drawn by three processes."""
    children = force_split()
    _check_build_and_export_regex_digests(tmp_path)
    assert len(children) == 2


@pytest.mark.parametrize("case", sorted(BUILD_OPTION_GOLDEN))
def test_build_options_digests_are_pinned(case, tmp_path):
    extra, digest = BUILD_OPTION_GOLDEN[case]
    _build_and_export(tmp_path, _sampled_corpus(tmp_path), extra)
    assert _outputs_digest(tmp_path) == digest


def test_build_digest_on_a_planned_swap_is_pinned(tmp_path):
    corpus = tmp_path / "corpus.conll"
    corpus.write_text(PLANNED_SWAP_CONLL, encoding="utf-8")
    _build_and_export(tmp_path, corpus, [])
    assert _outputs_digest(tmp_path) == PLANNED_SWAP_GOLDEN


def test_build_digest_on_random_trees_is_pinned(tmp_path):
    trees = {
        f"r{i}": random_tree(3000 + i, max_depth=4, intent=f"r{i}")
        for i in range(RANDOM_TREES)
    }
    config = GenerationConfig(seed=BUILD_SEED, count=RANDOM_COUNT, use_embeddings=False)
    corpus = tmp_path / "corpus.conll"
    with open(corpus, "w", encoding="utf-8") as handle:
        emit(generate_batch(trees, None, config, lexicon=small_lexicon()), handle, "conll")
    built = tmp_path / "trees"
    assert main(["build", str(corpus), "--out", str(built)]) == 0

    # the corpus exercises planned swaps and root pick-ones
    induced = [
        deserialize(p.read_text(encoding="utf-8")) for p in built.glob("*.east.json")
    ]
    assert any(
        c.kind == EXCHANGEABLE for t in induced for c in _alignments(t.root)[0].children
    )
    assert any(t.root.kind == PICKONE for t in induced)
    assert _outputs_digest(tmp_path) == RANDOM_BUILD_GOLDEN


def _sampled_corpus(tmp_path):
    """The ground-truth trees' sampled corpus plus NON_MAIN_CORPUS, as conll."""
    trees, lexicon = ground_truth_world()
    config = GenerationConfig(seed=BUILD_SEED, count=BUILD_COUNT, use_embeddings=False)
    corpus = tmp_path / "corpus.conll"
    with open(corpus, "w", encoding="utf-8") as handle:
        emit([*generate_batch(trees, None, config, lexicon=lexicon), *NON_MAIN_CORPUS],
             handle, "conll")
    return corpus


def _build_and_export(tmp_path, corpus, extra):
    built, exported = tmp_path / "trees", tmp_path / "regex"
    assert main(["build", str(corpus), "--out", str(built), *extra]) == 0
    assert main([
        "export-regex",
        "--trees", str(built),
        "--lexicon", str(built / "lexicon.json"),
        "--out", str(exported),
    ]) == 0


def _written(tmp_path) -> list[str]:
    """The output files under tmp_path's subdirectories, relative, sorted."""
    return sorted(
        str(p.relative_to(tmp_path)) for p in tmp_path.glob("*/*")
        if p.name != "manifest.json"  # it names the temporary input paths
    )


def _outputs_digest(tmp_path) -> str:
    """sha256 over one `<relative path> <sha256>` line per output file."""
    lines = "".join(f"{name} {_sha256(tmp_path / name)}\n" for name in _written(tmp_path))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def _alignments(root):
    """The alignments of a tree built by `eastgen build`: the root is one
    alignment (an order) or a pick-one of alignments, the spine first."""
    return [root] if root.kind == ORDER else list(root.children)


def _region_slots(node) -> set[str]:
    """Entity slots held by the regions of a tree built by `eastgen build`.

    An alignment's regions are its children that are neither entity leaves
    nor exchangeable pairs of them.
    """
    slots: set[str] = set()
    stack = [
        c for a in _alignments(node) for c in a.children
        if c.kind not in (ENTITY, EXCHANGEABLE)
    ]
    while stack:
        n = stack.pop()
        if n.kind == ENTITY:
            slots.add(n.slot)
        stack.extend(n.children)
    return slots


def _check_build_and_export_regex_digests(tmp_path):
    _build_and_export(tmp_path, _sampled_corpus(tmp_path), [])
    built = tmp_path / "trees"

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

    written = _written(tmp_path)
    assert written == sorted(BUILD_GOLDEN)
    assert {name: _sha256(tmp_path / name) for name in written} == BUILD_GOLDEN
