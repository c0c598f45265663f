"""Golden digests: fixed-seed `eastgen generate` output bytes, pinned.

The determinism promise is "same inputs and seed, same bytes" across
refactors of the sampler and across Python versions, not only between two
runs of one build. Each case writes its inputs from in-repo fixtures,
runs the CLI, and compares the sha256 of the corpus and of its
`.stats.json` sidecar with values recorded before the sampler was
rewritten. A mismatch means the random stream or the emitted bytes
changed; only a change that declares new output may update these values.
"""

import hashlib
import json

import pytest

from eastgen import serialize
from eastgen.cli import main

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


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_generate_digest_is_pinned(case, inputs, tmp_path):
    extra, corpus_digest, stats_digest = GOLDEN[case]
    trees_dir, lexicon_path, table_path = inputs
    out = tmp_path / "out.txt"
    args = [
        "generate",
        "--trees", str(trees_dir),
        "--lexicon", str(lexicon_path),
        "--embeddings", str(table_path),
        "--seed", str(SEED),
        "--count", str(COUNT),
        "--out", str(out),
    ]
    assert main(args + extra) == 0
    stats = out.with_name(out.name + ".stats.json")
    assert (_sha256(out), _sha256(stats)) == (corpus_digest, stats_digest)
