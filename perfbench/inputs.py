"""Seeded inputs for the benchmark, built from the workload seed alone.

Everything here is owned by the benchmark so that edits to the test suite
cannot move it. The recipes follow the scale fixtures of the test suite:

* the ground-truth world: five hand-authored trees plus a small lexicon;
  sampling them gives the 4,478-sentence training corpus of ``gen-plain``;
* the wide ``gen-embed`` inputs: the same five trees as ``*.east.json``
  documents, a lexicon of about 100 single-token forms per slot drawn from
  the embedding vocabulary (plus one multi-token form per slot) and a
  25,000 x 300 text embedding table;
* the ``induce`` corpus: the 40 random trees (depth 4) of seeds 1000-1039,
  sampled 1,000 times each with the workload seed.

Inputs are written once per seed under ``perfbench/.cache`` and the sha256
of every file is kept next to them.
"""

from __future__ import annotations

import io
import json
import os
import random
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

from eastgen import (
    East,
    EntityLexicon,
    GenerationConfig,
    deserialize,
    emit,
    entity,
    exchangeable,
    fixed,
    generate_batch,
    order,
    parse_conll,
    pick_one,
)
from eastgen.east import EXCHANGEABLE, ORDER, PICKONE, Node
from run import sha256_file

CACHE_DIR = Path(__file__).resolve().parent / ".cache"
CACHE_KEEP = 3  # seeds kept on disk; each gen-embed table is ~68 MB

# Per-intent training sizes of the reference corpus (4,478 sentences).
GROUND_TRUTH_COUNTS = {
    "find_flight": 900,
    "weather": 900,
    "greet": 878,
    "play_music": 900,
    "hotel": 900,
}

TABLE_ROWS = 25_000
TABLE_DIM = 300
WIDE_FORMS_PER_SLOT = 100
INDUCE_TREES = 40
INDUCE_FIRST_TREE_SEED = 1000  # the recipe's trees; the workload seed drives the draws
INDUCE_DRAWS = 1_000
INDUCE_MAX_DEPTH = 4


# --- the ground-truth world --------------------------------------------------


def _leaf(dictionary: dict, dropout: float | None = None) -> dict:
    doc = {"kind": "fixed", "dictionary": dictionary}
    if dropout is not None:
        doc["dropout"] = dropout
    return doc


def _slot(name: str) -> dict:
    return {"kind": "entity", "slot": name}


# Hand-authored documents: weights are left out wherever they are the
# default (1.0, or an even share of a pick-one node).
GROUND_TRUTH_TREES = {
    "find_flight": {"kind": "order", "children": [
        _leaf({"book a flight": 3, "find flights": 2, "search flights": 1}),
        _leaf({"from": 6}),
        _slot("city"),
        _leaf({"to": 6}),
        _slot("city"),
        _leaf({"tomorrow": 2, "next week": 1}, dropout=0.5),
    ]},
    "weather": {"kind": "order", "children": [
        _leaf({"how is": 2, "what's": 2}),
        _leaf({"the weather in": 4}),
        _slot("city"),
        _leaf({"on": 2}, dropout=0.5),
        {"kind": "exchangeable", "children": [_slot("month"), _slot("day")]},
    ]},
    "greet": {"kind": "pickone", "children": [
        {**_leaf({"hello there": 2, "hi": 3}), "weight": 0.6},
        {**_leaf({"good morning": 1, "good evening": 1}), "weight": 0.4},
    ]},
    "play_music": {"kind": "order", "children": [
        _leaf({"play": 5, "put on": 2}),
        _slot("artist"),
        _leaf({"songs": 2, "hits": 1}, dropout=0.4),
    ]},
    "hotel": {"kind": "pickone", "children": [
        {"kind": "order", "children": [_leaf({"book a room in": 2}), _slot("city")]},
        {"kind": "order", "children": [
            _leaf({"find": 1, "show": 1}),
            _leaf({"hotels near": 2}),
            _slot("city"),
            _leaf({"for": 1}, dropout=0.5),
            _slot("month"),
        ]},
    ]},
}

GROUND_TRUTH_LEXICON = {
    "city": ("oslo", "paris", "new york", "rome", "cairo"),
    "month": ("May", "June", "October"),
    "day": ("1st", "2nd", "21st"),
    "artist": ("prince", "queen", "abba"),
}


def tree_documents() -> dict[str, str]:
    """Intent -> ``*.east.json`` text of the five ground-truth trees."""
    return {
        intent: json.dumps({"intent": intent, "root": root}, indent=2) + "\n"
        for intent, root in GROUND_TRUTH_TREES.items()
    }


def ground_truth_world() -> tuple[dict[str, East], EntityLexicon]:
    trees = {intent: deserialize(text) for intent, text in tree_documents().items()}
    lexicon = EntityLexicon()
    for slot, forms in GROUND_TRUTH_LEXICON.items():
        for form in forms:
            lexicon.add(slot, form)
    return trees, lexicon


def ground_truth_corpus(seed: int) -> str:
    """The 4,478-sentence conll training corpus sampled from the world."""
    trees, lexicon = ground_truth_world()
    sentences = []
    for intent, count in GROUND_TRUTH_COUNTS.items():
        config = GenerationConfig(seed=seed, count=count, use_embeddings=False)
        sentences.extend(
            generate_batch({intent: trees[intent]}, None, config, lexicon=lexicon)
        )
    sink = io.StringIO()
    emit(sentences, sink, "conll")
    return sink.getvalue()


# --- the random-tree recipe ----------------------------------------------------


RANDOM_SLOTS = ("city", "color")


def random_lexicon() -> EntityLexicon:
    lexicon = EntityLexicon()
    for form in ("paris", "oslo"):
        lexicon.add("city", form)
    for form in ("red", "deep blue"):
        lexicon.add("color", form)
    return lexicon


def random_tree(seed: int, *, max_depth: int, intent: str) -> East:
    """A random valid tree with globally unique fixed phrases."""
    rng = random.Random(seed)
    phrase_count = 0

    def phrase() -> str:
        nonlocal phrase_count
        phrase_count += 1
        words = [f"w{phrase_count}"]
        if rng.random() < 0.3:
            words.append(f"x{phrase_count}")
        return " ".join(words)

    def dropout() -> float | None:
        if rng.random() < 0.3:
            return round(rng.uniform(0.1, 0.6), 3)
        return None

    def leaf() -> Node:
        if rng.random() < 0.3:
            return entity(rng.choice(RANDOM_SLOTS))
        dictionary = {phrase(): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}
        return fixed(dictionary, dropout=dropout())

    def weighted(children: tuple[Node, ...]) -> tuple[Node, ...]:
        counts = [rng.randint(1, 4) for _ in children]
        total = sum(counts)
        return tuple(replace(c, weight=n / total) for c, n in zip(children, counts))

    def node(depth: int) -> Node:
        if depth >= max_depth or rng.random() < 0.4:
            return leaf()
        kind = rng.choice((ORDER, PICKONE, EXCHANGEABLE))
        n = rng.randint(2, 3) if kind != ORDER else rng.randint(1, 3)
        children = tuple(node(depth + 1) for _ in range(n))
        if kind == ORDER:
            return order(*children, dropout=dropout())
        if kind == EXCHANGEABLE:
            return exchangeable(*children, dropout=dropout())
        return pick_one(*weighted(children), dropout=dropout())

    kind = rng.choice((ORDER, PICKONE))
    count = rng.randint(1, 3) if kind == ORDER else rng.randint(2, 3)
    children = tuple(node(1) for _ in range(count))
    root = order(*children) if kind == ORDER else pick_one(*weighted(children))
    return East(intent, root)


def induce_corpus(seed: int) -> tuple[str, dict]:
    """Conll text of the random-tree corpus and its facts. A tree can drop
    every region and so draw an empty sentence; emitting and re-parsing the
    corpus drops those, and the facts count them."""
    lexicon = random_lexicon()
    config = GenerationConfig(seed=seed, count=INDUCE_DRAWS, use_embeddings=False)
    sentences = []
    for i in range(INDUCE_TREES):
        tree = random_tree(INDUCE_FIRST_TREE_SEED + i, max_depth=INDUCE_MAX_DEPTH,
                           intent=f"r{i:02d}")
        sentences.extend(generate_batch({tree.intent: tree}, None, config, lexicon=lexicon))
    sink = io.StringIO()
    emit(sentences, sink, "conll")
    text = sink.getvalue()
    parsed = parse_conll(text)
    return text, {
        "sentences": len(parsed),
        "intents": len({s.intent for s in parsed}),
        "empty_sentences_dropped": len(sentences) - len(parsed),
    }


# --- the wide embedding inputs ---------------------------------------------------


def vocabulary(rows: int = TABLE_ROWS) -> list[str]:
    return [f"w{i:05d}" for i in range(rows)]


def write_table(path: Path, seed: int, rows: int = TABLE_ROWS, dim: int = TABLE_DIM) -> None:
    """A ``token v1 ... vD`` text table of seeded Gaussian vectors.

    Every component is 8 characters, as GloVe text files roughly are:
    ``0.dddddd`` when positive, ``-0.ddddd`` when negative. Fixed widths let
    numpy lay the text out without a per-number Python call.
    """
    rng = np.random.default_rng([seed % 2**64, 2])  # seed words must be non-negative
    tokens = vocabulary(rows)
    block = 5_000
    with open(path, "wb") as handle:
        for start in range(0, rows, block):
            values = np.clip(rng.normal(0.0, 0.35, size=(min(block, rows - start), dim)),
                             -0.99999, 0.999999)
            negative = values < 0
            magnitude = np.where(negative, np.rint(-values * 1e5), np.rint(values * 1e6))
            magnitude = magnitude.astype(np.int64)
            text = np.empty(values.shape + (9,), dtype=np.uint8)
            text[..., 8] = ord(" ")
            text[:, -1, 8] = ord("\n")
            text[..., 0] = np.where(negative, ord("-"), ord("0"))
            text[..., 1] = np.where(negative, ord("0"), ord("."))
            # positive: six digits at 2..7; negative: "." at 2, five digits at 3..7
            for position in range(2, 8):
                digit = magnitude // 10 ** (7 - position) % 10 + ord("0")
                if position == 2:
                    digit = np.where(negative, ord("."), digit)
                text[..., position] = digit
            lines = text.reshape(len(values), dim * 9)
            for offset, line in enumerate(lines):
                handle.write(tokens[start + offset].encode() + b" " + line.tobytes())


def wide_lexicon(seed: int, rows: int = TABLE_ROWS) -> dict[str, dict[str, int]]:
    """About 100 single-token forms per slot, all in the table's vocabulary,
    plus one two-token form per slot; counts vary so the weighted fill
    differs from the uniform one."""
    rng = random.Random(seed)
    words = vocabulary(rows)
    slots = sorted(GROUND_TRUTH_LEXICON)
    picks = rng.sample(range(rows), WIDE_FORMS_PER_SLOT * len(slots) + 2 * len(slots))
    doc: dict[str, dict[str, int]] = {}
    for n, slot in enumerate(slots):
        base = n * (WIDE_FORMS_PER_SLOT + 2)
        forms = {words[i]: rng.randint(1, 20)
                 for i in picks[base:base + WIDE_FORMS_PER_SLOT]}
        first, second = picks[base + WIDE_FORMS_PER_SLOT:base + WIDE_FORMS_PER_SLOT + 2]
        forms[f"{words[first]} {words[second]}"] = rng.randint(1, 20)
        doc[slot] = forms
    return doc


# --- per-seed cache --------------------------------------------------------------


def _write_inputs(workload: str, seed: int, root: Path) -> dict:
    """Write one workload's inputs under `root`; returns extra facts."""
    if workload == "gen-plain":
        (root / "train.conll").write_text(ground_truth_corpus(seed), encoding="utf-8")
        return {"intent_sizes": GROUND_TRUTH_COUNTS}
    if workload == "gen-embed":
        trees = root / "trees"
        trees.mkdir()
        for intent, text in tree_documents().items():
            (trees / f"{intent}.east.json").write_text(text, encoding="utf-8")
        (root / "lexicon.json").write_text(
            json.dumps(wide_lexicon(seed), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        write_table(root / "vectors.txt", seed)
        return {"intents": sorted(GROUND_TRUTH_TREES), "table_rows": TABLE_ROWS}
    if workload == "induce":
        text, facts = induce_corpus(seed)
        (root / "train.conll").write_text(text, encoding="utf-8")
        return facts
    raise ValueError(f"unknown workload {workload!r}")


def prepare(workload: str, seed: int) -> tuple[Path, dict]:
    """The input directory of (workload, seed) and its record: per-file
    sha256 plus workload facts. Builds it on first use; keeps the most
    recently used `CACHE_KEEP` directories."""
    CACHE_DIR.mkdir(exist_ok=True)
    root = CACHE_DIR / f"{workload}-{seed}"
    record_path = root / "inputs.json"
    if not record_path.exists():
        shutil.rmtree(root, ignore_errors=True)
        staging = CACHE_DIR / f".{workload}-{seed}.{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir()
        facts = _write_inputs(workload, seed, staging)
        files = sorted(p for p in staging.rglob("*") if p.is_file())
        record = {
            "sha256": {str(p.relative_to(staging)): sha256_file(p) for p in files},
            **facts,
        }
        (staging / "inputs.json").write_text(json.dumps(record, indent=2) + "\n")
        os.replace(staging, root)
    os.utime(record_path)
    entries = sorted(
        (p for p in CACHE_DIR.iterdir() if (p / "inputs.json").exists()),
        key=lambda p: (p / "inputs.json").stat().st_mtime,
    )
    for stale in entries[:-CACHE_KEEP]:
        shutil.rmtree(stale, ignore_errors=True)
    return root, json.loads(record_path.read_text())


if __name__ == "__main__":
    import sys

    directory, record = prepare(sys.argv[1], int(sys.argv[2]))
    print(json.dumps({"dir": str(directory), **record}))
