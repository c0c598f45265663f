"""Output checks that need the program's own parsers, run in a child process.

    python perfbench/check.py corpus OUT FORMAT LEXICON|- TABLE_ROWS
    python perfbench/check.py induce TREES_DIR BUNDLES_DIR CORPUS SEED
    python perfbench/check.py env

Each prints one JSON object: ``problems`` (empty when the output is
correct) and ``facts`` (counts the benchmark compares and reports). An
output the package's parsers reject is a problem, not a crash.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import random
import sys
from collections import Counter
from pathlib import Path

from eastgen import EastgenError, deserialize, parse_conll, parse_records
from eastgen.regex_export import load_bundle, match
from inputs import vocabulary


def _spans(sentence) -> list[str]:
    """Entity surface forms of a sentence, in reading order."""
    forms: list[list[str]] = []
    for token, tag in zip(sentence.tokens, sentence.slots):
        if tag.startswith("B-"):
            forms.append([token])
        elif tag.startswith("I-"):
            forms[-1].append(token)
    return [" ".join(f) for f in forms]


def check_corpus(out: str, fmt: str, lexicon_path: str, table_rows: str) -> dict:
    """Re-parse a generated corpus (parsing validates IOB tags) and count
    its entity fills. With a lexicon, every fill must be a lexicon form or
    a token of the embedding table's vocabulary."""
    text = Path(out).read_text(encoding="utf-8")
    sentences = parse_conll(text) if fmt == "conll" else parse_records(text)
    del text
    problems = []
    forms = [form for s in sentences for form in _spans(s)]
    facts = {
        "sentences": len(sentences),
        "per_intent": dict(Counter(s.intent for s in sentences)),
        "entity_fills": len(forms),
        "multi_token_fills": sum(" " in form for form in forms),
    }
    if lexicon_path != "-":
        lexicon = json.loads(Path(lexicon_path).read_text(encoding="utf-8"))
        known = {form for slot_forms in lexicon.values() for form in slot_forms}
        known.update(vocabulary(int(table_rows)))
        stray = [f for f in forms if f not in known]
        if stray:
            problems.append(f"{len(stray)} fills outside lexicon and vocabulary, e.g. {stray[0]!r}")
    return {"problems": problems, "facts": facts}


def check_induce(trees_dir: str, bundles_dir: str, corpus: str, seed: str) -> dict:
    """Every tree and bundle re-parses, one of each per corpus intent, and
    a seeded sample of training sentences matches its intent's bundle."""
    sentences = parse_conll(Path(corpus).read_text(encoding="utf-8"))
    intents = sorted({s.intent for s in sentences})
    trees = [deserialize(p.read_text(encoding="utf-8"))
             for p in sorted(Path(trees_dir).glob("*.east.json"))]
    bundles = {b.intent: b for b in (load_bundle(p.read_text(encoding="utf-8"))
                                     for p in sorted(Path(bundles_dir).glob("*.regex.txt")))}
    problems = []
    if sorted(t.intent for t in trees) != intents:
        problems.append(f"{len(trees)} trees for {len(intents)} intents")
    if sorted(bundles) != intents:
        problems.append(f"{len(bundles)} bundles for {len(intents)} intents")
    sample = random.Random(int(seed)).sample(sentences, min(400, len(sentences)))
    unmatched = [s for s in sample if s.intent in bundles
                 and match(bundles[s.intent], s.tokens) is None]
    if unmatched:
        problems.append(f"{len(unmatched)}/{len(sample)} training sentences match no pattern "
                        f"of their intent, e.g. {' '.join(unmatched[0].tokens)!r}")
    facts = {
        "sentences": len(sentences),
        "trees": len(trees),
        "bundles": len(bundles),
        "patterns": sum(len(b.patterns) for b in bundles.values()),
        "sample_matched": len(sample) - len(unmatched),
    }
    return {"problems": problems, "facts": facts}


def blas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None when unknown."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def environment() -> dict:
    import numpy

    return {"problems": [], "facts": {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }}


def main(argv: list[str]) -> int:
    commands = {"corpus": check_corpus, "induce": check_induce, "env": environment}
    try:
        answer = commands[argv[0]](*argv[1:])
    except EastgenError as exc:
        answer = {"problems": [f"{type(exc).__name__}: {exc}"], "facts": {}}
    print(json.dumps(answer))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
