"""Command-line interface: build trees, generate corpora, export regexes.

Every command that writes files also writes a manifest of every parsed
option (input file paths under "inputs", the rest under "config") and the
output checksums; re-running with the same manifest inputs reproduces the
outputs byte for byte. Files are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import tempfile
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from . import __version__
from .builder import BuilderConfig, build, entity_occurrence
from .corpus import (
    Dataset,
    EntityLexicon,
    build_dataset,
    parse_conll,
    parse_lexicon,
    parse_records,
)
from .east import East, deserialize, entity_slots, iter_nodes, may_expand_empty, serialize
from .embeddings import (
    EmbeddingTable, file_sha256, iter_lines, load_cached, load_embeddings,
)
from .errors import (
    EastgenError, EmbeddingFormatError, MissingLexiconError, TreeSchemaError,
    TreeValidationError,
)
from .generator import (
    GenerationConfig,
    OUTPUT_FORMATS,
    emit,
    generate_batch,
)
from .regex_export import dump_bundle, export_regex

TREE_SUFFIX = ".east.json"
LEXICON_FILENAME = "lexicon.json"
MANIFEST_FILENAME = "manifest.json"
# options that name input files: a manifest lists them under "inputs" and
# every other parsed option under "config"
INPUT_OPTIONS = ("corpus", "trees", "lexicon", "embeddings")


def _threshold(value: str) -> float:
    t = float(value)
    if not 0 < t < 1:
        raise argparse.ArgumentTypeError(f"threshold must be in (0, 1), got {value}")
    return t


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return n


@contextmanager
def _atomic_write(path: Path) -> Iterator[TextIO]:
    """Yield a temp file beside `path`; it replaces `path` if the block ends cleanly."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_manifest(
    manifest_path: Path, args: argparse.Namespace, outputs: list[Path]
) -> None:
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out")}
    doc = {
        "command": args.command,
        "version": __version__,
        "inputs": {k: config.pop(k) for k in INPUT_OPTIONS if k in config},
        "config": config,
        "outputs": {p.name: f"sha256:{file_sha256(p)}" for p in outputs},
    }
    with _atomic_write(manifest_path) as handle:
        handle.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


@contextmanager
def _open_text(path: str | Path) -> Iterator[TextIO]:
    """Open `path` as UTF-8 text; a decode error, wherever it is met, names the
    file and, for a regular file, the line of the first byte that is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield handle
    except UnicodeDecodeError as exc:
        line = _first_bad_line(path) if os.path.isfile(path) else None  # a pipe is spent
        where = f" (line {line})" if line else ""
        raise EastgenError(f"{path}: not UTF-8 text{where}") from exc


def _first_bad_line(path: str | Path) -> int | None:
    """The line, as str.splitlines() numbers them, of the first non-UTF-8 byte."""
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(iter_lines(handle), start=1):
            try:
                line.encode("utf-8")  # fails only on a byte surrogateescape kept
            except UnicodeEncodeError:
                return lineno
    return None


def _parse_embeddings(path: str) -> EmbeddingTable:
    with _open_text(path) as handle:
        return load_embeddings(handle)  # streamed: the text is never held whole


def _read_text(path: str | Path) -> str:
    with _open_text(path) as handle:
        return handle.read()


def _read_corpus(path: str, fmt: str, synthetic_intent: str | None) -> Dataset:
    """Parse the corpus at `path`; every error names the path once."""
    text = _read_text(path)  # a UTF-8 error names the path itself
    try:
        sentences = parse_conll(text) if fmt == "conll" else parse_records(text)
        return build_dataset(sentences, synthetic_intent=synthetic_intent)
    except EastgenError as exc:
        raise EastgenError(f"{path}: {exc}") from exc


def _write_per_intent(
    out: Path, suffix: str, docs: Iterable[tuple[str, str]]
) -> list[Path]:
    """Write each (intent, text) as it is drawn to `out`/<name><suffix>.

    The name is the intent reduced to file-safe characters, with _2, _3, ...
    appended when an earlier intent took it in any case (a case-insensitive
    file system stores `A` and `a` as one file). Files with `suffix` that the
    previous manifest in `out` lists and this run did not write are removed,
    so an intent dropped since the last run leaves no stale file; a file no
    manifest lists is never touched. Returns the written paths.
    """
    stale = _listed_outputs(out, suffix)
    paths: list[Path] = []
    used: set[str] = set()
    for intent, text in docs:
        base = name = re.sub(r"[^A-Za-z0-9._-]+", "_", intent).strip("_") or "intent"
        counter = 2
        while name.casefold() in used:
            name, counter = f"{base}_{counter}", counter + 1
        used.add(name.casefold())
        paths.append(out / f"{name}{suffix}")
        with _atomic_write(paths[-1]) as handle:
            handle.write(text)
    for name in stale - {path.name for path in paths}:
        (out / name).unlink(missing_ok=True)
    return paths


def _listed_outputs(out: Path, suffix: str) -> set[str]:
    """The names ending in `suffix` that `out`'s manifest lists as outputs."""
    try:
        manifest = json.loads((out / MANIFEST_FILENAME).read_text(encoding="utf-8"))
        names = list(manifest["outputs"])
    except (OSError, ValueError, LookupError, TypeError):  # no manifest, or not one of ours
        return set()
    return {
        name for name in names if isinstance(name, str)
        and name.endswith(suffix) and name == Path(name).name  # only files in `out`
    }


def _tree_files(path: str) -> list[Path]:
    """The tree documents at `path`: the file itself, or a directory's *.east.json."""
    root = Path(path)
    files = sorted(root.glob(f"*{TREE_SUFFIX}")) if root.is_dir() else [root]
    if not files:
        raise EastgenError(f"no {TREE_SUFFIX} documents under {path}")
    return files


def _load_trees(path: str) -> dict[str, East]:
    trees: dict[str, East] = {}
    for file in _tree_files(path):
        try:
            tree = deserialize(_read_text(file))  # a UTF-8 error names the path itself
        except (TreeSchemaError, TreeValidationError) as exc:
            raise EastgenError(f"{file.name}: {exc}") from exc
        if tree.intent in trees:
            raise EastgenError(
                f"duplicate tree for intent {tree.intent!r} in {file.name}"
            )
        trees[tree.intent] = tree
    return trees


def _dump_lexicon(lexicon: EntityLexicon) -> str:
    doc = {label: dict(counter) for label, counter in lexicon.entries.items()}
    return json.dumps(doc, indent=2, ensure_ascii=False, sort_keys=True) + "\n"


def _check_lexicon_coverage(trees: dict[str, East], lexicon: EntityLexicon) -> None:
    for intent, tree in trees.items():
        for slot in sorted(entity_slots(tree)):
            if not lexicon.forms(slot):
                raise MissingLexiconError(slot)


# --- commands ---------------------------------------------------------------


def cmd_build(args: argparse.Namespace) -> int:
    dataset = _read_corpus(args.corpus, args.format, args.synthetic_intent)
    config = BuilderConfig(
        main_entity_threshold=args.threshold, singleton_main=args.singleton_main
    )
    trees = build(dataset, config)

    out = Path(args.out)
    outputs = _write_per_intent(
        out, TREE_SUFFIX, ((intent, serialize(tree)) for intent, tree in trees.items())
    )
    outputs.append(out / LEXICON_FILENAME)
    with _atomic_write(outputs[-1]) as handle:
        handle.write(_dump_lexicon(dataset.lexicon))
    _write_manifest(out / MANIFEST_FILENAME, args, outputs)
    print(f"built {len(trees)} tree(s) under {out}")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    trees = _load_trees(args.trees)
    dataset: Dataset | None = None
    if args.corpus:
        dataset = _read_corpus(args.corpus, args.format, args.synthetic_intent)
        lexicon = dataset.lexicon
    else:
        lexicon = parse_lexicon(_read_text(args.lexicon))
    _check_lexicon_coverage(trees, lexicon)
    if dataset is None and args.count is None:
        raise EastgenError("--count is required when only a lexicon is given")
    if not args.no_dropout:  # a sentence with no tokens would not re-parse
        for intent in sorted(trees):
            if may_expand_empty(trees[intent].root):
                raise EastgenError(
                    f"the tree of intent {intent!r} can draw a sentence with no tokens: "
                    "dropout may skip every node that carries tokens"
                )

    table = None
    if not args.no_embeddings:
        if not args.embeddings:
            raise EastgenError("an embedding file is required unless --no-embeddings")
        try:
            table = load_cached(args.embeddings, _parse_embeddings)
        except EmbeddingFormatError as exc:
            raise EastgenError(f"{args.embeddings}: {exc}") from exc

    config = GenerationConfig(
        seed=args.seed,
        k=args.k,
        factor=args.factor,
        count=args.count,
        use_embeddings=not args.no_embeddings,
        apply_dropout=not args.no_dropout,
        weighted_lexicon=args.weighted_lexicon,
        neighbors_within_lexicon=args.neighbors_from_lexicon,
    )
    sentences = generate_batch(trees, dataset, config, table, lexicon=lexicon)
    del table  # frees the matrix before emit renders the texts

    out = Path(args.out)
    with _atomic_write(out) as handle:
        emit(sentences, handle, args.format)
    stats_path = out.with_name(out.name + ".stats.json")
    with _atomic_write(stats_path) as handle:
        handle.write(json.dumps(sentences.stats.to_dict(), indent=2, sort_keys=True) + "\n")

    _write_manifest(out.with_name(out.name + ".manifest.json"), args, [out, stats_path])
    print(f"generated {len(sentences)} sentence(s) -> {out}")
    return 0


def cmd_export_regex(args: argparse.Namespace) -> int:
    trees = _load_trees(args.trees)
    lexicon = parse_lexicon(_read_text(args.lexicon))
    _check_lexicon_coverage(trees, lexicon)

    out = Path(args.out)
    bundles = (
        (intent, dump_bundle(export_regex(tree, lexicon))) for intent, tree in trees.items()
    )
    outputs = _write_per_intent(out, ".regex.txt", bundles)
    _write_manifest(out / MANIFEST_FILENAME, args, outputs)
    print(f"exported {len(outputs)} bundle(s) under {out}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    problems = 0
    if args.trees:
        seen_intents: set[str] = set()
        for file in _tree_files(args.trees):
            try:
                tree = deserialize(_read_text(file))
            except (TreeSchemaError, TreeValidationError) as exc:
                faults = exc.violations if isinstance(exc, TreeValidationError) else [exc]
                for fault in faults:
                    print(f"{file.name}: {fault}")
                problems += len(faults)
                continue
            except EastgenError as exc:  # not UTF-8: the message names the path
                print(exc)
                problems += 1
                continue
            if tree.intent in seen_intents:
                print(f"{file.name}: duplicate tree for intent {tree.intent!r}")
                problems += 1
            seen_intents.add(tree.intent)
    else:
        try:
            _read_corpus(args.corpus, args.format, synthetic_intent="ALL")
        except EastgenError as exc:  # the message names the path
            print(exc)
            problems += 1

    if problems:
        print(f"{problems} violation(s)")
        return 1
    print("ok")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if args.corpus:
        dataset = _read_corpus(args.corpus, args.format, synthetic_intent="ALL")
        tokens = Counter()
        lengths = []
        for sentence in dataset.sentences:
            tokens.update(sentence.tokens)
            lengths.append(len(sentence.tokens))
        slot_labels = set(dataset.lexicon.labels())
        print(f"sentences: {len(dataset.sentences)}")
        print(f"vocab size: {len(tokens)}")
        print(f"average sentence length: {sum(lengths) / len(lengths):.2f}")
        print(f"intents: {len(dataset.by_intent)}")
        print(f"slot labels: {len(slot_labels)}")
        for intent, templates in dataset.by_intent.items():
            print(f"intent {intent!r}:")
            occ = entity_occurrence(templates)
            for label in sorted(occ, key=lambda l: (-occ[l], l)):
                share = occ[label]  # exact: 0.504 and 0.5 sit on either side of 0.5
                print(f"  {label}: {share.numerator}/{share.denominator}"
                      f" ({float(share) * 100:.2f}%)")
    else:
        trees = _load_trees(args.trees)
        for intent, tree in trees.items():
            kinds = Counter(node.kind for _, node in iter_nodes(tree))
            slots = sorted(entity_slots(tree))
            summary = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
            print(f"intent {intent!r}: {summary}; slots: {', '.join(slots)}")
    return 0


# --- parser -----------------------------------------------------------------


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=OUTPUT_FORMATS, default="conll", help="corpus format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eastgen",
        description="Induce entity-aware syntax trees and generate labeled corpora.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="induce one tree per intent from a corpus")
    p.add_argument("corpus")
    _add_format(p)
    p.add_argument("--threshold", type=_threshold, default=0.5,
                   help="main entity occurrence threshold in (0, 1)")
    p.add_argument("--singleton-main", action="store_true",
                   help="keep only the most frequent main entity")
    p.add_argument("--synthetic-intent", default=None,
                   help="intent assigned to sentences without one (NER corpora)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("generate", help="sample labeled sentences from trees")
    p.add_argument("--trees", required=True, help="tree document or directory")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--lexicon", help="lexicon JSON file")
    src.add_argument("--corpus", help="training corpus (lexicon and sizes)")
    vectors = p.add_mutually_exclusive_group()
    vectors.add_argument("--embeddings", help="word vector file")
    vectors.add_argument("--no-embeddings", action="store_true",
                         help="skip nearest-neighbor entity substitution")
    p.add_argument("--k", type=_positive_int, default=5,
                   help="neighbors per entity candidate")
    amount = p.add_mutually_exclusive_group()
    amount.add_argument("--factor", type=_positive_int, default=2,
                        help="output multiple of each intent's training size")
    amount.add_argument("--count", type=_positive_int, default=None,
                        help="absolute sentence count per intent")
    p.add_argument("--seed", type=int, required=True, help="generation seed")
    p.add_argument("--no-dropout", action="store_true")
    p.add_argument("--weighted-lexicon", action="store_true",
                   help="draw entity candidates by training frequency")
    p.add_argument("--neighbors-from-lexicon", action="store_true",
                   help="restrict neighbor search to the slot's lexicon")
    p.add_argument("--synthetic-intent", default=None)
    _add_format(p)
    p.add_argument("--out", required=True, help="output corpus file")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("export-regex", help="lower trees to regex bundles")
    p.add_argument("--trees", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_export_regex)

    p = sub.add_parser("validate", help="check trees or a corpus; exit 0 iff clean")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--trees")
    target.add_argument("--corpus")
    _add_format(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("stats", help="summarize a corpus or trees")
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--corpus")
    target.add_argument("--trees")
    _add_format(p)
    p.set_defaults(func=cmd_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (EastgenError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
