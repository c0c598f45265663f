"""Independent oracles and fixture builders shared across the test suite.

Everything here recomputes expectations from first principles (brute-force
scans, exhaustive enumeration, direct probability products) so the tests
never trust the code paths they check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from itertools import permutations
from typing import Iterable, Iterator

try:  # the regex parser's modules, named sre_* before Python 3.11
    from re import _constants as sre_constants, _parser as sre_parse
except ImportError:
    import sre_constants
    import sre_parse

from eastgen import (
    AnnotatedSentence,
    Dataset,
    East,
    EntityLexicon,
    SentenceTemplate,
    entity,
    exchangeable,
    fixed,
    order,
    pick_one,
)
from eastgen.corpus import INTENT_HEADER, _check_sentence
from eastgen.east import ENTITY, EXCHANGEABLE, FIXED, Node, ORDER, PICKONE
from eastgen.errors import (
    CorpusParseError,
    CorpusValidationError,
    EastgenError,
    EmptyDatasetError,
)

# --- brute-force nearest neighbors (pure python, no numpy) ------------------


def brute_force_knn(vectors: dict[str, list[float]], query: str, k: int):
    q = vectors[query]
    nq = math.sqrt(sum(x * x for x in q))

    def cos(v):
        dot = sum(x * y for x, y in zip(q, v))
        return dot / (nq * math.sqrt(sum(x * x for x in v)))

    scored = [(t, cos(v)) for t, v in vectors.items() if t != query]
    scored.sort(key=lambda ts: (-ts[1], ts[0]))
    return scored[:k]


# --- finite-regex language enumeration (from the compiled pattern itself) ---


def regex_language(pattern: str) -> set[str]:
    """All strings a finite (repetition-free) pattern accepts."""
    return set(_expand_sequence(sre_parse.parse(pattern)))


def _expand_sequence(seq) -> list[str]:
    parts = [""]
    for op, arg in seq:
        variants = _expand_opcode(op, arg)
        parts = [p + v for p in parts for v in variants]
    return parts


def _expand_opcode(op, arg) -> list[str]:
    if op is sre_constants.LITERAL:
        return [chr(arg)]
    if op is sre_constants.AT:
        return [""]
    if op is sre_constants.SUBPATTERN:
        return _expand_sequence(arg[3])
    if op is sre_constants.BRANCH:
        return [v for branch in arg[1] for v in _expand_sequence(branch)]
    if op is sre_constants.MAX_REPEAT:
        lo, hi, sub = arg
        if hi is sre_constants.MAXREPEAT or hi > 1:
            raise AssertionError("unbounded repetition is outside the dialect")
        base = _expand_sequence(sub)
        out = [""] if lo == 0 else []
        if hi == 1:
            out.extend(base)
        return out
    if op is sre_constants.IN:
        # the parser folds single-char alternations into literal classes
        out = []
        for sub_op, sub_arg in arg:
            if sub_op is not sre_constants.LITERAL:
                raise AssertionError(f"class item {sub_op} is outside the dialect")
            out.append(chr(sub_arg))
        return out
    raise AssertionError(f"opcode {op} is outside the dialect")


def bundle_language(bundle) -> set[str]:
    lang: set[str] = set()
    for pattern in bundle.patterns:
        lang |= regex_language(pattern)
    return lang


# --- templates as segments (the oracles' own form) -------------------------


@dataclass(frozen=True)
class Literal:
    """A single surface token outside any entity span."""

    text: str


@dataclass(frozen=True)
class Placeholder:
    """One entity span, abstracted to its slot label."""

    label: str


Segment = Literal | Placeholder


def segments_of(template: SentenceTemplate) -> tuple[Segment, ...]:
    """The template as segments: a Literal per token, a Placeholder per label."""
    out = [Literal(t) for t in template.phrases[0].split()]
    for label, phrase in zip(template.labels, template.phrases[1:]):
        out.append(Placeholder(label))
        out.extend(Literal(t) for t in phrase.split())
    return tuple(out)


def render(segments: Iterable[Segment]) -> str:
    """Human-readable form with ``<label>`` placeholders."""
    return " ".join(
        s.text if isinstance(s, Literal) else f"<{s.label}>" for s in segments
    )


# --- exhaustive enumeration (test oracle for traversal semantics) ----------


class LanguageSizeExceeded(EastgenError):
    """Language enumeration aborted; carries the count reached before abort."""

    def __init__(self, limit: int, partial_count: int):
        super().__init__(
            f"enumerated language exceeds limit {limit} (reached {partial_count})"
        )
        self.limit = limit
        self.partial_count = partial_count


@dataclass(frozen=True)
class TemplateLanguage:
    """The finite set of templates a tree can produce."""

    templates: frozenset[tuple[Segment, ...]]

    def __contains__(self, item) -> bool:
        if isinstance(item, SentenceTemplate):
            item = segments_of(item)
        return tuple(item) in self.templates

    def __len__(self) -> int:
        return len(self.templates)

    def __iter__(self) -> Iterator[tuple[Segment, ...]]:
        return iter(self.templates)

    def render(self) -> list[str]:
        return sorted(map(render, self.templates))


def enumerate_language(
    tree: East, include_dropout_variants: bool = False, limit: int = 100_000
) -> TemplateLanguage:
    """Every template reachable by any traversal of the tree.

    With include_dropout_variants, a node with dropout > 0 also contributes
    its absence. Aborts with LanguageSizeExceeded when any working set
    outgrows `limit`.
    """

    def guard(variants: set) -> set:
        if len(variants) > limit:
            raise LanguageSizeExceeded(limit, len(variants))
        return variants

    def expand(node: Node) -> set[tuple[Segment, ...]]:
        if node.kind == FIXED:
            variants = {
                tuple(Literal(t) for t in phrase.split(" "))
                for phrase in node.dictionary or {}
            }
        elif node.kind == ENTITY:
            variants = {(Placeholder(node.slot),)}
        elif node.kind == PICKONE:
            variants = set()
            for child in node.children:
                variants |= expand(child)
                guard(variants)
        elif node.kind == ORDER:
            variants = _concat(node.children)
        elif node.kind == EXCHANGEABLE:
            variants = set()
            for perm in permutations(node.children):
                variants |= _concat(perm)
                guard(variants)
        else:
            raise ValueError(f"unknown node kind {node.kind!r}")
        if include_dropout_variants and node.dropout:
            variants = variants | {()}
        return guard(variants)

    def _concat(children: Iterable[Node]) -> set[tuple[Segment, ...]]:
        acc: set[tuple[Segment, ...]] = {()}
        for child in children:
            child_variants = expand(child)
            acc = {head + tail for head in acc for tail in child_variants}
            guard(acc)
        return acc

    return TemplateLanguage(frozenset(expand(tree.root)))


def expand_templates(
    templates: Iterable[tuple[Segment, ...]], forms_by_slot: dict[str, list[str]]
) -> set[tuple[str, ...]]:
    """Ground templates into token sequences using lexicon surface forms."""
    sentences: set[tuple[str, ...]] = set()
    for segments in templates:
        partial: list[tuple[str, ...]] = [()]
        for segment in segments:
            if isinstance(segment, Literal):
                partial = [p + (segment.text,) for p in partial]
            else:
                fills = [tuple(f.split(" ")) for f in forms_by_slot[segment.label]]
                partial = [p + f for p in partial for f in fills]
        sentences.update(partial)
    return sentences


def reinsert_entities(
    template: tuple[Segment, ...], pairs: list[tuple[str, str]]
) -> tuple[str, ...]:
    """Inverse of abstract_entities: fill placeholders with surfaces in order."""
    tokens: list[str] = []
    it: Iterator[tuple[str, str]] = iter(pairs)
    for segment in template:
        if isinstance(segment, Literal):
            tokens.append(segment.text)
        else:
            label, surface = next(it)
            if label != segment.label:
                raise ValueError(f"pair label {label!r} != placeholder {segment.label!r}")
            tokens.extend(surface.split(" "))
    return tuple(tokens)


# --- exact structural path distribution (mirrors provenance encoding) -------


def path_distribution(tree: East, apply_dropout: bool = True) -> dict[tuple, float]:
    """Exact probability of every traversal provenance, by direct product."""

    def expand(node: Node) -> list[tuple[tuple, float]]:
        paths = kind_paths(node)
        if apply_dropout and node.dropout:
            d = node.dropout
            out = [(("drop",), d)]
            out.extend((("keep",) + p, (1 - d) * pr) for p, pr in paths)
            return out
        return paths

    def kind_paths(node: Node) -> list[tuple[tuple, float]]:
        if node.kind == ORDER:
            return sequence(node.children)
        if node.kind == PICKONE:
            total = sum(c.weight for c in node.children)
            out = []
            for i, child in enumerate(node.children):
                for p, pr in expand(child):
                    out.append(((f"pick:{i}",) + p, node.children[i].weight / total * pr))
            return out
        if node.kind == EXCHANGEABLE:
            n = len(node.children)
            base = 1.0 / math.factorial(n)
            out = []
            for perm in permutations(range(n)):
                tag = "perm:" + ",".join(map(str, perm))
                for p, pr in sequence(tuple(node.children[i] for i in perm)):
                    out.append(((tag,) + p, base * pr))
            return out
        if node.kind == FIXED:
            total = sum(node.dictionary.values())
            return [
                ((f"phrase:{j}",), count / total)
                for j, count in enumerate(node.dictionary.values())
            ]
        if node.kind == ENTITY:
            return [((), 1.0)]
        raise AssertionError(node.kind)

    def sequence(children) -> list[tuple[tuple, float]]:
        acc = [((), 1.0)]
        for child in children:
            acc = [(p + q, pr * qs) for p, pr in acc for q, qs in expand(child)]
        return acc

    dist: dict[tuple, float] = {}
    for path, prob in expand(tree.root):
        dist[path] = dist.get(path, 0.0) + prob
    return dist


def total_variation(p: dict, q: dict) -> float:
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def structural_path_count(tree: East, with_dropout: bool = True) -> int:
    def count(node: Node) -> int:
        if node.kind == ORDER:
            c = math.prod(count(ch) for ch in node.children)
        elif node.kind == PICKONE:
            c = sum(count(ch) for ch in node.children)
        elif node.kind == EXCHANGEABLE:
            c = math.factorial(len(node.children)) * math.prod(
                count(ch) for ch in node.children
            )
        elif node.kind == FIXED:
            c = len(node.dictionary)
        else:
            c = 1
        if with_dropout and node.dropout:
            c += 1
        return c

    return count(tree.root)


# --- random valid trees ------------------------------------------------------


SLOTS = ("city", "color")


def small_lexicon() -> EntityLexicon:
    lexicon = EntityLexicon()
    for form in ("paris", "oslo"):
        lexicon.add("city", form)
    for form in ("red", "deep blue"):
        lexicon.add("color", form)
    return lexicon


class _Phrases:
    def __init__(self):
        self.n = 0

    def next(self, rng: random.Random) -> str:
        self.n += 1
        words = [f"w{self.n}"]
        if rng.random() < 0.3:
            words.append(f"x{self.n}")
        return " ".join(words)


def random_tree(
    seed: int,
    *,
    allow_dropout: bool = True,
    with_entities: bool = True,
    max_depth: int = 3,
    intent: str = "random",
) -> East:
    """A random valid tree with globally unique fixed phrases."""
    rng = random.Random(seed)
    phrases = _Phrases()

    def dropout() -> float | None:
        if allow_dropout and rng.random() < 0.3:
            return round(rng.uniform(0.1, 0.6), 3)
        return None

    def leaf() -> Node:
        if with_entities and rng.random() < 0.3:
            return entity(rng.choice(SLOTS))
        dictionary = {
            phrases.next(rng): rng.randint(1, 3)
            for _ in range(rng.randint(1, 3))
        }
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


def ground_truth_world() -> tuple[dict[str, East], EntityLexicon]:
    """Five hand-built trees plus a lexicon; the reference generator for
    synthetic corpora in the scale tests."""
    trees = {
        "find_flight": East(
            "find_flight",
            order(
                fixed({"book a flight": 3, "find flights": 2, "search flights": 1}),
                fixed({"from": 6}),
                entity("city"),
                fixed({"to": 6}),
                entity("city"),
                fixed({"tomorrow": 2, "next week": 1}, dropout=0.5),
            ),
        ),
        "weather": East(
            "weather",
            order(
                fixed({"how is": 2, "what's": 2}),
                fixed({"the weather in": 4}),
                entity("city"),
                fixed({"on": 2}, dropout=0.5),
                exchangeable(entity("month"), entity("day")),
            ),
        ),
        "greet": East(
            "greet",
            pick_one(
                fixed({"hello there": 2, "hi": 3}, weight=0.6),
                fixed({"good morning": 1, "good evening": 1}, weight=0.4),
            ),
        ),
        "play_music": East(
            "play_music",
            order(
                fixed({"play": 5, "put on": 2}),
                entity("artist"),
                fixed({"songs": 2, "hits": 1}, dropout=0.4),
            ),
        ),
        "hotel": East(
            "hotel",
            pick_one(
                order(
                    fixed({"book a room in": 2}),
                    entity("city"),
                    weight=0.5,
                ),
                order(
                    fixed({"find": 1, "show": 1}),
                    fixed({"hotels near": 2}),
                    entity("city"),
                    fixed({"for": 1}, dropout=0.5),
                    entity("month"),
                    weight=0.5,
                ),
            ),
        ),
    }
    lexicon = EntityLexicon()
    for city in ("oslo", "paris", "new york", "rome", "cairo"):
        lexicon.add("city", city)
    for month in ("May", "June", "October"):
        lexicon.add("month", month)
    for day in ("1st", "2nd", "21st"):
        lexicon.add("day", day)
    for artist in ("prince", "queen", "abba"):
        lexicon.add("artist", artist)
    return trees, lexicon


def random_tree_with_budget(
    seed: int,
    max_paths: int,
    *,
    allow_dropout: bool = True,
    with_entities: bool = True,
    max_depth: int = 3,
) -> East:
    """First random tree at/under the path budget, scanning seeds from `seed`."""
    attempt = seed
    while True:
        tree = random_tree(
            attempt,
            allow_dropout=allow_dropout,
            with_entities=with_entities,
            max_depth=max_depth,
        )
        if structural_path_count(tree, with_dropout=allow_dropout) <= max_paths:
            return tree
        attempt += 10_000


# --- reference corpus ingestion (one step per line, segment and pair) ---------


def parse_conll_per_line(text: str) -> list[AnnotatedSentence]:
    """The reference column-format parser: strips, matches and splits each
    line anew and checks every sentence in full with _check_sentence."""
    sentences: list[AnnotatedSentence] = []
    tokens: list[str] = []
    tags: list[str] = []
    intent: str | None = None

    def flush():
        nonlocal intent
        if tokens:
            sentence = AnnotatedSentence(tuple(tokens), tuple(tags), intent)
            _check_sentence(sentence, len(sentences))
            sentences.append(sentence)
            tokens.clear()
            tags.clear()
        intent = None  # a blank line drops a header no token line followed

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            flush()
            continue
        if stripped.startswith(INTENT_HEADER):
            if tokens:
                raise CorpusParseError("intent header after a token line", lineno)
            if intent is not None:
                raise CorpusParseError("intent header after another intent header", lineno)
            intent = stripped[len(INTENT_HEADER):].strip()
            continue
        fields = stripped.split()
        if len(fields) != 2:
            raise CorpusParseError(
                f"expected 'token tag', got {len(fields)} fields: {stripped!r}", lineno
            )
        tokens.append(fields[0])
        tags.append(fields[1])
    flush()
    return sentences


def abstract_entities_per_token(
    sentence: AnnotatedSentence,
) -> tuple[tuple[Segment, ...], list[tuple[str, str]]]:
    """The reference span walk: a new segment per token and span."""
    segments = []
    pairs: list[tuple[str, str]] = []
    span_label: str | None = None
    span_tokens: list[str] = []

    def close_span():
        nonlocal span_label
        if span_label is not None:
            segments.append(Placeholder(span_label))
            pairs.append((span_label, " ".join(span_tokens)))
            span_label = None
            span_tokens.clear()

    for token, tag in zip(sentence.tokens, sentence.slots):
        if tag == "O":
            close_span()
            segments.append(Literal(token))
        elif tag.startswith("B-"):
            close_span()
            span_label = tag[2:]
            span_tokens.append(token)
        else:  # I- continuation, validated upstream
            span_tokens.append(token)
    close_span()
    return tuple(segments), pairs


def build_dataset_per_segment(sentences, synthetic_intent: str | None = None) -> Dataset:
    """The reference grouping: templates keyed on their segments, each
    (label, surface) pair added to the lexicon on its own. The templates of
    the returned dataset are (segments, source count) pairs."""
    sentences = list(sentences)
    if not sentences:
        raise EmptyDatasetError("empty dataset")

    lexicon = EntityLexicon()
    by_intent: dict[str, dict[tuple, int]] = {}
    for index, sentence in enumerate(sentences):
        intent = sentence.intent if sentence.intent is not None else synthetic_intent
        if intent is None:
            raise CorpusValidationError(
                "sentence has no intent and no synthetic intent was supplied",
                index,
                0,
            )
        segments, pairs = abstract_entities_per_token(sentence)
        group = by_intent.setdefault(intent, {})
        group[segments] = group.get(segments, 0) + 1
        for label, surface in pairs:
            lexicon.add(label, surface)

    grouped = {intent: list(templates.items()) for intent, templates in by_intent.items()}
    return Dataset(sentences=sentences, by_intent=grouped, lexicon=lexicon)
