"""Corpus ingestion: parse annotated sentences, abstract entities into templates.

Two input formats are supported. The column format is one ``token<ws>tag``
pair per line with blank-line sentence separators and an optional
``# intent: <label>`` header per sentence. The record format is one JSON
object per line with keys ``tokens``, ``slots`` and optional ``intent``.
Both carry slot annotations as IOB tags ("O", "B-<label>", "I-<label>").
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import (
    CorpusParseError,
    CorpusValidationError,
    EastgenError,
    EmptyDatasetError,
)

INTENT_HEADER = "# intent:"
FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class Literal:
    """A single surface token outside any entity span."""

    text: str


@dataclass(frozen=True)
class Placeholder:
    """One entity span, abstracted to its slot label."""

    label: str


Segment = Literal | Placeholder


@dataclass(frozen=True)
class AnnotatedSentence:
    """A tokenized utterance with aligned IOB slot tags and an optional intent."""

    tokens: tuple[str, ...]
    slots: tuple[str, ...]
    intent: str | None = None

    def __post_init__(self):
        if len(self.tokens) != len(self.slots):
            raise CorpusValidationError(
                f"{len(self.tokens)} tokens vs {len(self.slots)} slot tags",
                sentence=0,
                position=0,
            )


@dataclass(frozen=True)
class SentenceTemplate:
    """An entity-abstracted token sequence; identical templates merge by count."""

    segments: tuple[Segment, ...]
    source_count: int = 1

    def placeholder_labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.segments if isinstance(s, Placeholder))

    def render(self) -> str:
        """Human-readable form with ``<label>`` placeholders."""
        parts = [
            s.text if isinstance(s, Literal) else f"<{s.label}>" for s in self.segments
        ]
        return " ".join(parts)


@dataclass
class EntityLexicon:
    """Per-slot multiset of entity surface forms observed in training.

    Surface forms are space-joined token sequences; multi-token spans keep
    their internal spaces.
    """

    entries: dict[str, Counter[str]] = field(default_factory=dict)

    def add(self, label: str, surface: str, count: int = 1) -> None:
        self.entries.setdefault(label, Counter())[surface] += count

    def forms(self, label: str) -> list[str]:
        """Distinct surface forms for a slot, in first-observed order."""
        return list(self.entries.get(label, ()))

    def labels(self) -> list[str]:
        return list(self.entries)


def is_token(text) -> bool:
    """A token or slot label: one non-empty string free of whitespace."""
    return isinstance(text, str) and text.split() == [text]


def is_phrase(text) -> bool:
    """Tokens (see is_token) joined by single spaces: a lexicon form or fixed phrase."""
    return isinstance(text, str) and text.split(" ") == text.split()


def is_intent(text) -> bool:
    """A non-empty string with no line break and no surrounding whitespace."""
    return isinstance(text, str) and text.strip().splitlines() == [text]


def json_fault(exc: ValueError | RecursionError) -> str:
    """Describe why json.loads failed: bad syntax, nesting too deep for the
    decoder, or an integer literal too long to convert."""
    if isinstance(exc, json.JSONDecodeError):
        return f"{exc.msg} (line {exc.lineno}, column {exc.colno})"
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    return str(exc)


def parse_lexicon(text: str) -> EntityLexicon:
    """Parse a lexicon document: a JSON object of {label: {form: count}}.

    Labels must pass is_token, forms is_phrase, and counts be integers of
    at least 1, so that every form emitted from the lexicon re-parses as the
    tokens it holds.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise EastgenError(f"lexicon: invalid document: {json_fault(exc)}") from exc
    if not isinstance(doc, dict):
        raise EastgenError("lexicon: expected an object of {label: {form: count}}")
    lexicon = EntityLexicon()
    for label, forms in doc.items():
        if not is_token(label):
            raise EastgenError(f"lexicon: malformed label {label!r}")
        if not isinstance(forms, dict):
            raise EastgenError(f"lexicon: {label!r}: expected an object of {{form: count}}")
        for form, count in forms.items():
            if not is_phrase(form):
                raise EastgenError(
                    f"lexicon: {label!r} form {form!r}: not single-space-joined tokens"
                )
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise EastgenError(
                    f"lexicon: {label!r} form {form!r}: count {count!r} "
                    "is not an integer >= 1"
                )
            lexicon.add(label, form, count)
        if sum(forms.values()) > FLOAT_MAX:  # weighted draws use the float total
            raise EastgenError(f"lexicon: {label!r}: counts total beyond the float range")
    return lexicon


@dataclass
class Dataset:
    """Parsed corpus: raw sentences plus per-intent template groups and lexicon."""

    sentences: list[AnnotatedSentence]
    by_intent: dict[str, list[SentenceTemplate]]
    lexicon: EntityLexicon

    def intent_counts(self) -> dict[str, int]:
        return {
            intent: sum(t.source_count for t in templates)
            for intent, templates in self.by_intent.items()
        }


def iob_violations(slots: Iterable[str]) -> list[tuple[int, str]]:
    """Return (position, message) pairs for every broken IOB constraint.

    A tag is "O", "B-<label>" or "I-<label>" with a label that passes is_token.
    """
    violations = []
    prev_label = None  # label of the span continuing into this position, if any
    for i, tag in enumerate(slots):
        if tag == "O":
            prev_label = None
        elif tag.startswith("B-") and is_token(tag[2:]):
            prev_label = tag[2:]
        elif tag.startswith("I-") and is_token(tag[2:]):
            label = tag[2:]
            if prev_label != label:
                violations.append((i, f"I-{label} does not continue a {label} span"))
            prev_label = label
        else:
            violations.append((i, f"malformed slot tag {tag!r}"))
            prev_label = None
    return violations


def _check_sentence(sentence: AnnotatedSentence, index: int) -> None:
    if not sentence.tokens:
        raise CorpusValidationError("sentence has no tokens", index, 0)
    if sentence.intent is not None and not is_intent(sentence.intent):
        raise CorpusValidationError(f"malformed intent {sentence.intent!r}", index, 0)
    for i, token in enumerate(sentence.tokens):
        # tokens must survive space-joining in phrases, lexica and emitted files
        if not is_token(token):
            raise CorpusValidationError(
                f"empty or whitespace-containing token {token!r}", index, i
            )
    for position, message in iob_violations(sentence.slots):
        raise CorpusValidationError(message, index, position)


def parse_conll(text: str) -> list[AnnotatedSentence]:
    """Parse column-format text into validated sentences.

    Raises CorpusParseError for malformed lines and CorpusValidationError
    for illegal IOB transitions. A header names the intent of the sentence
    right below it; one followed by a blank line is ignored, and one after a
    token line or another header is a CorpusParseError.
    """
    lines = text.splitlines()
    sentences: list[AnnotatedSentence] = []
    tokens: list[str] = []
    tags: list[str] = []
    intent: str | None = None
    plain: set[str] = {"O"}  # valid O and B- tags seen so far
    begins: dict[str, str] = {}  # valid I- tags seen so far -> their B- tag

    def flush():
        sentence = AnnotatedSentence(tuple(tokens), tuple(tags), intent)
        if not _tags_valid(sentence.slots, plain, begins) or (
            intent is not None and not is_intent(intent)
        ):
            _check_sentence(sentence, len(sentences))
        sentences.append(sentence)
        tokens.clear()
        tags.clear()

    # str.split fields are non-empty and free of whitespace: each passes is_token
    for lineno, fields in enumerate(map(str.split, lines), start=1):
        if not fields:
            if tokens:
                flush()
            intent = None
        elif fields[0] == "#" and (line := lines[lineno - 1].strip()).startswith(
            INTENT_HEADER
        ):
            if tokens or intent is not None:
                where = "a token line" if tokens else "another intent header"
                raise CorpusParseError(f"intent header after {where}", lineno)
            intent = line[len(INTENT_HEADER):].strip()
        elif len(fields) != 2:
            raise CorpusParseError(
                f"expected 'token tag', got {len(fields)} fields: "
                f"{lines[lineno - 1].strip()!r}",
                lineno,
            )
        else:
            tokens.append(fields[0])
            tags.append(fields[1])
    if tokens:
        flush()
    return sentences


def _tags_valid(tags: tuple[str, ...], plain: set[str], begins: dict[str, str]) -> bool:
    """Whether iob_violations(tags) is empty; judges each tag once per pair of
    `plain` and `begins`, which it extends."""
    distinct = set(tags)
    if distinct <= plain:
        return True
    for tag in distinct.difference(plain, begins):
        label = tag[2:]
        if tag[:2] == "B-" and is_token(label):
            plain.add(tag)
        elif tag[:2] == "I-" and is_token(label):
            begins[tag] = "B-" + label
        else:
            return False
    prev = "O"
    for tag in tags:  # an I- tag continues its own or its B- tag
        if tag in begins and prev != tag and prev != begins[tag]:
            return False
        prev = tag
    return True


def parse_records(text: str) -> list[AnnotatedSentence]:
    """Parse record-format text (one JSON object per line) into sentences."""
    sentences: list[AnnotatedSentence] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise CorpusParseError(f"invalid record: {json_fault(exc)}", lineno) from exc
        if not isinstance(record, dict):
            raise CorpusParseError("record is not an object", lineno)
        unknown = set(record) - {"tokens", "slots", "intent"}
        if unknown:
            raise CorpusParseError(f"unknown fields {sorted(unknown)}", lineno)
        try:
            tokens = record["tokens"]
            slots = record["slots"]
        except KeyError as exc:
            raise CorpusParseError(f"missing field {exc.args[0]!r}", lineno) from exc
        if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
            raise CorpusParseError("'tokens' must be an array of strings", lineno)
        if not isinstance(slots, list) or not all(isinstance(s, str) for s in slots):
            raise CorpusParseError("'slots' must be an array of strings", lineno)
        if len(tokens) != len(slots):
            raise CorpusParseError(
                f"{len(tokens)} tokens vs {len(slots)} slot tags", lineno
            )
        intent = record.get("intent")
        if intent is not None and not isinstance(intent, str):
            raise CorpusParseError("'intent' must be a string", lineno)
        sentence = AnnotatedSentence(tuple(tokens), tuple(slots), intent)
        _check_sentence(sentence, len(sentences))
        sentences.append(sentence)
    return sentences


def abstract_entities(
    sentence: AnnotatedSentence,
) -> tuple[SentenceTemplate, list[tuple[str, str]]]:
    """Replace each maximal entity span with a placeholder for its label.

    Returns the template and the extracted (label, surface form) pairs in
    reading order; multi-token spans yield space-joined surface forms. An
    I- tag that continues no span of its label, or a tag that is neither
    "O" nor B- nor I-, is a CorpusValidationError for sentence 0.
    """
    pairs: list[tuple[str, str]] = []
    parts = _walk_spans(sentence.tokens, sentence.slots, pairs)
    if parts is None:
        _check_sentence(sentence, 0)
    return SentenceTemplate(_segments(parts, {}, {})), pairs


def _walk_spans(tokens, slots, pairs: list[tuple[str, str]]) -> list[str] | None:
    """The span walk of abstract_entities. Appends the (label, surface) pairs
    to `pairs` and returns the template as plain strings: "O" and the text
    for a literal, the B- tag for a placeholder; or None at a tag that is
    not "O", a B- tag or an I- tag of the open span."""
    parts: list[str] = []
    label = None
    span: list[str] = []
    for token, tag in zip(tokens, slots):
        if tag != "O" and tag[:2] != "B-":  # I- continuation
            if tag[2:] != label or tag[:2] != "I-":
                return None
            span.append(token)
            continue
        if label is not None:
            pairs.append((label, " ".join(span)))
            label, span = None, []
        if tag == "O":
            parts.append("O")
            parts.append(token)
        else:
            label = tag[2:]
            parts.append(tag)
            span.append(token)
    if label is not None:
        pairs.append((label, " ".join(span)))
    return parts


def _segments(
    parts, literals: dict[str, Literal], placeholders: dict[str, Placeholder]
) -> tuple[Segment, ...]:
    """Segments of a template from _walk_spans; the dicts hold the Literal
    and Placeholder made so far, by text and by tag, for reuse."""
    segments: list[Segment] = []
    texts = iter(parts)
    for part in texts:
        if part == "O":
            text = next(texts)
            if text not in literals:
                literals[text] = Literal(text)
            segments.append(literals[text])
        else:
            if part not in placeholders:
                placeholders[part] = Placeholder(part[2:])
            segments.append(placeholders[part])
    return tuple(segments)


def reinsert_entities(
    template: SentenceTemplate, pairs: list[tuple[str, str]]
) -> tuple[str, ...]:
    """Inverse of abstract_entities: fill placeholders with surfaces in order."""
    tokens: list[str] = []
    it: Iterator[tuple[str, str]] = iter(pairs)
    for segment in template.segments:
        if isinstance(segment, Literal):
            tokens.append(segment.text)
        else:
            label, surface = next(it)
            if label != segment.label:
                raise ValueError(f"pair label {label!r} != placeholder {segment.label!r}")
            tokens.extend(surface.split(" "))
    return tuple(tokens)


def build_dataset(
    sentences: Iterable[AnnotatedSentence], synthetic_intent: str | None = None
) -> Dataset:
    """Group entity-abstracted templates by intent and collect the lexicon.

    Identical templates within an intent merge with their source counts
    summed. Sentences without an intent take `synthetic_intent` (for
    NER-style corpora); if none is supplied they are an error, as is a tag
    that abstract_entities rejects.
    """
    sentences = list(sentences)
    if not sentences:
        raise EmptyDatasetError("empty dataset")

    pairs: list[tuple[str, str]] = []
    by_intent: dict[str, dict[tuple[str, ...], int]] = {}
    for index, sentence in enumerate(sentences):
        intent = sentence.intent if sentence.intent is not None else synthetic_intent
        if intent is None:
            raise CorpusValidationError(
                "sentence has no intent and no synthetic intent was supplied",
                index,
                0,
            )
        parts = _walk_spans(sentence.tokens, sentence.slots, pairs)
        if parts is None:
            _check_sentence(sentence, index)
        key = tuple(parts)
        group = by_intent.setdefault(intent, {})
        group[key] = group.get(key, 0) + 1

    lexicon = EntityLexicon()
    for (label, surface), count in Counter(pairs).items():  # first-seen order
        lexicon.add(label, surface, count)
    literals: dict[str, Literal] = {}
    placeholders: dict[str, Placeholder] = {}
    grouped = {
        intent: [
            SentenceTemplate(_segments(key, literals, placeholders), count)
            for key, count in templates.items()
        ]
        for intent, templates in by_intent.items()
    }
    return Dataset(sentences=sentences, by_intent=grouped, lexicon=lexicon)
