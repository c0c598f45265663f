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
from typing import Iterable

from .errors import (
    CorpusParseError,
    CorpusValidationError,
    EastgenError,
    EmptyDatasetError,
    MissingLexiconError,
)

INTENT_HEADER = "# intent:"
FLOAT_MAX = sys.float_info.max


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
    """An entity-abstracted token sequence; identical templates merge by count.

    `labels` holds the slot labels of its entity spans in reading order and
    `phrases` the len(labels) + 1 literal gaps around them, each gap's
    tokens joined by single spaces; "" marks a gap without literals, which
    is unambiguous because a token is never empty.
    """

    labels: tuple[str, ...]
    phrases: tuple[str, ...]
    source_count: int = 1

    def __post_init__(self):
        if len(self.phrases) != len(self.labels) + 1:
            raise ValueError(
                f"{len(self.labels)} labels need {len(self.labels) + 1} phrases, "
                f"got {len(self.phrases)}"
            )
        if not is_count(self.source_count):
            raise ValueError(f"source_count {self.source_count!r} is not an integer >= 1")

    def render(self) -> str:
        """Human-readable form with ``<label>`` placeholders."""
        parts = [self.phrases[0]]
        for label, phrase in zip(self.labels, self.phrases[1:]):
            parts += (f"<{label}>", phrase)
        return " ".join(filter(None, parts))


@dataclass
class EntityLexicon:
    """Per-slot multiset of entity surface forms observed in training.

    Surface forms are space-joined token sequences; multi-token spans keep
    their internal spaces.
    """

    entries: dict[str, Counter[str]] = field(default_factory=dict)

    def add(self, label: str, surface: str, count: int = 1) -> None:
        self.entries.setdefault(label, Counter())[surface] += count

    def entry(self, label: str) -> dict[str, int]:
        """The {form: count} entry of `label`, checked as parse_lexicon checks
        a file's; MissingLexiconError when it is absent or empty."""
        if label in self.entries:
            check_lexicon_entry(label, self.entries[label])
        if not self.entries.get(label):
            raise MissingLexiconError(label)
        return self.entries[label]

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


def is_count(value) -> bool:
    """An int of at least 1 that is not a bool: a count or a size."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def check_lexicon_entry(label, forms) -> None:
    """Raise EastgenError unless `label` passes is_token and `forms` is a
    {form: count} dict of is_phrase forms, which re-parse as the tokens they
    hold, and is_count counts whose total is in the float range weighted draws use."""
    if not is_token(label):
        raise EastgenError(f"lexicon: malformed label {label!r}")
    if not isinstance(forms, dict):
        raise EastgenError(f"lexicon: {label!r}: expected an object of {{form: count}}")
    for form, count in forms.items():
        if not is_phrase(form):
            raise EastgenError(
                f"lexicon: {label!r} form {form!r}: not single-space-joined tokens"
            )
        if not is_count(count):
            raise EastgenError(
                f"lexicon: {label!r} form {form!r}: count {count!r} "
                "is not an integer >= 1"
            )
    if sum(forms.values()) > FLOAT_MAX:
        raise EastgenError(f"lexicon: {label!r}: counts total beyond the float range")


def json_fault(exc: ValueError | RecursionError) -> str:
    """Describe why json.loads failed: bad syntax, nesting too deep for the
    decoder, or an integer literal too long to convert."""
    if isinstance(exc, json.JSONDecodeError):
        return f"{exc.msg} (line {exc.lineno}, column {exc.colno})"
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    return str(exc)


def parse_lexicon(text: str) -> EntityLexicon:
    """Parse a lexicon document: a JSON object of {label: {form: count}},
    each of whose entries must pass check_lexicon_entry."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise EastgenError(f"lexicon: invalid document: {json_fault(exc)}") from exc
    if not isinstance(doc, dict):
        raise EastgenError("lexicon: expected an object of {label: {form: count}}")
    lexicon = EntityLexicon()
    for label, forms in doc.items():
        check_lexicon_entry(label, forms)
        for form, count in forms.items():
            lexicon.add(label, form, count)
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
    valid_tags: set[tuple[str, ...]] = set()  # iob_violations is asked once each

    def flush():
        sentence = AnnotatedSentence(tuple(tokens), tuple(tags), intent)
        if sentence.slots not in valid_tags:
            if iob_violations(sentence.slots):
                _check_sentence(sentence, len(sentences))
            valid_tags.add(sentence.slots)
        if intent is not None and not is_intent(intent):
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
    reading order; multi-token spans yield space-joined surface forms. A tag
    that iob_violations rejects, or a token that is_token rejects, is the
    CorpusValidationError parsing gives for sentence 0; a sentence with no
    tokens gives the empty template.
    """
    if iob_violations(sentence.slots) or not all(map(is_token, sentence.tokens)):
        _check_sentence(sentence, 0)
    pairs: list[tuple[str, str]] = []
    labels, phrases = _walk_spans(sentence.tokens, sentence.slots, pairs)
    return SentenceTemplate(labels, phrases), pairs


def _walk_spans(
    tokens, slots, pairs: list[tuple[str, str]]
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The span walk of abstract_entities over tags that iob_violations
    accepts. Appends the (label, surface) pairs to `pairs` and returns the
    template's labels and phrases."""
    labels: list[str] = []
    phrases: list[str] = []
    gap: list[str] = []
    label = None
    span: list[str] = []
    for token, tag in zip(tokens, slots):
        if tag != "O" and tag[:2] != "B-":  # I- continuation
            span.append(token)
            continue
        if label is not None:
            pairs.append((label, " ".join(span)))
            label, span = None, []
        if tag == "O":
            gap.append(token)
        else:
            label = tag[2:]
            labels.append(label)
            phrases.append(" ".join(gap))
            gap = []
            span.append(token)
    if label is not None:
        pairs.append((label, " ".join(span)))
    phrases.append(" ".join(gap))
    return tuple(labels), tuple(phrases)


def build_dataset(
    sentences: Iterable[AnnotatedSentence], synthetic_intent: str | None = None
) -> Dataset:
    """Group entity-abstracted templates by intent and collect the lexicon.

    Identical templates within an intent merge with their source counts
    summed. Sentences without an intent take `synthetic_intent` (for
    NER-style corpora); if none is supplied they are an error. A sentence
    that parse_records would reject, or a malformed synthetic intent, is the
    CorpusValidationError of the first sentence at fault.
    """
    sentences = list(sentences)
    if not sentences:
        raise EmptyDatasetError("empty dataset")

    pairs: list[tuple[str, str]] = []
    by_intent: dict[str, dict[tuple[tuple[str, ...], tuple[str, ...]], int]] = {}
    # of the sentences _check_sentence passed; one holding anything unseen is asked
    passed_tags: set[tuple[str, ...]] = set()
    passed_tokens: set[str] = set()
    shared: dict = {}  # equal strings, and equal tuples of them, share one object

    def share(strings: tuple[str, ...]) -> tuple[str, ...]:
        strings = tuple(shared.setdefault(s, s) for s in strings)
        return shared.setdefault(strings, strings)

    for index, sentence in enumerate(sentences):
        intent = sentence.intent if sentence.intent is not None else synthetic_intent
        if intent is None:
            raise CorpusValidationError(
                "sentence has no intent and no synthetic intent was supplied",
                index,
                0,
            )
        if sentence.slots not in passed_tags or not passed_tokens.issuperset(sentence.tokens):
            _check_sentence(sentence, index)
            passed_tags.add(sentence.slots)
            passed_tokens.update(sentence.tokens)
        key = _walk_spans(sentence.tokens, sentence.slots, pairs)
        group = by_intent.get(intent)
        if group is None:
            if not is_intent(intent):
                _check_sentence(sentence, index)  # raises for an intent of its own
                raise CorpusValidationError(
                    f"malformed synthetic intent {synthetic_intent!r}", index, 0
                )
            group = by_intent[intent] = {}
        count = group.get(key, 0)
        if not count:  # a new template keeps its strings and tuples: share them
            key = share(key[0]), share(key[1])
        group[key] = count + 1

    lexicon = EntityLexicon()
    for (label, surface), count in Counter(pairs).items():  # first-seen order
        lexicon.add(label, surface, count)
    grouped = {
        intent: [SentenceTemplate(*key, count) for key, count in templates.items()]
        for intent, templates in by_intent.items()
    }
    return Dataset(sentences=sentences, by_intent=grouped, lexicon=lexicon)
