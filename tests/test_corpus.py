import json

import pytest
from hypothesis import given, settings, strategies as st

from eastgen import (
    AnnotatedSentence,
    East,
    EntityLexicon,
    GenerationConfig,
    SentenceTemplate,
    abstract_entities,
    build_dataset,
    entity,
    export_regex,
    fixed,
    generate_batch,
    order,
    parse_conll,
    parse_lexicon,
    parse_records,
)
from eastgen.corpus import (
    iob_violations,
    is_intent,
    is_phrase,
    is_token,
)
from eastgen import corpus
from eastgen.errors import (
    CorpusParseError,
    CorpusValidationError,
    EastgenError,
    EmptyDatasetError,
)

from conftest import WEATHER_CONLL
from helpers import (
    Literal,
    Placeholder,
    abstract_entities_per_token,
    build_dataset_per_segment,
    parse_conll_per_line,
    reinsert_entities,
    render,
    segments_of,
)


class TestParseConll:
    def test_weather_sentence(self):
        sentences = parse_conll(WEATHER_CONLL)
        assert len(sentences) == 1
        s = sentences[0]
        assert s.tokens == ("How's", "the", "weather", "in", "Beijing", "today")
        assert s.slots == ("O", "O", "O", "O", "B-LOC", "B-DATE")
        assert s.intent == "Ask weather"

    def test_empty_input(self):
        assert parse_conll("") == []
        assert parse_conll("\n\n\n") == []

    def test_space_separated_fields(self):
        sentences = parse_conll("hi O\nthere O\n")
        assert sentences[0].tokens == ("hi", "there")

    def test_missing_intent_is_none(self):
        assert parse_conll("hi\tO\n")[0].intent is None

    def test_wrong_field_count_reports_line(self):
        with pytest.raises(CorpusParseError) as err:
            parse_conll("hi\tO\nbad line here now\n")
        assert err.value.line == 2

    def test_leading_i_tag_rejected(self):
        with pytest.raises(CorpusValidationError):
            parse_conll("Beijing\tI-LOC\n")

    def test_broken_span_continuation_rejected(self):
        with pytest.raises(CorpusValidationError):
            parse_conll("a\tB-LOC\nb\tI-DATE\n")

    def test_malformed_tag_rejected(self):
        with pytest.raises(CorpusValidationError):
            parse_conll("a\tLOC\n")

    def test_field_count_error_comes_before_the_sentence_check(self):
        with pytest.raises(CorpusParseError) as err:
            parse_conll("a\tLOC\nb c d\n")
        assert err.value.line == 2

    def test_hash_token_and_headers_without_the_space(self):
        assert parse_conll("#\tO\n")[0].tokens == ("#",)
        assert parse_conll("# intent:x\na O\n")[0].intent == "x"
        with pytest.raises(CorpusParseError, match="got 1 fields"):
            parse_conll("#intent:x\na O\n")

    def test_each_distinct_tag_is_checked_once(self, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return is_token(text)

        monkeypatch.setattr(corpus, "is_token", counting)
        text = "".join(f"a O\nb B-x\nc I-x\nd B-y\n\n" for _ in range(50))
        assert len(parse_conll(text)) == 50
        assert sorted(calls) == ["x", "x", "y"]  # B-x, I-x, B-y


class TestIntentHeader:
    """A header names the intent of the sentence right below it."""

    def test_header_after_a_token_line_rejected(self):
        with pytest.raises(CorpusParseError, match="after a token line") as err:
            parse_conll("a O\n# intent: x\nb O\n")
        assert err.value.line == 2

    def test_header_after_a_header_rejected(self):
        with pytest.raises(CorpusParseError, match="after another intent header") as err:
            parse_conll("# intent: a\n# intent: b\nx O\n")
        assert err.value.line == 2

    def test_blank_line_drops_a_pending_header(self):
        assert parse_conll("# intent: a\n\nx O\n") == [
            AnnotatedSentence(("x",), ("O",), None)
        ]

    @pytest.mark.parametrize(
        "text", ["# intent: a\n\n# intent: b\nx O\n", "# intent:\n \n# intent: b\nx O"]
    )
    def test_header_before_a_blank_line_is_ignored(self, text):
        assert parse_conll(text) == [AnnotatedSentence(("x",), ("O",), "b")]

    def test_header_at_the_end_is_ignored(self):
        assert parse_conll("x O\n\n# intent: a\n") == [AnnotatedSentence(("x",), ("O",))]

    def test_empty_intent_of_a_sentence_rejected(self):
        with pytest.raises(CorpusValidationError, match="malformed intent"):
            parse_conll("# intent:\nx O\n")


class TestParseRecords:
    def test_minimal_record(self):
        sentences = parse_records('{"tokens":["hi"],"slots":["O"],"intent":"Chitchat"}')
        assert sentences == [AnnotatedSentence(("hi",), ("O",), "Chitchat")]

    def test_length_mismatch(self):
        with pytest.raises(CorpusParseError) as err:
            parse_records('{"tokens":["a","b"],"slots":["O"]}')
        assert err.value.line == 1

    def test_two_lines_preserve_order(self):
        text = (
            '{"tokens":["a"],"slots":["O"],"intent":"x"}\n'
            '{"tokens":["b"],"slots":["O"],"intent":"y"}\n'
        )
        sentences = parse_records(text)
        assert [s.tokens[0] for s in sentences] == ["a", "b"]

    def test_unknown_field_rejected(self):
        with pytest.raises(CorpusParseError):
            parse_records('{"tokens":["a"],"slots":["O"],"extra":1}')

    def test_bad_json_reports_line(self):
        with pytest.raises(CorpusParseError) as err:
            parse_records('{"tokens":["a"],"slots":["O"]}\nnot json')
        assert err.value.line == 2

    def test_zero_token_sentence_rejected(self):
        with pytest.raises(CorpusValidationError):
            parse_records('{"tokens":[],"slots":[]}')

    def test_whitespace_token_rejected(self):
        with pytest.raises(CorpusValidationError):
            parse_records('{"tokens":["a b"],"slots":["O"]}')


class TestTextRule:
    """What a corpus can carry: every token, label, phrase and intent must come
    back unchanged after it is written to a conll or records file."""

    @pytest.mark.parametrize(
        "text, token, phrase",
        [
            ("a", True, True),
            ("new york", False, True),
            ("", False, False),
            ("a  b", False, False),
            (" a", False, False),
            ("a\tb", False, False),
            ("a\nb", False, False),
            ("a\u00a0b", False, False),
            (3, False, False),
        ],
    )
    def test_token_and_phrase(self, text, token, phrase):
        assert is_token(text) is token
        assert is_phrase(text) is phrase

    @pytest.mark.parametrize(
        "text, ok",
        [("Ask weather", True), ("x", True), ("", False), ("x\ny", False),
         ("x\r", False), ("x\x1cy", False), (" x", False), ("x\t", False)],
    )
    def test_intent(self, text, ok):
        assert is_intent(text) is ok

    @pytest.mark.parametrize(
        "slots",
        [["B-city name", "O"], ["B-city\tname", "O"], ["B-city", "I-city name"]],
    )
    def test_records_label_with_whitespace_rejected(self, slots):
        record = {"tokens": ["a", "b"], "slots": slots, "intent": "x"}
        with pytest.raises(CorpusValidationError, match="malformed slot tag"):
            parse_records(json.dumps(record))

    @pytest.mark.parametrize("intent", ["x\ny", "x\u2028y", " x", "x\r", ""])
    def test_records_intent_with_line_break_or_surrounding_space_rejected(self, intent):
        record = {"tokens": ["a"], "slots": ["O"], "intent": intent}
        with pytest.raises(CorpusValidationError, match="malformed intent"):
            parse_records(json.dumps(record))


class TestAbstractEntities:
    def test_airline_sentence(self, airline_dataset):
        sentence = airline_dataset.sentences[0]
        template, pairs = abstract_entities(sentence)
        assert template.render() == (
            "which airlines have <flight_days> flights from <city_name> "
            "to <city_name> on <month_name> <day_number>"
        )
        assert pairs == [
            ("flight_days", "daily"),
            ("city_name", "denver"),
            ("city_name", "san francisco"),
            ("month_name", "April"),
            ("day_number", "1st"),
        ]

    def test_all_outside(self):
        template, pairs = abstract_entities(
            AnnotatedSentence(("just", "words"), ("O", "O"))
        )
        assert segments_of(template) == (Literal("just"), Literal("words"))
        assert pairs == []

    def test_single_span_sentence(self):
        template, pairs = abstract_entities(
            AnnotatedSentence(("new", "york"), ("B-LOC", "I-LOC"))
        )
        assert segments_of(template) == (Placeholder("LOC"),)
        assert pairs == [("LOC", "new york")]

    def test_adjacent_spans_stay_separate(self):
        template, pairs = abstract_entities(
            AnnotatedSentence(("April", "1st"), ("B-month", "B-day"))
        )
        assert segments_of(template) == (Placeholder("month"), Placeholder("day"))
        assert [p[0] for p in pairs] == ["month", "day"]


class TestSentenceTemplate:
    @pytest.mark.parametrize("labels, phrases", [
        ((), ()), (("x",), ("a",)), ((), ("a", "b")), (("x", "y"), ("", "")),
    ])
    def test_phrases_must_surround_the_labels(self, labels, phrases):
        """A template of the wrong shape would be cut short by the builder."""
        with pytest.raises(ValueError, match="phrases"):
            SentenceTemplate(labels, phrases)

    @pytest.mark.parametrize("count", [0, -1, 1.5, True])
    def test_source_count_must_be_an_int_of_at_least_1(self, count):
        """build divides by a group's summed counts: 0 ended there in
        ZeroDivisionError, and 1.5 in TypeError."""
        with pytest.raises(ValueError, match="source_count"):
            SentenceTemplate(("a",), ("go", ""), count)

    def test_render_skips_empty_phrases(self):
        template = SentenceTemplate(("x", "y"), ("go to", "", "now"))
        assert template.render() == "go to <x> <y> now"
        assert SentenceTemplate((), ("",)).render() == ""


class TestLexiconEntry:
    """One rule for a {label: {form: count}} entry, in a lexicon file or
    built in code."""

    @pytest.mark.parametrize("label, forms, message", [
        ("a b", {"x": 1}, "lexicon: malformed label 'a b'"),
        ("city", ["x"], "lexicon: 'city': expected an object of {form: count}"),
        ("city", {"x": 1, "": 1}, "lexicon: 'city' form '': not single-space-joined tokens"),
        ("city", {"a  b": 1}, "lexicon: 'city' form 'a  b': not single-space-joined tokens"),
        ("city", {"x": 0}, "lexicon: 'city' form 'x': count 0 is not an integer >= 1"),
        ("city", {"x": True}, "lexicon: 'city' form 'x': count True is not an integer >= 1"),
        ("city", {"x": 1.5}, "lexicon: 'city' form 'x': count 1.5 is not an integer >= 1"),
    ])
    def test_parse_lexicon_names_the_fault(self, label, forms, message):
        with pytest.raises(EastgenError) as err:
            parse_lexicon(json.dumps({label: forms}))
        assert str(err.value) == message

    @pytest.mark.parametrize("forms, message", [
        ({"oslo": 1, "": 1, "a  b": 1}, "form '': not single-space-joined tokens"),
        ({"oslo": 1, "a  b": 1}, "form 'a  b': not single-space-joined tokens"),
        ({"oslo": 0, "rome": 0}, "form 'oslo': count 0 is not an integer >= 1"),
        ({"oslo": 1.5}, "form 'oslo': count 1.5 is not an integer >= 1"),
    ])
    def test_sampling_and_export_check_a_lexicon_built_in_code(self, forms, message):
        """The forms '' and 'a  b' were sampled and written as the lines
        '\tB-city' and '\tI-city', which parse_conll rejects; with counts of
        0, every weighted draw took the last form."""
        lexicon = EntityLexicon()
        for form, count in forms.items():
            lexicon.add("city", form, count)
        tree = East("x", order(fixed({"to": 1}), entity("city")))
        config = GenerationConfig(seed=1, count=5, use_embeddings=False,
                                  weighted_lexicon=True)
        for use in (lambda: generate_batch({"x": tree}, None, config, lexicon=lexicon),
                    lambda: export_regex(tree, lexicon)):
            with pytest.raises(EastgenError) as err:
                use()
            assert str(err.value) == "lexicon: 'city' " + message


class TestBuildDataset:
    def test_airline_grouping(self, airline_dataset):
        assert list(airline_dataset.by_intent) == ["airline"]
        assert len(airline_dataset.by_intent["airline"]) == 3
        cities = airline_dataset.lexicon.forms("city_name")
        assert cities == [
            "denver",
            "san francisco",
            "boston",
            "dallas",
            "Beijing",
            "Shanghai",
        ]

    def test_identical_sentences_merge(self):
        s = AnnotatedSentence(("hi",), ("O",), "greet")
        dataset = build_dataset([s, s])
        (template,) = dataset.by_intent["greet"]
        assert template.source_count == 2

    def test_empty_input(self):
        with pytest.raises(EmptyDatasetError):
            build_dataset([])

    def test_missing_intent_without_synthetic(self):
        with pytest.raises(CorpusValidationError):
            build_dataset([AnnotatedSentence(("hi",), ("O",))])

    @pytest.mark.parametrize("sentence, message", [
        # once read as the template "b <y>" and the lexicon form y: "a c"
        (AnnotatedSentence(("a", "b", "c"), ("I-x", "O", "B-y"), "i"),
         "token 0: I-x does not continue a x span"),
        # once read as the template "a", dropping the token "b"
        (AnnotatedSentence(("a", "b"), ("O", "X"), "i"), "token 1: malformed slot tag 'X'"),
        # once read as the lexicon {"": {"x": 1}} and {"": {"x y": 1}}
        (AnnotatedSentence(("x", "y"), ("B-", "O"), "i"), "token 0: malformed slot tag 'B-'"),
        (AnnotatedSentence(("x", "y"), ("B-", "I-"), "i"), "token 0: malformed slot tag 'B-'"),
        # once a phrase that emits two tokens, and the lexicon form x: ''
        (AnnotatedSentence(("a b",), ("O",), "i"),
         "token 0: empty or whitespace-containing token 'a b'"),
        (AnnotatedSentence(("",), ("B-x",), "i"),
         "token 0: empty or whitespace-containing token ''"),
        (AnnotatedSentence(("a\tb",), ("O",), "i"),
         "token 0: empty or whitespace-containing token 'a\\tb'"),
    ], ids=["stray-inside-tag", "not-a-tag", "empty-label", "empty-label-span",
            "spaced-token", "empty-token", "tabbed-token"])
    def test_tags_a_corpus_could_not_hold_are_rejected(self, sentence, message):
        with pytest.raises(CorpusValidationError) as err:
            abstract_entities(sentence)
        assert str(err.value) == f"sentence 0, {message}"
        fine = AnnotatedSentence(("hi",), ("O",), "i")
        with pytest.raises(CorpusValidationError) as err:
            build_dataset([fine, sentence])
        assert str(err.value) == f"sentence 1, {message}"

    def test_a_sentence_with_no_tokens_is_rejected_but_abstracts(self):
        """Once accepted here, to fail later as `root: control node has no
        children`; abstracting it alone still gives the empty template."""
        empty = AnnotatedSentence((), (), "i")
        fine = AnnotatedSentence(("hi",), ("O",), "i")
        with pytest.raises(CorpusValidationError) as err:
            build_dataset([fine, empty])
        assert str(err.value) == "sentence 1, token 0: sentence has no tokens"
        assert abstract_entities(empty) == (SentenceTemplate((), ("",)), [])

    @pytest.mark.parametrize("intent, synthetic_intent, message", [
        ("a\nb", None, "malformed intent 'a\\nb'"),
        (None, " x", "malformed synthetic intent ' x'"),
    ], ids=["own", "synthetic"])
    def test_malformed_intent_rejected(self, intent, synthetic_intent, message):
        """Once accepted here, to fail later as a tree root's error."""
        sentences = [AnnotatedSentence(("hi",), ("O",), "i"),
                     AnnotatedSentence(("x",), ("O",), intent)]
        with pytest.raises(CorpusValidationError) as err:
            build_dataset(sentences, synthetic_intent)
        assert str(err.value) == f"sentence 1, token 0: {message}"

    def test_synthetic_intent_for_ner_corpus(self):
        # five hand-tagged sentences; expected templates written out by hand
        text = "\n\n".join(
            [
                "EU\tB-ORG\nrejects\tO\nGerman\tB-MISC\ncall\tO",
                "Peter\tB-PER\nBlackburn\tI-PER",
                "BRUSSELS\tB-LOC",
                "The\tO\ncommission\tO\nsaid\tO",
                "Germany\tB-LOC\nimported\tO\nbeef\tO",
            ]
        )
        dataset = build_dataset(parse_conll(text), synthetic_intent="ALL")
        assert list(dataset.by_intent) == ["ALL"]
        rendered = [t.render() for t in dataset.by_intent["ALL"]]
        assert rendered == [
            "<ORG> rejects <MISC> call",
            "<PER>",
            "<LOC>",
            "The commission said",
            "<LOC> imported beef",
        ]
        assert dataset.lexicon.forms("PER") == ["Peter Blackburn"]
        assert dataset.lexicon.forms("LOC") == ["BRUSSELS", "Germany"]

    def test_source_counts_sum_to_sentence_counts(self, airline_dataset):
        counts = airline_dataset.intent_counts()
        assert counts == {"airline": 3}


# --- properties --------------------------------------------------------------

_LABELS = ("X", "Y")


@st.composite
def annotated_sentences(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    tokens = tuple(
        draw(st.sampled_from(("go", "to", "the", "red", "fox"))) for _ in range(n)
    )
    tags = []
    open_label = None
    for _ in range(n):
        options = ["O"] + [f"B-{l}" for l in _LABELS]
        if open_label:
            options.append(f"I-{open_label}")
        tag = draw(st.sampled_from(options))
        open_label = tag[2:] if tag != "O" else None
        tags.append(tag)
    intent = draw(st.sampled_from(("a", "b")))
    return AnnotatedSentence(tokens, tuple(tags), intent)


@given(annotated_sentences())
def test_reinsertion_round_trip(sentence):
    template, pairs = abstract_entities(sentence)
    assert reinsert_entities(segments_of(template), pairs) == sentence.tokens


@given(annotated_sentences())
def test_placeholder_count_equals_begin_tags(sentence):
    template, _ = abstract_entities(sentence)
    assert len(template.labels) == sum(1 for t in sentence.slots if t.startswith("B-"))


@given(st.lists(annotated_sentences(), min_size=1, max_size=8), st.randoms())
def test_build_dataset_permutation_insensitive(sentences, rng):
    shuffled = list(sentences)
    rng.shuffle(shuffled)

    def key(dataset):
        return sorted(
            (intent, t.labels, t.phrases, t.source_count)
            for intent, templates in dataset.by_intent.items()
            for t in templates
        ), sorted(
            (label, form, count)
            for label, counter in dataset.lexicon.entries.items()
            for form, count in counter.items()
        )

    assert key(build_dataset(sentences)) == key(build_dataset(shuffled))


@given(st.lists(annotated_sentences(), min_size=1, max_size=8))
def test_templates_match_the_per_token_walk(sentences):
    expected: dict[str, dict] = {}  # distinct segments per intent, first seen first
    for sentence in sentences:
        segments, _ = abstract_entities_per_token(sentence)
        expected.setdefault(sentence.intent, {})[segments] = None
    built = build_dataset(sentences).by_intent
    assert list(built) == list(expected)
    for intent, templates in built.items():
        assert [segments_of(t) for t in templates] == list(expected[intent])
        assert [t.render() for t in templates] == list(map(render, expected[intent]))


@given(annotated_sentences())
def test_iob_violations_empty_for_valid(sentence):
    assert iob_violations(sentence.slots) == []


# --- the parser and grouping against their per-line references ----------------

_TOKENS = st.sampled_from(["a", "b", "#", "é"])
_SEPARATORS = st.sampled_from(["\t", " ", "  ", "\u00a0"])
_BLANKS = st.sampled_from(["", "", " ", "\t", "\x1f"])
_HEADERS = st.sampled_from(
    ["# intent: r1", "# intent: r2", "# intent:", "# intent: a  b", "#intent:x",
     "# intent:x", "  # intent: r1 ", "#  intent: r1"]
)
_ANY_LINES = st.one_of(  # any of them can break a sentence
    st.builds(
        "{}{}{}{}".format, _TOKENS, _SEPARATORS,
        st.sampled_from(["O", "B-x", "I-x", "B-", "I-y", "b-x"]),
        st.sampled_from(["", "\tO", " B-x"]),
    ),
    st.sampled_from(["a", "B-x", "a O O", " a\tO ", "# O"]),
    _BLANKS,
    _HEADERS,
)


@st.composite
def conll_texts(draw):
    """Sentences (an optional header, token lines with sound IOB tags, blank
    lines), then up to two lines of any kind put anywhere; each line ends in
    a line break of its own."""
    lines: list[str] = []
    for _ in range(draw(st.integers(0, 6))):
        lines += draw(st.lists(_HEADERS, max_size=1))
        label = None
        for _ in range(draw(st.integers(0, 5))):
            tag = draw(st.sampled_from(["O", "B-x", "B-y"] + [f"I-{label}"] * 2 * bool(label)))
            label = tag[2:] or None
            lines.append(draw(_TOKENS) + draw(_SEPARATORS) + tag)
        lines += draw(st.lists(_BLANKS, min_size=1, max_size=2))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_ANY_LINES))
    breaks = st.sampled_from(["\n", "\n", "\n", "\r\n", "\x0c", "\u2028"])
    return "".join(line + draw(breaks) for line in lines)


def outcome(function, *args):
    """What a call gives: ("ok", result) or ("raised", class, message)."""
    try:
        return "ok", function(*args)
    except EastgenError as exc:
        return "raised", type(exc), str(exc)


def dataset_in_order(dataset, as_pair=lambda t: (segments_of(t), t.source_count)):
    """Sentences, templates as (segments, source count) pairs by intent, and
    lexicon, in order; `as_pair` turns a template of the dataset into its pair
    (build_dataset_per_segment's templates are such pairs already)."""
    return (
        dataset.sentences,
        [(intent, list(map(as_pair, templates)))
         for intent, templates in dataset.by_intent.items()],
        [(label, list(forms.items())) for label, forms in dataset.lexicon.entries.items()],
    )


@settings(max_examples=400, deadline=None)
@given(conll_texts(), st.sampled_from([None, "ALL"]))
def test_ingestion_matches_the_per_line_reference(text, synthetic_intent):
    parsed = outcome(parse_conll, text)
    assert parsed == outcome(parse_conll_per_line, text)
    if parsed[0] != "ok":
        return
    sentences = parsed[1]
    for sentence in sentences:
        template, pairs = abstract_entities(sentence)
        assert (segments_of(template), pairs) == abstract_entities_per_token(sentence)
    built = outcome(build_dataset, sentences, synthetic_intent)
    expected = outcome(build_dataset_per_segment, sentences, synthetic_intent)
    if built[0] == "ok" and expected[0] == "ok":
        assert dataset_in_order(built[1]) == dataset_in_order(expected[1], as_pair=tuple)
    else:
        assert built == expected


_ANY_TAGS = st.sampled_from(["O", "B-x", "I-x", "B-y", "I-y", "B-", "I-", "B-a b", "X"])
_SENTENCES_WITH_ANY_TAGS = st.integers(1, 5).flatmap(lambda n: st.builds(
    AnnotatedSentence,
    st.tuples(*[st.sampled_from(["a", "b", "é"])] * n),
    st.tuples(*[_ANY_TAGS] * n),
    st.just("i"),
))


@given(st.lists(_SENTENCES_WITH_ANY_TAGS, min_size=1, max_size=4))
def test_code_built_sentences_meet_the_one_iob_rule(sentences):
    """abstract_entities and build_dataset accept exactly the tags that
    iob_violations accepts, and reject the others with the message of
    parsing."""
    for sentence in sentences:
        if iob_violations(sentence.slots):
            assert outcome(abstract_entities, sentence) == outcome(
                corpus._check_sentence, sentence, 0
            )
        else:
            assert outcome(abstract_entities, sentence)[0] == "ok"
    bad = next((i for i, s in enumerate(sentences) if iob_violations(s.slots)), None)
    if bad is None:
        assert outcome(build_dataset, sentences)[0] == "ok"
    else:
        assert outcome(build_dataset, sentences) == outcome(
            corpus._check_sentence, sentences[bad], bad
        )


_SENTENCES_WITH_ANY_TOKENS = st.integers(0, 3).flatmap(lambda n: st.builds(
    AnnotatedSentence,
    st.tuples(*[st.sampled_from(["a", "é", "", "a b", "a\tb"])] * n),
    st.tuples(*[_ANY_TAGS] * n),
    st.sampled_from(["i", "j", "a\nb", None]),
))


@given(st.lists(_SENTENCES_WITH_ANY_TOKENS, min_size=1, max_size=4))
def test_code_built_sentences_meet_the_parser_rules(sentences):
    """build_dataset gives a list of sentences what parsing their records
    lines and building on the result gives: the same dataset or the same
    error. The synthetic intent is sound: without one, a sentence with no
    intent is an error of build_dataset's own, reported ahead of the others."""
    text = "".join(
        json.dumps({"tokens": list(s.tokens), "slots": list(s.slots)}
                   | ({} if s.intent is None else {"intent": s.intent})) + "\n"
        for s in sentences
    )
    parsed = outcome(parse_records, text)
    expected = outcome(build_dataset, parsed[1], "ALL") if parsed[0] == "ok" else parsed
    built = outcome(build_dataset, sentences, "ALL")
    if built[0] == "ok" and expected[0] == "ok":
        assert dataset_in_order(built[1]) == dataset_in_order(expected[1])
    else:
        assert built == expected
