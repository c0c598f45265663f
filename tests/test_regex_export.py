import pytest

from eastgen import (
    East,
    EntityLexicon,
    build,
    build_dataset,
    entity,
    export_regex,
    fixed,
    match,
    order,
    pick_one,
)
from eastgen.errors import MissingLexiconError, TreeValidationError
from eastgen.regex_export import dump_bundle, load_bundle

from helpers import (
    bundle_language,
    enumerate_language,
    expand_templates,
    random_tree_with_budget,
    small_lexicon,
)


def lex(**entries) -> EntityLexicon:
    lexicon = EntityLexicon()
    for label, forms in entries.items():
        for form in forms:
            lexicon.add(label, form)
    return lexicon


class TestExport:
    def test_pickone_lowering(self):
        tree = East(
            "x",
            order(
                fixed({"show me": 1}),
                pick_one(fixed({"flights": 1}, weight=0.5), fixed({"airlines": 1}, weight=0.5)),
            ),
        )
        bundle = export_regex(tree, EntityLexicon())
        assert bundle.patterns == ["^show me (?:flights|airlines)$"]

    def test_entity_becomes_named_group(self):
        tree = East("x", order(fixed({"fly to": 1}), entity("city_name")))
        bundle = export_regex(tree, lex(city_name=["boston", "denver"]))
        assert bundle.patterns == ["^fly to (?P<g0>boston|denver)$"]
        assert bundle.group_slots == [{"g0": "city_name"}]

    def test_dropout_lowers_to_optional_group(self):
        tree = East("x", order(fixed({"go": 1}), fixed({"please": 1}, dropout=1 / 3)))
        bundle = export_regex(tree, EntityLexicon())
        assert bundle.patterns == ["^go(?: please)?$"]

    def test_one_pattern_per_root_branch(self, airline_dataset):
        tree = build(airline_dataset)["airline"]
        bundle = export_regex(tree, airline_dataset.lexicon)
        assert len(bundle.patterns) == 2

    def test_duplicate_slots_get_fresh_groups(self):
        tree = East("x", order(entity("city"), fixed({"to": 1}), entity("city")))
        bundle = export_regex(tree, lex(city=["a", "b"]))
        assert bundle.group_slots == [{"g0": "city", "g1": "city"}]
        bundle.compiled()

    def test_empty_slot_lexicon_rejected(self):
        tree = East("x", order(entity("city")))
        with pytest.raises(MissingLexiconError):
            export_regex(tree, EntityLexicon())

    def test_an_invalid_tree_is_rejected(self):
        """The phrase 'a  b' was lowered to the pattern '^a  b (?P<g0>boston)$'."""
        tree = East("x", order(fixed({"a  b": 1}), entity("city")))
        with pytest.raises(TreeValidationError) as err:
            export_regex(tree, lex(city=["boston"]))
        assert err.value.violations == ["intent 'x': root.children[0]: malformed phrase 'a  b'"]

    def test_regex_metacharacters_escaped(self):
        tree = East("x", order(fixed({"a+b": 1}), entity("q")))
        bundle = export_regex(tree, lex(q=["c(d)"]))
        assert match(bundle, ["a+b", "c(d)"]) is not None
        assert match(bundle, ["aab", "c(d)"]) is None


class TestMatch:
    def test_match_without_slots(self):
        tree = East(
            "x",
            order(
                fixed({"show me": 1}),
                pick_one(fixed({"flights": 1}, weight=0.5), fixed({"airlines": 1}, weight=0.5)),
            ),
        )
        bundle = export_regex(tree, EntityLexicon())
        assert match(bundle, ["show", "me", "flights"]) == ("x", ["O", "O", "O"])

    def test_literal_mismatch(self):
        tree = East("x", order(fixed({"show me": 1}), fixed({"flights": 1})))
        bundle = export_regex(tree, EntityLexicon())
        assert match(bundle, ["show", "flights"]) is None

    def test_group_maps_to_iob(self):
        tree = East("x", order(fixed({"fly to": 1}), entity("city_name")))
        bundle = export_regex(tree, lex(city_name=["denver", "new york"]))
        assert match(bundle, ["fly", "to", "denver"]) == (
            "x",
            ["O", "O", "B-city_name"],
        )
        assert match(bundle, ["fly", "to", "new", "york"]) == (
            "x",
            ["O", "O", "B-city_name", "I-city_name"],
        )

    def test_first_matching_pattern_wins(self, airline_dataset):
        tree = build(airline_dataset)["airline"]
        bundle = export_regex(tree, airline_dataset.lexicon)
        got = match(
            bundle,
            ["show", "me", "the", "airlines", "that", "fly", "from", "Beijing",
             "to", "Shanghai", "please"],
        )
        assert got is not None
        intent, slots = got
        assert intent == "airline"
        assert slots[7] == "B-city_name" and slots[9] == "B-city_name"

    def test_matching_is_total_on_garbage(self, airline_dataset):
        tree = build(airline_dataset)["airline"]
        bundle = export_regex(tree, airline_dataset.lexicon)
        assert match(bundle, []) is None
        assert match(bundle, ["^", "$", "(?:", "\\"]) is None
        assert match(bundle, ["which"] * 40) is None


class TestLanguageEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_regex_accepts_exactly_the_expanded_language(self, seed):
        tree = random_tree_with_budget(seed, 100)
        lexicon = small_lexicon()
        bundle = export_regex(tree, lexicon)

        templates = enumerate_language(tree, include_dropout_variants=True)
        expanded = expand_templates(
            templates.templates, {s: lexicon.forms(s) for s in ("city", "color")}
        )
        expected = {" ".join(tokens) for tokens in expanded}
        assert bundle_language(bundle) == expected

    def test_airline_equivalence(self, airline_dataset):
        tree = build(airline_dataset)["airline"]
        lexicon = airline_dataset.lexicon
        bundle = export_regex(tree, lexicon)
        templates = enumerate_language(tree, include_dropout_variants=True)
        expanded = expand_templates(
            templates.templates,
            {label: lexicon.forms(label) for label in lexicon.labels()},
        )
        expected = {" ".join(tokens) for tokens in expanded}
        assert bundle_language(bundle) == expected
        # spot-check both directions with the matcher itself
        for sentence in sorted(expected)[:50]:
            assert match(bundle, sentence.split(" ")) is not None


class TestBundleFiles:
    def test_round_trip(self, airline_dataset):
        tree = build(airline_dataset)["airline"]
        bundle = export_regex(tree, airline_dataset.lexicon)
        loaded = load_bundle(dump_bundle(bundle))
        assert loaded.intent == bundle.intent
        assert loaded.patterns == bundle.patterns
        assert loaded.group_slots == bundle.group_slots

    def test_dump_header(self):
        tree = East("Ask weather", order(fixed({"hi": 1})))
        text = dump_bundle(export_regex(tree, EntityLexicon()))
        assert text.startswith("# intent: Ask weather\n# dialect: ")
