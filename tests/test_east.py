import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from eastgen import (
    East,
    EntityLexicon,
    GenerationConfig,
    Node,
    deserialize,
    entity,
    exchangeable,
    fixed,
    generate_batch,
    order,
    parse_lexicon,
    pick_one,
    serialize,
    validate,
)
from eastgen.east import FLOAT_MAX, MAX_DEPTH, MAX_EXCHANGEABLE
from eastgen.errors import (
    EastgenError,
    TreeSchemaError,
    TreeValidationError,
)

from helpers import (
    LanguageSizeExceeded,
    Literal,
    Placeholder,
    TemplateLanguage,
    enumerate_language,
    expand_templates,
    random_tree,
    random_tree_with_budget,
    segments_of,
    structural_path_count,
)


def airline_shaped_tree() -> East:
    """Spine of entity leaves with phrase regions and an exchangeable date pair."""
    return East(
        "airline",
        pick_one(
            order(
                fixed({"which airlines have": 1, "are there any": 1}),
                entity("flight_days"),
                fixed({"flights from": 1, "airplanes from": 1}),
                entity("city_name"),
                fixed({"to": 2}),
                entity("city_name"),
                fixed({"on": 2}),
                exchangeable(entity("month_name"), entity("day_number")),
                weight=2 / 3,
            ),
            order(
                fixed({"show me the airlines that fly from": 1}),
                entity("city_name"),
                fixed({"to": 1}),
                entity("city_name"),
                fixed({"please": 1}),
                weight=1 / 3,
            ),
        ),
    )


class TestValidate:
    def test_airline_shape_is_valid(self):
        assert validate(airline_shaped_tree()) == []

    def test_pickone_weight_sum_violation(self):
        tree = East("x", pick_one(fixed({"a": 1}, weight=0.5), fixed({"b": 1}, weight=0.6)))
        violations = validate(tree)
        assert len(violations) == 1
        assert "sum" in violations[0]

    def test_entity_with_child_violation(self):
        bad = East("x", order(
            # construct an ill-formed node directly
            entity("slot").__class__("entity", 1.0, None, (fixed({"a": 1}),), None, "slot")
        ))
        assert "root.children[0]: entity node must not have children" in validate(bad)

    @pytest.mark.parametrize("kind", ["bad", ["order"]])
    def test_unknown_kind_on_a_tree_built_in_code(self, kind):
        assert validate(East("x", order(Node(kind)))) == [
            f"root.children[0]: unknown kind {kind!r}"
        ]

    def test_root_kind_restricted(self):
        assert any("root kind" in v for v in validate(East("x", fixed({"a": 1}))))

    def test_entity_dropout_forbidden(self):
        node = entity("slot").__class__("entity", 1.0, 0.5, (), None, "slot")
        assert any("dropout" in v for v in validate(East("x", order(node))))

    def test_weight_range(self):
        assert any("weight" in v for v in validate(East("x", order(fixed({"a": 1}, weight=0.0)))))
        assert any("weight" in v for v in validate(East("x", order(fixed({"a": 1}, weight=1.5)))))

    def test_empty_dictionary(self):
        node = fixed({"a": 1}).__class__("fixed", 1.0, None, (), {}, None)
        assert "root.children[0]: fixed node has no dictionary" in validate(East("x", order(node)))

    def test_violation_paths_point_at_nodes(self):
        tree = East("x", order(order(fixed({"a": 1}, weight=2.0))))
        violations = validate(tree)
        assert violations and violations[0].startswith("root.children[0].children[0]:")

    @pytest.mark.parametrize(
        "node",
        [
            fixed({"a": 1}, weight=True),
            fixed({"a": 1}, dropout=False),
            fixed({"a": True}),
            Node("fixed", 1.0, "0.5", dictionary={"a": 1}),
            Node("fixed", "1", dictionary={"a": 1}),
            fixed({"a": 1.0}),
            fixed({"a": "x", "b": 1}),
        ],
    )
    def test_non_numbers_rejected_on_trees_built_in_code(self, node):
        violations = validate(East("x", order(node)))
        assert len(violations) == 1
        assert violations[0].startswith("root.children[0]:")

    def test_bool_weights_do_not_count_toward_pickone_sum(self):
        tree = East("x", pick_one(fixed({"a": 1}, weight=True)))
        violations = validate(tree)
        assert any("weight True" in v for v in violations)
        assert any("sum to 0" in v for v in violations)

    def test_string_weight_in_pickone_is_a_violation(self):
        tree = East("x", pick_one(Node("fixed", "0.5", dictionary={"a": 1}),
                                  fixed({"b": 1}, weight=0.5)))
        violations = validate(tree)
        assert "root.children[0]: weight '0.5' outside (0, 1]" in violations
        assert any("sum to 0.5" in v for v in violations)

    @pytest.mark.parametrize("phrase", ["hello\tthere", "a\nb", "a  b", " a", "a ", ""])
    def test_phrase_must_be_single_space_joined_tokens(self, phrase):
        tree = East("x", order(fixed({phrase: 1})))
        assert validate(tree) == [f"root.children[0]: malformed phrase {phrase!r}"]
        with pytest.raises(TreeValidationError):
            deserialize(serialize(tree))

    @pytest.mark.parametrize("phrase", [1, None, ("a",)])
    def test_phrase_that_is_not_a_str_is_a_violation(self, phrase):
        """Once an AttributeError from Node's constructor."""
        tree = East("x", order(fixed({phrase: 1})))
        assert validate(tree) == [f"root.children[0]: malformed phrase {phrase!r}"]

    @pytest.mark.parametrize("slot", ["city name", "city\tname", " city", "city\n"])
    def test_slot_label_must_be_one_token(self, slot):
        tree = East("x", order(entity(slot)))
        assert validate(tree) == [f"root.children[0]: malformed slot label {slot!r}"]

    @pytest.mark.parametrize("intent", ["x\ny", "x\r", "x\u2028y", " x", "x\t", "  ", ""])
    def test_intent_without_line_break_or_surrounding_space(self, intent):
        tree = East(intent, order(fixed({"a": 1})))
        message = f"root: intent must be one non-empty trimmed line, got {intent!r}"
        assert validate(tree) == [message]
        with pytest.raises(TreeValidationError):
            deserialize(serialize(tree))

    def test_inner_spaces_in_intent_and_phrase_are_fine(self):
        assert validate(East("book a flight", order(fixed({"to the": 1})))) == []

    def test_depth_bound(self):
        node = fixed({"a": 1})
        for _ in range(MAX_DEPTH):
            node = order(node)
        assert validate(East("x", node)) == []
        violations = validate(East("x", order(node)))
        assert len(violations) == 1
        assert f"nested deeper than {MAX_DEPTH} levels" in violations[0]

    def test_exchangeable_width_bound(self):
        def tree(width):
            return East("x", order(exchangeable(*(fixed({f"w{i}": 1}) for i in range(width)))))

        assert MAX_EXCHANGEABLE == 6
        assert validate(tree(6)) == []
        violations = validate(tree(7))
        assert violations == ["root.children[0]: more than 6 exchangeable children"]
        with pytest.raises(TreeValidationError):
            deserialize(serialize(tree(7)))


class TestCountTotals:
    """The sampler draws `random() * total` in floating point, so the counts
    it draws on must sum to a number a float can hold."""

    @pytest.mark.parametrize(
        "counts",
        [{"a": 10**400, "b": 1}, {"a": 10**308, "b": 10**308}],
    )
    def test_fixed_counts_beyond_float_range_rejected(self, counts):
        tree = East("x", order(fixed(counts)))
        assert validate(tree) == [
            "root.children[0]: phrase counts total beyond the float range"
        ]
        with pytest.raises(TreeValidationError):
            deserialize(serialize(tree))

    def test_fixed_counts_at_float_max_sample(self):
        counts = {"a": int(FLOAT_MAX) - 1, "b": 1}  # total exactly FLOAT_MAX
        tree = deserialize(serialize(East("x", order(fixed(counts)))))
        config = GenerationConfig(seed=3, count=20, use_embeddings=False)
        sentences = generate_batch({"x": tree}, None, config, lexicon=EntityLexicon())
        assert {s.tokens for s in sentences} <= {("a",), ("b",)}

    @pytest.mark.parametrize(
        "forms",
        ['{"a": 1' + "0" * 400 + ', "b": 1}', '{"a": 1' + "0" * 308 + ', "b": 1' + "0" * 308 + "}"],
    )
    def test_lexicon_counts_beyond_float_range_rejected(self, forms):
        with pytest.raises(EastgenError) as err:
            parse_lexicon('{"city": ' + forms + "}")
        assert str(err.value) == "lexicon: 'city': counts total beyond the float range"

    def test_lexicon_counts_at_float_max_load(self):
        lexicon = parse_lexicon(json.dumps({"city": {"a": int(FLOAT_MAX)}, "day": {"b": 1}}))
        assert lexicon.entries["city"]["a"] == int(FLOAT_MAX)


class TestDerivedFields:
    def test_replace_recomputes_cumulative_weights(self):
        pick = pick_one(fixed({"a": 1}, weight=0.5), fixed({"b": 1}, weight=0.5))
        moved = replace(
            pick, children=(fixed({"a": 1}, weight=0.25), fixed({"b": 1}, weight=0.75))
        )
        assert moved.cum == (0.25, 1.0)
        assert pick.cum == (0.5, 1.0)

    def test_replace_recomputes_phrases(self):
        node = replace(fixed({"a": 1}), dictionary={"new york": 2, "oslo": 3})
        assert node.cum == (2, 5)
        assert node.phrases == ((("new", "york"), ("O", "O")), (("oslo",), ("O",)))

    def test_derived_fields_stay_out_of_equality_and_repr(self):
        node = fixed({"a b": 1})
        assert node == Node("fixed", dictionary={"a b": 1})
        assert "cum" not in repr(node) and "phrases" not in repr(node)

    def test_replaced_tree_samples_new_weights(self):
        pick = pick_one(fixed({"a": 1}, weight=0.5), fixed({"b": 1}, weight=0.5))
        moved = replace(
            pick, children=(fixed({"a": 1}, weight=0.1), fixed({"b": 1}, weight=0.9))
        )
        config = GenerationConfig(seed=4, count=4000, use_embeddings=False)
        drawn = generate_batch({"x": East("x", moved)}, None, config, lexicon=EntityLexicon())
        share = Counter(s.tokens for s in drawn)[("b",)] / len(drawn)
        assert share == pytest.approx(0.9, abs=0.03)

    def test_omitted_weights_are_sampled_at_their_shares(self):
        doc = json.dumps(
            {
                "intent": "x",
                "root": {
                    "kind": "pickone",
                    "children": [
                        {"kind": "fixed", "weight": 0.5, "dictionary": {"a": 1}},
                        {"kind": "fixed", "dictionary": {"b": 1}},
                        {"kind": "fixed", "dictionary": {"c": 1}},
                    ],
                },
            }
        )
        tree = deserialize(doc)
        assert tree.root.cum == pytest.approx((0.5, 0.75, 1.0))
        config = GenerationConfig(seed=5, count=8000, use_embeddings=False)
        drawn = generate_batch({"x": tree}, None, config, lexicon=EntityLexicon())
        counts = Counter(s.tokens[0] for s in drawn)
        shares = [counts[t] / len(drawn) for t in "abc"]
        assert shares == pytest.approx([0.5, 0.25, 0.25], abs=0.02)


class TestSerialization:
    def test_minimal_round_trip(self):
        tree = East("greet", order(fixed({"hi": 1})))
        assert deserialize(serialize(tree)) == tree

    def test_airline_round_trip(self):
        tree = airline_shaped_tree()
        assert deserialize(serialize(tree)) == tree

    @pytest.mark.parametrize("seed", range(25))
    def test_random_round_trip(self, seed):
        tree = random_tree(seed)
        assert validate(tree) == []
        assert deserialize(serialize(tree)) == tree

    def test_unknown_kind_rejected(self):
        doc = json.dumps({"intent": "x", "root": {"kind": "loop", "children": []}})
        with pytest.raises(TreeSchemaError):
            deserialize(doc)

    def test_unknown_field_rejected(self):
        doc = json.dumps(
            {"intent": "x", "root": {"kind": "fixed", "dictionary": {"a": 1}, "extra": 1}}
        )
        with pytest.raises(TreeSchemaError) as err:
            deserialize(doc)
        assert "extra" in str(err.value)

    @pytest.mark.parametrize("node, field", [
        ({"kind": "order", "children": [{"kind": "fixed", "dictionary": {"a": 1}}],
          "slot": "s"}, "slot"),
        ({"kind": "order", "children": [{"kind": "fixed", "dictionary": {"a": 1}}],
          "dictionary": {"b": 1}}, "dictionary"),
        ({"kind": "fixed", "dictionary": {"a": 1}, "slot": "s"}, "slot"),
        ({"kind": "fixed", "dictionary": {"a": 1},
          "children": [{"kind": "fixed", "dictionary": {"b": 1}}]}, "children"),
        ({"kind": "entity", "slot": "s", "dictionary": {"a": 1}}, "dictionary"),
        ({"kind": "entity", "slot": "s",
          "children": [{"kind": "fixed", "dictionary": {"b": 1}}]}, "children"),
    ])
    def test_a_field_the_kind_does_not_carry_is_rejected(self, node, field):
        """Once dropped on load, so `serialize` wrote the tree without it."""
        doc = json.dumps({"intent": "x", "root": {"kind": "order", "children": [node]}})
        with pytest.raises(TreeValidationError) as err:
            deserialize(doc)
        assert err.value.violations == [
            f"root.children[0]: {node['kind']} node must not have {field}"
        ]

    @pytest.mark.parametrize("node, field", [
        ({"kind": "pickone"}, "children"),
        ({"kind": "exchangeable", "children": []}, "children"),
        ({"kind": "fixed", "dictionary": None}, "dictionary"),
        ({"kind": "fixed", "dictionary": {}}, "dictionary"),
        ({"kind": "entity"}, "slot"),
        ({"kind": "entity", "slot": ""}, "slot"),
    ])
    def test_a_kind_without_its_field_is_rejected(self, node, field):
        doc = json.dumps({"intent": "x", "root": {"kind": "order", "children": [node]}})
        with pytest.raises(TreeValidationError) as err:
            deserialize(doc)
        assert err.value.violations == [f"root.children[0]: {node['kind']} node has no {field}"]

    @pytest.mark.parametrize("field, value, message", [
        ("children", {}, "children must be an array"),
        ("dictionary", ["a"], "dictionary must be an object"),
        ("slot", 1, "slot must be a string"),
    ])
    def test_a_field_of_the_wrong_json_type_is_a_schema_error(self, field, value, message):
        node = {"kind": "fixed", "dictionary": {"a": 1}, field: value}
        doc = json.dumps({"intent": "x", "root": {"kind": "order", "children": [node]}})
        with pytest.raises(TreeSchemaError) as err:
            deserialize(doc)
        assert str(err.value) == f"root.children[0]: {message}"

    def test_every_stray_field_is_named(self):
        doc = """{"intent":"i","root":{"kind":"order","slot":"zz","children":[
          {"kind":"entity","slot":"city","dictionary":{"x":1},
           "children":[{"kind":"fixed","dictionary":{"a":1}}]},
          {"kind":"fixed","dictionary":{"hi":1},"slot":"s"}]}}"""
        with pytest.raises(TreeValidationError) as err:
            deserialize(doc)
        assert err.value.violations == [
            "root: order node must not have slot",
            "root.children[0]: entity node must not have children",
            "root.children[0]: entity node must not have dictionary",
            "root.children[1]: fixed node must not have slot",
        ]

    @pytest.mark.parametrize(
        "node",
        [
            {"kind": "fixed", "weight": True, "dictionary": {"a": 1}},
            {"kind": "fixed", "dropout": False, "dictionary": {"a": 1}},
            {"kind": "fixed", "dictionary": {"a": True}},
        ],
    )
    def test_bools_rejected_where_numbers_belong(self, node):
        doc = json.dumps({"intent": "x", "root": {"kind": "order", "children": [node]}})
        with pytest.raises(TreeSchemaError) as err:
            deserialize(doc)
        assert err.value.path == "root.children[0]"

    def test_weight_beyond_float_range_rejected(self):
        doc = (
            '{"intent": "x", "root": {"kind": "order", "children": '
            '[{"kind": "fixed", "weight": 1' + "0" * 400 + ', "dictionary": {"a": 1}}]}}'
        )
        with pytest.raises(TreeSchemaError) as err:
            deserialize(doc)
        assert err.value.path == "root.children[0]"

    def test_integer_too_long_to_convert_rejected(self):
        doc = '{"intent": "x", "root": {"kind": "order", "weight": ' + "1" * 5000 + "}}"
        with pytest.raises(TreeSchemaError):
            deserialize(doc)

    @staticmethod
    def nested(depth: int) -> str:
        node = '{"kind": "fixed", "dictionary": {"a": 1}}'
        for _ in range(depth):
            node = '{"kind": "order", "children": [' + node + "]}"
        return '{"intent": "x", "root": ' + node + "}"

    def test_tree_at_depth_bound_loads(self):
        tree = deserialize(self.nested(MAX_DEPTH))
        assert deserialize(serialize(tree)) == tree
        assert len(enumerate_language(tree)) == 1

    @pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 600, 5000])
    def test_deeper_trees_rejected(self, depth):
        with pytest.raises(TreeSchemaError) as err:
            deserialize(self.nested(depth))
        assert "nested" in str(err.value)

    def test_deeply_nested_array_rejected(self):
        with pytest.raises(TreeSchemaError) as err:
            deserialize("[" * 100000)
        assert "nested too deeply" in str(err.value)

    @pytest.mark.parametrize("kind", ["bad", None, ["order"], {"order": 1}])
    def test_schema_error_carries_path(self, kind):
        doc = json.dumps(
            {"intent": "x", "root": {"kind": "order", "children": [{"kind": kind}]}}
        )
        with pytest.raises(TreeSchemaError) as err:
            deserialize(doc)
        assert err.value.path == "root.children[0]"
        assert str(err.value) == f"root.children[0]: unknown node kind {kind!r}"

    def test_invalid_tree_reports_violations(self):
        doc = json.dumps(
            {
                "intent": "x",
                "root": {
                    "kind": "pickone",
                    "children": [
                        {"kind": "fixed", "weight": 0.5, "dictionary": {"a": 1}},
                        {"kind": "fixed", "weight": 0.9, "dictionary": {"b": 1}},
                    ],
                },
            }
        )
        with pytest.raises(TreeValidationError) as err:
            deserialize(doc)
        assert any("sum" in v for v in err.value.violations)

    def test_omitted_weights_distribute_uniformly(self):
        doc = json.dumps(
            {
                "intent": "x",
                "root": {
                    "kind": "pickone",
                    "children": [
                        {"kind": "fixed", "dictionary": {"a": 1}},
                        {"kind": "fixed", "dictionary": {"b": 1}},
                        {"kind": "fixed", "dictionary": {"c": 1}},
                    ],
                },
            }
        )
        tree = deserialize(doc)
        assert [c.weight for c in tree.root.children] == pytest.approx([1 / 3] * 3)

    def test_partial_weights_share_remainder(self):
        doc = json.dumps(
            {
                "intent": "x",
                "root": {
                    "kind": "pickone",
                    "children": [
                        {"kind": "fixed", "weight": 0.5, "dictionary": {"a": 1}},
                        {"kind": "fixed", "dictionary": {"b": 1}},
                        {"kind": "fixed", "dictionary": {"c": 1}},
                    ],
                },
            }
        )
        tree = deserialize(doc)
        assert [c.weight for c in tree.root.children] == pytest.approx([0.5, 0.25, 0.25])

    def test_hand_written_scholar_document(self):
        # the shape a domain expert would write: order root, a pick-one over
        # openers, an exchangeable pair, a droppable tail, no weights at all
        doc = """
        {
          "intent": "Search Scholar",
          "root": {
            "kind": "order",
            "children": [
              {"kind": "pickone", "children": [
                {"kind": "fixed", "dictionary": {"who is": 1}},
                {"kind": "fixed", "dictionary": {"tell me about": 1, "find": 1}}
              ]},
              {"kind": "exchangeable", "children": [
                {"kind": "entity", "slot": "Person"},
                {"kind": "order", "children": [
                  {"kind": "fixed", "dictionary": {"from": 1}},
                  {"kind": "entity", "slot": "Organization"}
                ]}
              ]},
              {"kind": "fixed", "dropout": 0.5, "dictionary": {"please": 1}}
            ]
          }
        }
        """
        tree = deserialize(doc)
        assert validate(tree) == []
        assert tree.root.kind == "order"
        assert tree.root.children[0].children[0].weight == pytest.approx(0.5)


class TestEnumerateLanguage:
    def test_pickone_alternatives(self):
        tree = East(
            "x",
            order(
                fixed({"show me": 1}),
                pick_one(fixed({"flights": 1}, weight=0.5), fixed({"airlines": 1}, weight=0.5)),
            ),
        )
        language = enumerate_language(tree)
        assert language.render() == ["show me airlines", "show me flights"]

    def test_exchangeable_permutations(self):
        tree = East("x", order(exchangeable(entity("month_name"), entity("day_number"))))
        language = enumerate_language(tree)
        assert language.templates == frozenset(
            {
                (Placeholder("month_name"), Placeholder("day_number")),
                (Placeholder("day_number"), Placeholder("month_name")),
            }
        )

    def test_single_fixed(self):
        language = enumerate_language(East("x", order(fixed({"hi": 1}))))
        assert language.templates == frozenset({(Literal("hi"),)})

    def test_dropout_variants(self):
        tree = East("x", order(fixed({"a": 1}), fixed({"b": 1}, dropout=0.5)))
        without = enumerate_language(tree, include_dropout_variants=False)
        with_variants = enumerate_language(tree, include_dropout_variants=True)
        assert {t for t in without} == {(Literal("a"), Literal("b"))}
        assert {t for t in with_variants} == {
            (Literal("a"), Literal("b")),
            (Literal("a"),),
        }

    def test_limit_exceeded_carries_partial_count(self):
        tree = East(
            "x",
            order(
                pick_one(*(fixed({f"w{i}": 1}, weight=0.25) for i in range(4))),
                pick_one(*(fixed({f"v{i}": 1}, weight=0.25) for i in range(4))),
            ),
        )
        with pytest.raises(LanguageSizeExceeded) as err:
            enumerate_language(tree, limit=7)
        assert err.value.partial_count > 7

    @pytest.mark.parametrize("seed", range(12))
    def test_size_matches_direct_path_count(self, seed):
        # unique phrases and no entities: no collisions, so |language| is the
        # product of choice counts along the tree
        tree = random_tree_with_budget(
            seed, 100, allow_dropout=False, with_entities=False
        )
        expected = structural_path_count(tree, with_dropout=False)
        language = enumerate_language(tree)
        assert len(language) == expected

    def test_membership_accepts_templates(self, airline_dataset):
        language = TemplateLanguage(
            frozenset({segments_of(t) for t in airline_dataset.by_intent["airline"]})
        )
        for template in airline_dataset.by_intent["airline"]:
            assert template in language


def test_expand_templates_grounds_placeholders():
    templates = {(Literal("to"), Placeholder("city")), (Placeholder("city"),)}
    grounded = expand_templates(templates, {"city": ["oslo", "new york"]})
    assert grounded == {
        ("to", "oslo"),
        ("to", "new", "york"),
        ("oslo",),
        ("new", "york"),
    }
