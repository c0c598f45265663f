"""Every loader returns a value or raises its EastgenError, whatever the input."""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from eastgen import (
    East,
    deserialize,
    load_embeddings,
    parse_conll,
    parse_lexicon,
    parse_records,
)
from eastgen.cli import main
from eastgen.errors import CorpusParseError, EastgenError, TreeSchemaError
from eastgen.regex_export import load_bundle, match

scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8)
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=30,
)
_kinds = st.sampled_from(["order", "pickone", "exchangeable", "fixed", "entity", "x"])
_leaf_fields = {
    "weight": scalars,
    "dropout": scalars,
    "slot": scalars,
    "dictionary": st.dictionaries(st.text(max_size=6), scalars, max_size=3) | json_values,
}
# node-shaped objects reach far deeper into the parser than arbitrary values
tree_nodes = st.recursive(
    st.fixed_dictionaries({"kind": _kinds}, optional=_leaf_fields),
    lambda inner: st.fixed_dictionaries(
        {"kind": _kinds, "children": st.lists(inner, max_size=3) | json_values},
        optional={"weight": scalars, "dropout": scalars},
    ),
    max_leaves=12,
)
tree_documents = json_values | st.fixed_dictionaries(
    {"intent": st.text(max_size=5) | json_values, "root": tree_nodes | json_values}
)

TEXT_LOADERS = [parse_conll, parse_records, parse_lexicon, deserialize,
                load_embeddings, load_bundle]


def load_or_reject(loader, text):
    try:
        return loader(text)
    except EastgenError:
        return None


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(tree_documents)
def test_deserialize_any_json_value(doc):
    tree = load_or_reject(deserialize, json.dumps(doc))
    assert tree is None or isinstance(tree, East)


@settings(max_examples=200, deadline=None)
@given(json_values)
def test_parse_lexicon_any_json_value(doc):
    load_or_reject(parse_lexicon, json.dumps(doc))


@settings(max_examples=200, deadline=None)
@given(st.lists(json_values, max_size=3))
def test_parse_records_any_json_values(docs):
    load_or_reject(parse_records, "\n".join(json.dumps(d) for d in docs))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(["# intent: x", "# groups:", "^a$", "#", ""]),
                max_size=5), json_values)
def test_load_bundle_any_groups_value(lines, groups):
    text = "\n".join(
        f"{line} {json.dumps(groups)}" if line == "# groups:" else line for line in lines
    )
    bundle = load_or_reject(load_bundle, text)
    assert bundle is None or all(isinstance(g, dict) for g in bundle.group_slots)


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_every_text_loader_any_text(text):
    for loader in TEXT_LOADERS:
        load_or_reject(loader, text)


@pytest.mark.parametrize(
    "loader, error",
    [
        (deserialize, TreeSchemaError),
        (parse_lexicon, EastgenError),
        (parse_records, CorpusParseError),
    ],
)
def test_deeply_nested_json_rejected(loader, error):
    with pytest.raises(error) as err:
        loader("[" * 100000)
    assert "nested too deeply" in str(err.value)


@pytest.mark.parametrize(
    "groups, message",
    [
        ("[" * 100000, "nested too deeply"),
        ("{oops", "Expecting property name"),
        ("[1]", "groups must be an object"),
    ],
)
def test_malformed_bundle_groups_name_the_line(groups, message):
    with pytest.raises(EastgenError) as err:
        load_bundle(f"# intent: x\n# groups: {groups}\n^a$\n")
    assert str(err.value).startswith("bundle line 2: ")
    assert message in str(err.value)


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("# intent: x\n^(a$\n", 2, "bad pattern: missing ), unterminated subpattern"),
        ("# intent: x\n\n" + "(" * 5000 + ")" * 5000 + "\n", 3, "bad pattern: maximum recursion"),
        ("# intent: x\n^a{99999999999}$\n", 2, "bad pattern: the repetition number"),
        ('# intent: x\n# groups: {"g9": "city"}\n^a$\n', 3, "unknown group 'g9'"),
        ('# intent: x\n# groups: {"g0": "city", "g1": "day"}\n^(?P<g0>a)$\n', 3,
         "unknown group 'g1'"),
        ('# intent: x\n# groups: {"g0": 1}\n^(?P<g0>a)$\n', 2,
         "groups must be an object of slots"),
        ("# intent: a\n^x$\n# intent: b\n^y$\n", 3, "a second '# intent:' header"),
        ("# intent:\n^x$\n", 1, "intent must be one non-empty trimmed line, got ''"),
        ('# intent: x\n^a$\n# groups: {"g0": "city"}\n', 3, "groups without a pattern"),
        ('# intent: x\n# groups: {"g0": "city"}\n# groups: {"g0": "day"}\n^(?P<g0>a)$\n', 2,
         "groups without a pattern"),
        # match would tag these B- and B-city name, which iob_violations rejects
        ('# intent: x\n# groups: {"g0": "", "g1": "city name"}\n^(?P<g0>a) (?P<g1>b)$\n', 2,
         "malformed slot label ''"),
        ('# intent: x\n\n# groups: {"g0": "city", "g1": "city name"}\n^(?P<g0>a) (?P<g1>b)$\n',
         3, "malformed slot label 'city name'"),
        ('# intent: x\n# groups: {"g0": "city\\t"}\n^(?P<g0>a)$\n', 2,
         "malformed slot label 'city\\t'"),
    ],
    ids=["unbalanced", "nested-too-deep", "huge-repeat", "no-such-group", "one-missing-group",
         "slot-not-a-string", "second-intent", "empty-intent", "trailing-groups",
         "second-groups", "empty-slot-label", "spaced-slot-label", "tabbed-slot-label"],
)
def test_broken_bundle_names_the_line(text, line, message):
    with pytest.raises(EastgenError) as err:
        load_bundle(text)
    assert str(err.value).startswith(f"bundle line {line}: {message}")


def test_checked_bundle_matches():
    bundle = load_bundle('# intent: x\n# groups: {"g0": "city"}\n^to (?P<g0>new york)$\n')
    assert bundle.patterns == ["^to (?P<g0>new york)$"]
    assert match(bundle, ["to", "new", "york"]) == ("x", ["O", "B-city", "I-city"])


@pytest.mark.parametrize("weights, expected", [
    ((None, "absent", "absent"), [1 / 3] * 3),
    ((None, 0.5, "absent"), [0.25, 0.5, 0.25]),
])
def test_null_pickone_weight_counts_as_omitted(weights, expected):
    # "weight": null means absent, as "dropout": null does: such children
    # share the mass the weighted ones leave over
    children = [{"kind": "fixed", "dictionary": {p: 1}} for p in "abc"]
    for child, weight in zip(children, weights):
        if weight != "absent":
            child["weight"] = weight
    tree = deserialize(json.dumps(
        {"intent": "x", "root": {"kind": "pickone", "children": children}}
    ))
    assert [c.weight for c in tree.root.children] == pytest.approx(expected)


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=64))
def test_cli_generate_any_lexicon_bytes(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "x.east.json").write_text(
        '{"intent": "x", "root": {"kind": "order", "children": '
        '[{"kind": "entity", "slot": "city"}]}}'
    )
    (tmp / "lexicon.json").write_bytes(data)
    code = main([
        "generate", "--trees", str(tmp / "x.east.json"),
        "--lexicon", str(tmp / "lexicon.json"), "--no-embeddings",
        "--seed", "1", "--count", "2", "--out", str(tmp / "out.conll"),
    ])
    assert code in (0, 1)


_table_rows = st.lists(
    st.tuples(st.sampled_from(["oslo", "rome", "x", ""]),
              st.lists(st.sampled_from(["1", "0", "-2.5", "0.5", "nan", "y"]),
                       min_size=1, max_size=2)),
    min_size=1, max_size=4,
).map(lambda rows: "".join(" ".join([t, *cells]) + "\n" for t, cells in rows).encode())


@settings(max_examples=40, deadline=None)
@given(st.binary(max_size=64) | _table_rows)
def test_cli_generate_any_embedding_bytes_twice(tmp_path_factory, data):
    """The second run reads whatever the first one cached: both exit 0 or 1,
    print the same and write the same."""
    tmp = tmp_path_factory.mktemp("fuzz")
    (tmp / "x.east.json").write_text(
        '{"intent": "x", "root": {"kind": "order", "children": '
        '[{"kind": "entity", "slot": "city"}]}}'
    )
    (tmp / "lexicon.json").write_text('{"city": {"oslo": 1, "rome": 2}}')
    (tmp / "table.txt").write_bytes(data)
    runs = []
    with mock.patch.dict(os.environ, {"XDG_CACHE_HOME": str(tmp / "cache")}):
        for run in range(2):
            out = tmp / f"out{run}.conll"
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main([
                    "generate", "--trees", str(tmp / "x.east.json"),
                    "--lexicon", str(tmp / "lexicon.json"), "--embeddings", str(tmp / "table.txt"),
                    "--seed", "1", "--count", "4", "--out", str(out),
                ])
            assert code in (0, 1)
            runs.append((code, stderr.getvalue(), out.read_bytes() if out.exists() else None))
    assert runs[0] == runs[1]
