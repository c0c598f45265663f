"""The public surface: the names `from eastgen import *` binds.

A name removed from the library, or one left in `__all__` after its code
is gone, changes this set, so every change to the public API is also an
edit to this file.
"""

import eastgen

PUBLIC = {
    "AnnotatedSentence",
    "BuilderConfig",
    "Dataset",
    "East",
    "EastgenError",
    "EmbeddingTable",
    "EntityLexicon",
    "GeneratedSentence",
    "GenerationConfig",
    "GenerationStats",
    "Node",
    "RegexBundle",
    "SentenceTemplate",
    "abstract_entities",
    "build",
    "build_dataset",
    "deserialize",
    "determine_main_entities",
    "emit",
    "entity",
    "entity_occurrence",
    "exchangeable",
    "export_regex",
    "fixed",
    "generate_batch",
    "generate_one",
    "k_nearest",
    "load_embeddings",
    "match",
    "order",
    "parse_conll",
    "parse_lexicon",
    "parse_records",
    "pick_one",
    "serialize",
    "validate",
}


def test_star_import_binds_the_pinned_names():
    assert len(eastgen.__all__) == len(set(eastgen.__all__))
    assert set(eastgen.__all__) == PUBLIC
    namespace: dict = {}
    exec("from eastgen import *", namespace)  # a stale name raises AttributeError
    assert set(namespace) - {"__builtins__"} == PUBLIC
