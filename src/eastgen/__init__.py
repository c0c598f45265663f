"""Induce entity-aware syntax trees from annotated corpora and use them to
generate labeled synthetic training sentences for intent detection and
slot filling, with a regex-export baseline and support for hand-authored
trees."""

__version__ = "0.1.0"

from .builder import (
    BuilderConfig,
    build,
    determine_main_entities,
    entity_occurrence,
)
from .corpus import (
    AnnotatedSentence,
    Dataset,
    EntityLexicon,
    SentenceTemplate,
    abstract_entities,
    build_dataset,
    parse_conll,
    parse_lexicon,
    parse_records,
)
from .east import (
    East,
    Node,
    deserialize,
    entity,
    exchangeable,
    fixed,
    order,
    pick_one,
    serialize,
    validate,
)
from .embeddings import EmbeddingTable, k_nearest, load_embeddings
from .errors import EastgenError
from .generator import (
    GenerationConfig,
    GenerationStats,
    emit,
    generate_batch,
    generate_one,
)
from .regex_export import RegexBundle, export_regex, match

__all__ = [
    "AnnotatedSentence",
    "BuilderConfig",
    "Dataset",
    "East",
    "EastgenError",
    "EmbeddingTable",
    "EntityLexicon",
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
]
