"""Entity-aware syntax tree model: validation and JSON round trip.

A tree has one intent and an ordered node structure. Control nodes steer
traversal (order = concatenate children, pickone = choose one child,
exchangeable = children in any order); content leaves emit tokens (fixed =
a phrase from a counted dictionary, entity = a slot-tagged surface form).
Every node carries a weight in (0, 1] and an optional dropout in [0, 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Iterator

from .corpus import FLOAT_MAX, is_intent, is_phrase, is_token, json_fault
from .errors import TreeSchemaError, TreeValidationError

ORDER = "order"
PICKONE = "pickone"
EXCHANGEABLE = "exchangeable"
FIXED = "fixed"
ENTITY = "entity"

# the one payload field each node kind carries; validate rejects the others
_CARRIES = {ORDER: "children", PICKONE: "children", EXCHANGEABLE: "children",
            FIXED: "dictionary", ENTITY: "slot"}
ROOT_KINDS = (ORDER, PICKONE)

WEIGHT_SUM_TOLERANCE = 1e-9
# every walker recurses, the sampler's closures about two frames a level
# (about 200 at this depth); this bound keeps them all far from Python's
# recursion limit
MAX_DEPTH = 100
MAX_EXCHANGEABLE = 6  # regex export expands all n! child orders


@dataclass(frozen=True)
class Node:
    kind: str
    weight: float = 1.0
    dropout: float | None = None
    children: tuple["Node", ...] = ()
    dictionary: dict[str, int] | None = None
    slot: str | None = None


def order(*children: Node, weight: float = 1.0, dropout: float | None = None) -> Node:
    return Node(ORDER, weight, dropout, children=tuple(children))


def pick_one(*children: Node, weight: float = 1.0, dropout: float | None = None) -> Node:
    return Node(PICKONE, weight, dropout, children=tuple(children))


def exchangeable(
    *children: Node, weight: float = 1.0, dropout: float | None = None
) -> Node:
    return Node(EXCHANGEABLE, weight, dropout, children=tuple(children))


def fixed(
    dictionary: dict[str, int], weight: float = 1.0, dropout: float | None = None
) -> Node:
    return Node(FIXED, weight, dropout, dictionary=dict(dictionary))


def entity(slot: str, weight: float = 1.0) -> Node:
    return Node(ENTITY, weight, slot=slot)


@dataclass(frozen=True)
class East:
    intent: str
    root: Node


def iter_nodes(tree: East) -> Iterator[tuple[str, Node]]:
    """Yield (path, node) pairs in pre-order; paths look like root.children[1]."""
    stack = [("root", tree.root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in range(len(node.children) - 1, -1, -1):
            stack.append((f"{path}.children[{i}]", node.children[i]))


def entity_slots(tree: East) -> set[str]:
    return {node.slot for _, node in iter_nodes(tree) if node.kind == ENTITY}


def may_expand_empty(node: Node) -> bool:
    """Whether the subtree under `node` can draw no tokens when dropout
    applies. Every weight is positive and every dropout below 1, so such a
    draw has a positive chance: a node with dropout may be skipped, a
    pick-one may pick a child that draws nothing, and an order or
    exchangeable node draws nothing when every child can."""
    if node.dropout:
        return True
    if node.kind == PICKONE:
        return any(may_expand_empty(c) for c in node.children)
    if node.kind in (ORDER, EXCHANGEABLE):
        return all(may_expand_empty(c) for c in node.children)
    return False


def _is_number(value) -> bool:
    # JSON true/false load as bool, which is an int subclass
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate(tree: East) -> list[str]:
    """Return one message per broken invariant; an empty list means valid."""
    violations: list[str] = []
    if not is_intent(tree.intent):
        violations.append(
            f"root: intent must be one non-empty trimmed line, got {tree.intent!r}"
        )
    if tree.root.kind not in ROOT_KINDS:
        violations.append(f"root: root kind must be order or pickone, got {tree.root.kind!r}")

    for path, node in iter_nodes(tree):
        if not isinstance(node.kind, str) or node.kind not in _CARRIES:
            violations.append(f"{path}: unknown kind {node.kind!r}")
            continue
        if path.count("[") == MAX_DEPTH + 1:
            violations.append(f"{path}: nested deeper than {MAX_DEPTH} levels")
        if not _is_number(node.weight) or not 0 < node.weight <= 1:
            violations.append(f"{path}: weight {node.weight!r} outside (0, 1]")
        if node.dropout is not None and not (
            _is_number(node.dropout) and 0 <= node.dropout < 1
        ):
            violations.append(f"{path}: dropout {node.dropout!r} outside [0, 1)")

        carried = _CARRIES[node.kind]
        for name, value in (("children", node.children or None),
                            ("dictionary", node.dictionary), ("slot", node.slot)):
            if name == carried and not value:
                violations.append(f"{path}: {node.kind} node has no {name}")
            elif name != carried and value is not None:
                violations.append(f"{path}: {node.kind} node must not have {name}")

        if node.kind == FIXED:
            for phrase, count in (node.dictionary or {}).items():
                if not is_phrase(phrase):
                    violations.append(f"{path}: malformed phrase {phrase!r}")
                if not (_is_number(count) and isinstance(count, int)) or count < 1:
                    violations.append(
                        f"{path}: phrase {phrase!r} count {count!r} "
                        "is not an integer >= 1"
                    )
            counts = (node.dictionary or {}).values()
            try:  # the draw total: a float plus an int beyond its range overflows
                beyond = all(map(_is_number, counts)) and sum(counts) > FLOAT_MAX
            except OverflowError:
                beyond = True
            if beyond:
                violations.append(f"{path}: phrase counts total beyond the float range")
        elif node.kind == ENTITY:
            if node.slot and not is_token(node.slot):
                violations.append(f"{path}: malformed slot label {node.slot!r}")
            if node.dropout is not None:
                violations.append(f"{path}: entity node must not have dropout")
        elif node.kind == EXCHANGEABLE and len(node.children) > MAX_EXCHANGEABLE:
            violations.append(f"{path}: more than {MAX_EXCHANGEABLE} exchangeable children")
        elif node.kind == PICKONE:
            total = sum(c.weight for c in node.children if _is_number(c.weight))
            if node.children and abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
                violations.append(
                    f"{path}: pickone child weights sum to {total!r}, expected 1"
                )
    return violations


def check_valid(tree: East) -> East:
    """Raise TreeValidationError unless the tree is valid; returns it otherwise."""
    violations = validate(tree)
    if violations:
        raise TreeValidationError(violations)
    return tree


# --- serialization ---------------------------------------------------------

_NODE_FIELDS = {"kind", "weight", "dropout", "children", "dictionary", "slot"}


def _node_to_obj(node: Node) -> dict:
    obj: dict = {"kind": node.kind, "weight": node.weight}
    if node.dropout is not None:
        obj["dropout"] = node.dropout
    if node.children:
        obj["children"] = [_node_to_obj(c) for c in node.children]
    if node.dictionary is not None:
        obj["dictionary"] = dict(node.dictionary)
    if node.slot is not None:
        obj["slot"] = node.slot
    return obj


def serialize(tree: East) -> str:
    """Render a tree as a JSON document (inverse of deserialize)."""
    doc = {"intent": tree.intent, "root": _node_to_obj(tree.root)}
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _parse_node(obj, path: str, depth: int = 0) -> Node:
    if not isinstance(obj, dict):
        raise TreeSchemaError("node must be an object", path)
    if depth > MAX_DEPTH:
        raise TreeSchemaError(f"nested deeper than {MAX_DEPTH} levels", path)
    unknown = set(obj) - _NODE_FIELDS
    if unknown:
        raise TreeSchemaError(f"unknown fields {sorted(unknown)}", path)
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _CARRIES:
        raise TreeSchemaError(f"unknown node kind {kind!r}", path)

    weight, dropout = obj.get("weight"), obj.get("dropout")
    for key, value in (("weight", weight), ("dropout", dropout)):
        if value is not None and not (_is_number(value) and abs(value) <= FLOAT_MAX):
            raise TreeSchemaError(f"{key} must be a finite number, got {value!r}", path)

    # read whatever the kind: validate judges which of them a node may carry
    raw_children = [] if obj.get("children") is None else obj["children"]
    if not isinstance(raw_children, list):
        raise TreeSchemaError("children must be an array", path)
    children = tuple(
        _parse_node(c, f"{path}.children[{i}]", depth + 1)
        for i, c in enumerate(raw_children)
    )
    if kind == PICKONE:
        children = _distribute_pickone_weights(children, raw_children)
    dictionary = obj.get("dictionary")
    if dictionary is not None and not isinstance(dictionary, dict):
        raise TreeSchemaError("dictionary must be an object", path)
    for phrase, count in (dictionary or {}).items():
        if not isinstance(count, int) or isinstance(count, bool):
            raise TreeSchemaError(f"dictionary count for {phrase!r} must be an integer", path)
    slot = obj.get("slot")
    if slot is not None and not isinstance(slot, str):
        raise TreeSchemaError("slot must be a string", path)

    return Node(kind=kind, weight=float(weight) if weight is not None else 1.0,
                dropout=float(dropout) if dropout is not None else None,
                children=children, dictionary=dictionary, slot=slot)


def _distribute_pickone_weights(children: tuple[Node, ...], raw: list) -> tuple[Node, ...]:
    # hand-authored documents may omit weights (absent or null); unspecified
    # siblings share the probability mass the specified ones leave over
    unspecified = [obj.get("weight") is None for obj in raw]
    if not any(unspecified):
        return children
    remaining = 1.0 - sum(
        c.weight for c, free in zip(children, unspecified) if not free
    )
    share = remaining / sum(unspecified)
    return tuple(replace(c, weight=share) if free else c
                 for c, free in zip(children, unspecified))


def deserialize(text: str) -> East:
    """Parse and validate a tree document; raises on schema or invariant errors."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise TreeSchemaError(f"invalid document: {json_fault(exc)}", "root") from exc
    if not isinstance(doc, dict):
        raise TreeSchemaError("document must be an object", "root")
    unknown = set(doc) - {"intent", "root"}
    if unknown:
        raise TreeSchemaError(f"unknown fields {sorted(unknown)}", "root")
    intent = doc.get("intent")
    if not isinstance(intent, str):
        raise TreeSchemaError("intent must be a string", "root")
    if "root" not in doc:
        raise TreeSchemaError("missing root node", "root")
    tree = East(intent=intent, root=_parse_node(doc["root"], "root"))
    return check_valid(tree)
