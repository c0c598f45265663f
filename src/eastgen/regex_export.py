"""Lower a tree to an equivalent set of anchored regular expressions.

The dialect is deliberately tiny: escaped literals, non-capturing groups,
alternation, optionality and anchors, plus one named group per entity
occurrence. The tree language is finite, so no repetition or
backreferences are needed. Weights and dropout probabilities are not
representable; a dropout-able node simply lowers to an optional group.

Slot groups are named g0, g1, ... with a per-pattern mapping back to slot
labels: one slot can occur several times in a pattern (Python rejects
duplicate group names) and slot labels need not be valid identifiers.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from itertools import permutations
from typing import Sequence

from .corpus import INTENT_HEADER, EntityLexicon, is_intent, is_token, json_fault
from .east import (
    East, ENTITY, EXCHANGEABLE, FIXED, Node, ORDER, PICKONE, may_expand_empty,
)
from .errors import EastgenError, MissingLexiconError

DIALECT_NOTE = (
    "anchored Python re: escaped literals, (?:...) groups, (?P<gN>...) "
    "slot groups, alternation |, optional ?"
)


@dataclass
class RegexBundle:
    """Ordered patterns for one intent plus group-name -> slot mappings."""

    intent: str
    patterns: list[str]
    group_slots: list[dict[str, str]]
    _compiled: list[re.Pattern] | None = field(default=None, repr=False, compare=False)

    def compiled(self) -> list[re.Pattern]:
        if self._compiled is None:
            self._compiled = [re.compile(p) for p in self.patterns]
        return self._compiled


def _escape(text: str) -> str:
    # re.escape backslashes spaces; bare spaces match themselves and read better
    return re.escape(text).replace("\\ ", " ")


def _alternation(parts: list[str]) -> str:
    # parts never carry top-level '|' (nested alternations are wrapped)
    if len(parts) == 1:
        return parts[0]
    return "(?:" + "|".join(parts) + ")"


class _Lowering:
    """Stateful lowering; every entity occurrence gets a fresh group name."""

    def __init__(self, lexicon: EntityLexicon):
        self.lexicon = lexicon
        self.groups: dict[str, str] = {}

    def lower(self, node: Node) -> str:
        """Pattern matching exactly the node's non-empty expansions."""
        if node.kind == FIXED:
            return _alternation(sorted(_escape(p) for p in node.dictionary))
        if node.kind == ENTITY:
            forms = self.lexicon.forms(node.slot)
            if not forms:
                raise MissingLexiconError(node.slot)
            name = f"g{len(self.groups)}"
            self.groups[name] = node.slot
            return f"(?P<{name}>" + "|".join(_escape(f) for f in sorted(forms)) + ")"
        if node.kind == PICKONE:
            return _alternation([self.lower(c) for c in node.children])
        if node.kind == ORDER:
            return self.sequence(node.children)
        if node.kind == EXCHANGEABLE:
            return _alternation([self.sequence(p) for p in permutations(node.children)])
        raise EastgenError(f"cannot lower node kind {node.kind!r}")

    def sequence(self, nodes: Sequence[Node]) -> str:
        """Space-joined sequence; optional elements keep their separating
        space inside the optional group.

        When every element can be absent the join becomes an alternation
        on the first element actually present, so stray separators never
        leak into the match.
        """
        empty_flags = [may_expand_empty(n) for n in nodes]
        mandatory = [i for i, e in enumerate(empty_flags) if not e]
        if mandatory:
            m = mandatory[0]
            parts = [f"(?:{self.lower(n)} )?" for n in nodes[:m]]
            parts.append(self.lower(nodes[m]))
            for n, e in zip(nodes[m + 1:], empty_flags[m + 1:]):
                parts.append(f"(?: {self.lower(n)})?" if e else f" {self.lower(n)}")
            return "".join(parts)
        alts = []
        for i in range(len(nodes)):
            first = self.lower(nodes[i])
            rest = "".join(f"(?: {self.lower(n)})?" for n in nodes[i + 1:])
            alts.append(first + rest)
        return _alternation(alts) if alts else ""


def export_regex(tree: East, lexicon: EntityLexicon) -> RegexBundle:
    """One anchored pattern per root-level pick-one branch (else a single one)."""
    roots = tree.root.children if tree.root.kind == PICKONE else (tree.root,)
    patterns: list[str] = []
    group_slots: list[dict[str, str]] = []
    for node in roots:
        lowering = _Lowering(lexicon)
        core = lowering.lower(node)
        if may_expand_empty(node):
            patterns.append(f"^(?:{core})?$" if core else "^$")
        else:
            patterns.append(f"^{core}$")
        group_slots.append(lowering.groups)
    bundle = RegexBundle(tree.intent, patterns, group_slots)
    bundle.compiled()  # every emitted pattern must compile
    return bundle


def match(
    bundle: RegexBundle, tokens: Sequence[str]
) -> tuple[str, list[str]] | None:
    """First fully-matching pattern wins; named groups map back to IOB tags."""
    joined = " ".join(tokens)
    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    offset = 0
    for i, token in enumerate(tokens):
        starts[offset] = i
        ends[offset + len(token)] = i
        offset += len(token) + 1

    for pattern, groups in zip(bundle.compiled(), bundle.group_slots):
        m = pattern.fullmatch(joined)
        if m is None:
            continue
        slots = ["O"] * len(tokens)
        for name, slot in groups.items():
            begin, end = m.span(name)
            if begin < 0 or begin == end:
                continue  # group sits in a non-participating alternative
            first = starts.get(begin)
            last = ends.get(end)
            if first is None or last is None:
                continue  # hand-written pattern not aligned to token bounds
            slots[first] = f"B-{slot}"
            for i in range(first + 1, last + 1):
                slots[i] = f"I-{slot}"
        return bundle.intent, slots
    return None


# --- bundle files -----------------------------------------------------------


def dump_bundle(bundle: RegexBundle) -> str:
    lines = [f"{INTENT_HEADER} {bundle.intent}", f"# dialect: {DIALECT_NOTE}"]
    for pattern, groups in zip(bundle.patterns, bundle.group_slots):
        if groups:
            lines.append("# groups: " + json.dumps(groups, ensure_ascii=False))
        lines.append(pattern)
    return "\n".join(lines) + "\n"


def load_bundle(text: str) -> RegexBundle:
    intent: str | None = None
    compiled: list[re.Pattern] = []
    group_slots: list[dict[str, str]] = []
    pending_groups: dict[str, str] = {}
    groups_line: int | None = None  # the line of pending_groups, until its pattern
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith(INTENT_HEADER):
            if intent is not None:
                raise EastgenError(
                    f"bundle line {lineno}: a second {INTENT_HEADER!r} header")
            intent = line[len(INTENT_HEADER):].strip()
            if not is_intent(intent):
                raise EastgenError(f"bundle line {lineno}: intent must be one "
                                   f"non-empty trimmed line, got {intent!r}")
        elif line.startswith("# groups:"):
            if groups_line is not None:
                raise EastgenError(f"bundle line {groups_line}: groups without a pattern")
            groups_line = lineno
            try:
                pending_groups = json.loads(line[len("# groups:"):])
            except (ValueError, RecursionError) as exc:
                raise EastgenError(f"bundle line {lineno}: {json_fault(exc)}") from exc
            if not (isinstance(pending_groups, dict)
                    and all(isinstance(slot, str) for slot in pending_groups.values())):
                raise EastgenError(f"bundle line {lineno}: groups must be an object of slots")
            if bad := [slot for slot in pending_groups.values() if not is_token(slot)]:
                raise EastgenError(f"bundle line {lineno}: malformed slot label {bad[0]!r}")
        elif line.startswith("#"):
            continue
        else:
            try:
                pattern = re.compile(line)
            except (re.error, RecursionError, OverflowError) as exc:
                raise EastgenError(f"bundle line {lineno}: bad pattern: {exc}") from exc
            if missing := set(pending_groups).difference(pattern.groupindex):
                raise EastgenError(f"bundle line {lineno}: unknown group {min(missing)!r}")
            compiled.append(pattern)
            group_slots.append(pending_groups)
            pending_groups, groups_line = {}, None
    if groups_line is not None:
        raise EastgenError(f"bundle line {groups_line}: groups without a pattern")
    if intent is None:
        raise EastgenError(f"bundle file has no {INTENT_HEADER!r} header")
    return RegexBundle(intent, [p.pattern for p in compiled], group_slots, compiled)
