"""Automatic tree construction from a parsed dataset.

Per intent the pipeline is: measure entity occurrence, pick the main
entities, lay out a spine of entity leaves (the most common main-entity
arrangement), merge every template's literal runs into the regions between
spine entities, then derive weights and dropout from the retained counts
and wrap reversible adjacent entity pairs in exchangeable nodes.

Templates whose main-entity sequence cannot be aligned with the spine
(even allowing adjacent transpositions that later become exchangeable
nodes) are kept intact as alternatives under a pick-one at the root.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence

from .corpus import Dataset, Literal, Placeholder, SentenceTemplate
from .east import (
    East,
    ENTITY,
    Node,
    ORDER,
    check_valid,
    entity,
    exchangeable,
    fixed,
    order,
    pick_one,
)

log = logging.getLogger(__name__)

# a run is the material between two spine entities, stored as (labels,
# phrases): its non-main entity labels and the len(labels) + 1 literal gaps
# around them, each gap's tokens joined by spaces; "" marks a gap without
# literals, which is unambiguous because a token is never empty
Run = tuple[tuple[str, ...], tuple[str, ...]]
_EMPTY: Run = ((), ("",))


@dataclass(frozen=True)
class BuilderConfig:
    """Knobs for tree construction; the threshold must lie in (0, 1)."""

    main_entity_threshold: float = 0.5
    # keep only the single highest-occurrence main entity instead of every
    # label above the threshold (alternative interpretation, off by default)
    singleton_main: bool = False

    def __post_init__(self):
        if not 0 < self.main_entity_threshold < 1:
            raise ValueError(
                f"main entity threshold {self.main_entity_threshold} outside (0, 1)"
            )


def entity_occurrence(templates: Sequence[SentenceTemplate]) -> dict[str, Fraction]:
    """Fraction of the group's sentences containing each slot label.

    Counts template multiplicity (source_count); exact rationals.
    """
    if not templates:
        raise ValueError("empty template group")
    total = sum(t.source_count for t in templates)
    counts: dict[str, int] = {}
    for template in templates:
        for label in dict.fromkeys(template.placeholder_labels()):
            counts[label] = counts.get(label, 0) + template.source_count
    return {label: Fraction(count, total) for label, count in counts.items()}


def determine_main_entities(occ: dict[str, Fraction], t: float) -> list[str]:
    """Labels with occurrence above t, most frequent first (ties lexicographic).

    When no label exceeds t, the single most frequent label is returned.
    """
    if not occ:
        raise ValueError("empty occurrence table")
    if not 0 < t < 1:
        raise ValueError(f"threshold {t} outside (0, 1)")
    ranked = sorted(occ, key=lambda label: (-occ[label], label))
    above = [label for label in ranked if occ[label] > t]
    return above if above else [ranked[0]]


def _split(template: SentenceTemplate) -> Run:
    """The template as one run: all its labels and the phrases around them."""
    labels: list[str] = []
    phrases: list[str] = []
    tokens: list[str] = []
    for segment in template.segments:
        if isinstance(segment, Literal):
            tokens.append(segment.text)
        else:
            labels.append(segment.label)
            phrases.append(" ".join(tokens))
            tokens = []
    phrases.append(" ".join(tokens))
    return tuple(labels), tuple(phrases)


def _template_profile(
    split: Run, main: frozenset[str]
) -> tuple[tuple[str, ...], tuple[Run, ...]]:
    """Cut a split template at its main-entity placeholders.

    Returns the main-entity label sequence and the len(labels)+1 runs of
    material around them (non-main placeholders stay inside runs).
    """
    labels, phrases = split
    cuts = [i for i, label in enumerate(labels) if label in main]
    bounds = [-1, *cuts, len(labels)]
    runs = tuple(
        (labels[a + 1:b], phrases[a + 1:b + 1]) for a, b in zip(bounds, bounds[1:])
    )
    return tuple(labels[i] for i in cuts), runs


def _swap_decomposition(
    seq: tuple[str, ...], spine: tuple[str, ...]
) -> frozenset[int] | None:
    """Positions i where swapping spine (i, i+1) yields seq, or None.

    Only disjoint adjacent transpositions of unequal labels qualify; an
    empty set means seq equals the spine.
    """
    if len(seq) != len(spine):
        return None
    pairs: set[int] = set()
    i = 0
    while i < len(spine):
        if seq[i] == spine[i]:
            i += 1
        elif (
            i + 1 < len(spine)
            and spine[i] != spine[i + 1]
            and seq[i] == spine[i + 1]
            and seq[i + 1] == spine[i]
        ):
            pairs.add(i)
            i += 2
        else:
            return None
    return frozenset(pairs)


def _greedy_disjoint(positions: Iterable[int]) -> frozenset[int]:
    kept: list[int] = []
    for p in sorted(set(positions)):
        if not kept or p - kept[-1] >= 2:
            kept.append(p)
    return frozenset(kept)


@dataclass
class _Alignment:
    """Accumulator for one entity arrangement: counts per region run."""

    labels: tuple[str, ...]
    regions: list[Counter] = field(default_factory=list)  # len(labels) + 1
    count: int = 0

    def __post_init__(self):
        if not self.regions:
            self.regions = [Counter() for _ in range(len(self.labels) + 1)]

    def add(self, runs: tuple[Run, ...], count: int) -> None:
        self.count += count
        for region, run in zip(self.regions, runs):
            region[run] += count


@dataclass
class TreeScaffold:
    """A tree under construction: the spine plan plus retained counts.

    Produced by skeleton(), fed through grow(), and turned into a
    finished tree by finalize_weights().
    """

    intent: str
    main: tuple[str, ...]
    spine: _Alignment
    swap_pairs: frozenset[int]
    branches: dict[tuple[str, ...], _Alignment] = field(default_factory=dict)

    @property
    def spine_labels(self) -> tuple[str, ...]:
        return self.spine.labels

    def initial_tree(self) -> East:
        """The bare spine as a tree: an order root over entity leaves."""
        return East(self.intent, order(*(entity(l) for l in self.spine.labels)))


def _feeds_spine(
    swaps: frozenset[int] | None, runs: tuple[Run, ...], accepted: frozenset[int]
) -> bool:
    """Whether a template with these swaps from the spine and these runs
    merges into the spine: it needs only accepted swaps, and no accepted
    pair has content between its two entities."""
    return (
        swaps is not None
        and swaps <= accepted
        and all(runs[p + 1] == _EMPTY for p in accepted)
    )


def _plan_swaps(
    spine: tuple[str, ...],
    profiles: Sequence[tuple[tuple[str, ...], tuple[Run, ...]]],
) -> frozenset[int]:
    """Adjacent spine transpositions that may merge and later become
    exchangeable nodes.

    A pair stays accepted only while both orders are realized by templates
    that feed the spine; the loop re-evaluates until stable because
    dropping a pair reclassifies its templates as branches.
    """
    swapsets = [_swap_decomposition(labels, spine) for labels, _ in profiles]
    candidates = {p for s in swapsets if s for p in s}
    accepted = _greedy_disjoint(candidates)
    while True:
        cohort = [
            i
            for i, (_, runs) in enumerate(profiles)
            if _feeds_spine(swapsets[i], runs, accepted)
        ]
        stable = frozenset(
            p
            for p in accepted
            if any(p in swapsets[i] for i in cohort)
            and any(p not in swapsets[i] for i in cohort)
        )
        if stable == accepted:
            return accepted
        accepted = stable


def skeleton(
    main: Sequence[str], templates: Sequence[SentenceTemplate], intent: str = ""
) -> TreeScaffold:
    """Plan the spine: the modal main-entity arrangement over the group.

    Multiplicity-weighted mode; ties resolve to the arrangement of the
    earliest template.
    """
    main_set = frozenset(main)
    profiles = [_template_profile(_split(t), main_set) for t in templates]

    seq_counts: dict[tuple[str, ...], int] = {}
    first_seen: dict[tuple[str, ...], int] = {}
    for i, (template, (labels, _)) in enumerate(zip(templates, profiles)):
        seq_counts[labels] = seq_counts.get(labels, 0) + template.source_count
        first_seen.setdefault(labels, i)
    spine = max(seq_counts, key=lambda s: (seq_counts[s], -first_seen[s]))

    return TreeScaffold(
        intent=intent,
        main=tuple(main),
        spine=_Alignment(spine),
        swap_pairs=_plan_swaps(spine, profiles),
    )


def grow(scaffold: TreeScaffold, template: SentenceTemplate) -> TreeScaffold:
    """Merge one template into the scaffold.

    A template whose main-entity sequence equals the spine (possibly via
    planned transpositions, with nothing between the swapped entities)
    feeds the spine regions; anything else merges into a root-level
    branch keyed by its full placeholder sequence.
    """
    split = _split(template)
    labels, runs = _template_profile(split, frozenset(scaffold.main))
    swaps = _swap_decomposition(labels, scaffold.spine.labels)
    if _feeds_spine(swaps, runs, scaffold.swap_pairs):
        scaffold.spine.add(runs, template.source_count)
        return scaffold

    full, phrases = split
    branch = scaffold.branches.get(full)
    if branch is None:
        branch = scaffold.branches[full] = _Alignment(full)
    branch.add(tuple(((), (phrase,)) for phrase in phrases), template.source_count)
    return scaffold


def _interleave(
    labels: tuple[str, ...], fills: Iterable[Node | None], weight: float
) -> Node:
    """An order of entity leaves with each fill that is not None in the gap
    before its leaf; the last fill follows the last leaf."""
    children = []
    for fill, label in zip_longest(fills, labels):
        if fill is not None:
            children.append(fill)
        if label is not None:
            children.append(entity(label))
    return order(*children, weight=weight)


def _group_node(
    labels: tuple[str, ...], rows: list[tuple[tuple[str, ...], int]], weight: float
) -> Node:
    """One run shape: (phrases, count) rows that share labels and empty gaps."""
    gaps: list[dict[str, int]] = [{} for _ in range(len(labels) + 1)]
    for phrases, count in rows:
        for gap, phrase in zip(gaps, phrases):
            if phrase:
                gap[phrase] = gap.get(phrase, 0) + count
    if not labels:
        return fixed(gaps[0], weight=weight)
    return _interleave(labels, (fixed(gap) if gap else None for gap in gaps), weight)


def _region_node(runs: Counter, sentence_count: int) -> Node | None:
    """Lower one region's observed runs to a node, or None if always empty.

    Multiple run shapes become a pick-one weighted by how often each was
    seen; sentences with nothing in the region contribute dropout.
    """
    empty = runs.get(_EMPTY, 0)
    present = [(run, count) for run, count in runs.items() if run != _EMPTY]
    if not present:
        return None
    present_total = sum(count for _, count in present)
    dropout = empty / sentence_count if empty else None

    groups: dict[tuple, list[tuple[tuple[str, ...], int]]] = {}
    for (labels, phrases), count in present:
        shape = (labels, tuple(map(bool, phrases)))
        groups.setdefault(shape, []).append((phrases, count))

    if len(groups) == 1:
        (labels, _), rows = next(iter(groups.items()))
        return replace(_group_node(labels, rows, 1.0), dropout=dropout)
    children = tuple(
        _group_node(labels, rows, sum(c for _, c in rows) / present_total)
        for (labels, _), rows in groups.items()
    )
    return pick_one(*children, dropout=dropout)


def _alignment_node(alignment: _Alignment, weight: float) -> Node:
    regions = (_region_node(r, alignment.count) for r in alignment.regions)
    return _interleave(alignment.labels, regions, weight)


def finalize_weights(scaffold: TreeScaffold, total_sentences: int) -> East:
    """Derive node weights and dropout from the retained counts.

    Weights normalize per pick-one sibling set; dropout divides empty-run
    counts by the alignment's sentence count. Exchangeable wrapping is a
    separate pass (detect_exchangeable).
    """
    alignments: list[_Alignment] = []
    if scaffold.spine.count:
        alignments.append(scaffold.spine)
    alignments.extend(scaffold.branches.values())
    grown = sum(a.count for a in alignments)
    if not grown:
        raise ValueError("nothing grown: no templates merged into this scaffold")
    if grown != total_sentences:
        raise ValueError(
            f"grown sentence count {grown} != stated total {total_sentences}"
        )

    if len(alignments) == 1:
        root = _alignment_node(alignments[0], 1.0)
    else:
        root = pick_one(
            *(_alignment_node(a, a.count / grown) for a in alignments)
        )
    return East(scaffold.intent, root)


def _wrap_planned_swaps(tree: East, scaffold: TreeScaffold) -> East:
    """Wrap each planned spine swap in an exchangeable node.

    grow() merged the swapped templates into the spine, so the planned pair
    must be the one wrapped. detect_exchangeable alone wraps the leftmost
    reversible pair, which loses the swapped order when an entity could
    pair either way (spine B A B with swap A B).
    """
    if not scaffold.swap_pairs:
        return tree
    # the spine is the first alignment; its direct entity children are the
    # spine labels in order, and the region between a swapped pair is empty
    spine = tree.root if tree.root.kind == ORDER else tree.root.children[0]
    children = list(spine.children)
    entities = [i for i, child in enumerate(children) if child.kind == ENTITY]
    for p in sorted(scaffold.swap_pairs, reverse=True):
        i = entities[p]
        children[i:i + 2] = [exchangeable(children[i], children[i + 1])]
    spine = replace(spine, children=tuple(children))
    if tree.root.kind == ORDER:
        return East(tree.intent, spine)
    root = replace(tree.root, children=(spine,) + tree.root.children[1:])
    return East(tree.intent, root)


def detect_exchangeable(tree: East, templates: Sequence[SentenceTemplate]) -> East:
    """Wrap adjacent entity-leaf pairs realized in both orders.

    A template realizes (A, B) when it contains an A placeholder directly
    followed by a B placeholder; pairs observed both ways become
    exchangeable nodes.
    """
    adjacent: set[tuple[str, str]] = set()
    for template in templates:
        for a, b in zip(template.segments, template.segments[1:]):
            if isinstance(a, Placeholder) and isinstance(b, Placeholder):
                adjacent.add((a.label, b.label))

    def rewrite(node):
        children = tuple(rewrite(c) for c in node.children)
        if node.kind == ORDER:
            wrapped = []
            i = 0
            while i < len(children):
                c = children[i]
                n = children[i + 1] if i + 1 < len(children) else None
                if (
                    n is not None
                    and c.kind == ENTITY
                    and n.kind == ENTITY
                    and c.slot != n.slot
                    and (c.slot, n.slot) in adjacent
                    and (n.slot, c.slot) in adjacent
                ):
                    wrapped.append(exchangeable(c, n))
                    i += 2
                else:
                    wrapped.append(c)
                    i += 1
            children = tuple(wrapped)
        return replace(node, children=children) if node.children else node

    return East(tree.intent, rewrite(tree.root))


def build(dataset: Dataset, config: BuilderConfig | None = None) -> dict[str, East]:
    """Construct one validated tree per intent in the dataset."""
    config = config or BuilderConfig()
    trees: dict[str, East] = {}
    for intent, templates in dataset.by_intent.items():
        if not templates:
            log.warning("intent %r has no templates; skipped", intent)
            continue
        occ = entity_occurrence(templates)
        if occ:
            main = determine_main_entities(occ, config.main_entity_threshold)
            if config.singleton_main:
                main = main[:1]
        else:
            main = []
        scaffold = skeleton(main, templates, intent=intent)
        for template in templates:
            grow(scaffold, template)
        total = sum(t.source_count for t in templates)
        tree = finalize_weights(scaffold, total)
        tree = _wrap_planned_swaps(tree, scaffold)
        tree = detect_exchangeable(tree, templates)
        trees[intent] = check_valid(tree)
    return trees
