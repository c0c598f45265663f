"""Automatic tree construction from a parsed dataset.

Per intent the pipeline is: measure entity occurrence, pick the main
entities, then build the tree in one pass over the templates. Each template
is cut at its main entities once; the spine is the most common
main-entity arrangement; adjacent spine pairs that templates realize in
both orders are planned as swaps; every template's literal runs merge into
the regions between spine entities, and the retained counts give the
weights and dropout. As the tree is lowered, planned swaps and any other
adjacent entity leaves whose labels templates realize next to each other
in both orders become exchangeable nodes.

Templates whose main-entity sequence cannot be aligned with the spine
(even allowing the planned swaps) are kept intact as alternatives under a
pick-one at the root.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import zip_longest
from typing import Iterable, Sequence

from .corpus import Dataset, SentenceTemplate
from .east import (
    East,
    Node,
    check_valid,
    entity,
    exchangeable,
    fixed,
    order,
    pick_one,
)

log = logging.getLogger(__name__)

# a run is the material between two spine entities: its non-main entity
# labels and the phrases around them, in SentenceTemplate's (labels, phrases)
# form
Run = tuple[tuple[str, ...], tuple[str, ...]]
_EMPTY: Run = ((), ("",))
Pairs = frozenset[tuple[str, str]]


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
        for label in dict.fromkeys(template.labels):
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


def _template_profile(
    template: SentenceTemplate, main: frozenset[str]
) -> tuple[tuple[str, ...], tuple[Run, ...]]:
    """Cut a template at its main-entity placeholders.

    Returns the main-entity label sequence and the len(labels)+1 runs of
    material around them (non-main placeholders stay inside runs).
    """
    labels, phrases = template.labels, template.phrases
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


class _Alignment:
    """Accumulator for one entity arrangement: counts per region run."""

    def __init__(self, labels: tuple[str, ...]):
        self.labels = labels
        self.regions = [Counter() for _ in range(len(labels) + 1)]
        self.count = 0

    def add(self, runs: tuple[Run, ...], count: int) -> None:
        self.count += count
        for region, run in zip(self.regions, runs):
            region[run] += count


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
    swapsets: Sequence[frozenset[int] | None], runs: Sequence[tuple[Run, ...]]
) -> frozenset[int]:
    """Adjacent spine transpositions that may merge and later become
    exchangeable nodes.

    A pair stays accepted only while both orders are realized by templates
    that feed the spine; the loop re-evaluates until stable because
    dropping a pair reclassifies its templates as branches.
    """
    accepted = _greedy_disjoint(p for s in swapsets if s for p in s)
    while True:
        cohort = [s for s, r in zip(swapsets, runs) if _feeds_spine(s, r, accepted)]
        stable = frozenset(
            p
            for p in accepted
            if any(p in s for s in cohort) and any(p not in s for s in cohort)
        )
        if stable == accepted:
            return accepted
        accepted = stable


def _interleave(
    labels: tuple[str, ...],
    fills: Iterable[Node | None],
    weight: float,
    reversible: Pairs,
    swaps: frozenset[int] = frozenset(),
) -> Node:
    """An order of entity leaves with each fill that is not None in the gap
    before its leaf; the last fill follows the last leaf. The leaves at each
    swap position p and p + 1 become one exchangeable node; the gap between
    them must be empty. Left to right, a leaf that starts no swap joins the
    entity leaf right before it in an exchangeable node when their pair is
    reversible."""
    children: list[Node] = []
    for i, (fill, label) in enumerate(zip_longest(fills, labels)):
        if fill is not None:
            children.append(fill)
        # only an entity leaf has a slot
        if i - 1 in swaps or (
            i not in swaps and children and (children[-1].slot, label) in reversible
        ):
            children[-1] = exchangeable(children[-1], entity(label))
        elif label is not None:
            children.append(entity(label))
    return order(*children, weight=weight)


def _group_node(
    labels: tuple[str, ...],
    rows: list[tuple[tuple[str, ...], int]],
    weight: float,
    reversible: Pairs,
) -> Node:
    """One run shape: (phrases, count) rows that share labels and empty gaps."""
    gaps: list[dict[str, int]] = [{} for _ in range(len(labels) + 1)]
    for phrases, count in rows:
        for gap, phrase in zip(gaps, phrases):
            if phrase:
                gap[phrase] = gap.get(phrase, 0) + count
    if not labels:
        return fixed(gaps[0], weight=weight)
    fills = (fixed(gap) if gap else None for gap in gaps)
    return _interleave(labels, fills, weight, reversible)


def _region_node(runs: Counter, sentence_count: int, reversible: Pairs) -> Node | None:
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
        return replace(_group_node(labels, rows, 1.0, reversible), dropout=dropout)
    children = tuple(
        _group_node(labels, rows, sum(c for _, c in rows) / present_total, reversible)
        for (labels, _), rows in groups.items()
    )
    return pick_one(*children, dropout=dropout)


def _alignment_node(
    alignment: _Alignment,
    weight: float,
    reversible: Pairs,
    swaps: frozenset[int] = frozenset(),
) -> Node:
    regions = (_region_node(r, alignment.count, reversible) for r in alignment.regions)
    return _interleave(alignment.labels, regions, weight, reversible, swaps)


def _intent_tree(
    intent: str, main: Sequence[str], templates: Sequence[SentenceTemplate]
) -> East:
    """The tree of one intent.

    The spine is the multiplicity-weighted modal main-entity arrangement,
    ties going to the earliest template's. A template whose main-entity
    sequence equals the spine (possibly via planned swaps, with nothing
    between the swapped entities) feeds the spine regions; anything else
    merges into a root-level branch keyed by its full placeholder sequence.
    Weights normalize per pick-one sibling set; dropout divides empty-run
    counts by the alignment's sentence count.
    """
    main_set = frozenset(main)
    arrangements, runs = zip(*(_template_profile(t, main_set) for t in templates))

    seq_counts: dict[tuple[str, ...], int] = {}
    for template, labels in zip(templates, arrangements):
        seq_counts[labels] = seq_counts.get(labels, 0) + template.source_count
    # max keeps the first of equal counts, and dicts keep first-seen order
    spine = _Alignment(max(seq_counts, key=seq_counts.__getitem__))
    swapsets = [_swap_decomposition(labels, spine.labels) for labels in arrangements]
    swaps = _plan_swaps(swapsets, runs)
    # label pairs with no literal between; reversible ones also occur reversed
    adjacent = {
        pair for t in templates
        for pair, gap in zip(zip(t.labels, t.labels[1:]), t.phrases[1:]) if not gap
    }
    reversible = frozenset((a, b) for a, b in adjacent if a != b and (b, a) in adjacent)

    branches: dict[tuple[str, ...], _Alignment] = {}
    for template, swapset, template_runs in zip(templates, swapsets, runs):
        if _feeds_spine(swapset, template_runs, swaps):
            spine.add(template_runs, template.source_count)
            continue
        branch = branches.get(template.labels)
        if branch is None:
            branch = branches[template.labels] = _Alignment(template.labels)
        gaps = tuple(((), (phrase,)) for phrase in template.phrases)
        branch.add(gaps, template.source_count)

    # the spine is never empty: a planned swap stays planned only while some
    # template feeding the spine keeps the spine's order at that pair
    if not branches:
        return East(intent, _alignment_node(spine, 1.0, reversible, swaps))
    total = sum(t.source_count for t in templates)
    return East(intent, pick_one(
        _alignment_node(spine, spine.count / total, reversible, swaps),
        *(_alignment_node(b, b.count / total, reversible) for b in branches.values()),
    ))


def build(dataset: Dataset, config: BuilderConfig | None = None) -> dict[str, East]:
    """Construct one validated tree per intent in the dataset."""
    config = config or BuilderConfig()
    trees: dict[str, East] = {}
    for intent, templates in dataset.by_intent.items():
        if not templates:
            log.warning("intent %r has no templates; skipped", intent)
            continue
        occ = entity_occurrence(templates)
        main = determine_main_entities(occ, config.main_entity_threshold) if occ else []
        if config.singleton_main:
            main = main[:1]
        trees[intent] = check_valid(_intent_tree(intent, main, templates))
    return trees
