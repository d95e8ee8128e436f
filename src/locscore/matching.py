"""One-to-one prediction/ground-truth assignment ahead of reward computation.

The matcher solves an exact rectangular minimum-cost assignment over a
box-driven cost (1 - IoU), optionally adding a flat label-mismatch penalty.
Among equal-cost optima, ties are broken canonically: scanning predictions in
emission order, each takes the lowest-indexed ground truth consistent with
some minimum-total-cost completion, and is left unassigned only when no such
completion assigns it.

One ``linear_sum_assignment`` call per cost matrix finds an optimal matching.
Shortest paths over that matching give dual potentials, and the edges whose
reduced cost is at most ``_COST_TIE_ATOL`` form the tight subgraph, whose
perfect matchings are exactly the optimal assignments. Walking predictions in
order, each is rotated along an alternating path of tight edges to the
lowest-indexed ground truth it can reach, which yields the lexicographically
first optimum with graph searches only. A pair changes only along an
alternating cycle of tight edges (Tassa 2012), so the rotation runs only
where some prediction has a tight ground truth below its own that a later
row holds (``_can_move``). IoUs come from ``geometry.iou_matrix``, the one
place IoU is computed.

An m x g slice is not padded to a square: its ``|m - g|`` zero-cost dummies
are interchangeable, so they collapse into one (Ramshaw & Tarjan 2012,
*On minimum-cost assignments in unbalanced bipartite graphs*). When m > g,
one dummy column D, which sorts after every real column, holds the m - g
predictions left out; when m < g, one dummy row R holds the g - m free
ground truths, and its Bellman-Ford term is the least potential among them.
A slice's dual pass and tight subgraph take m x (g + 1) cells, or (m + 1) x
g when m < g. Their reduced costs are the padded square's bit for bit (R's
are the least of the dummy rows', which all equal them once Bellman-Ford
settles), and so are the pairs.

``cost_matrices`` builds the matrices of a block of groups' predictions at
once, each row meeting only its own group's ground truths, and
``assign_slices`` matches each completion's slice of them on its own. The
slices of at most ``STACK_LIMIT`` rows and columns are solved one by one,
but their dual potentials, tight subgraphs and ``_can_move`` come from one
``(k, M + 1, G + 1)`` stack of their collapsed layouts, padded with
``+inf``: padding that leaves every slice's Bellman-Ford rounds and reduced
costs bit for bit those of the slice alone. ``match`` is
``cost_matrices`` and ``assign_slices`` for one list of predictions. Every
box, a prediction's or a ground truth's, is one float64 row of
``geometry.box_array``, so ``match`` and ``assignment_cost`` give one pair
one IoU, and an invalid box is named by its float coordinates.

The solver is scipy's compiled ``scipy.optimize._lsap``, loaded by itself so
that a start does not pay for ``scipy.optimize``'s eager package import; it is
the same function object that ``scipy.optimize`` exports.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import find_spec, module_from_spec
from typing import Iterable, Sequence

import numpy as np

from .errors import SpaceMismatchError
from .geometry import Box, CoordinateSpace, box_array, iou, iou_matrix, iou_pairs, validate_boxes
from .parsing import normalize_label

LABEL_MISMATCH_PENALTY = 1.0

# largest reduced cost (cost minus both dual potentials) of a pair counted as
# tight, i.e. as part of some optimal assignment; well above float rounding
# noise (~1e-15 for these sizes) and far below any meaningful cost difference
_COST_TIE_ATOL = 1e-9

# most rows or columns of a slice that ``assign_slices`` matches on one stack
# with the block's other small slices; a larger slice is matched alone, since
# padding the stack to its size costs more than the per-slice numpy calls the
# stack saves. Measured on 8 equal squares of uniform costs: the stack takes
# 0.65-0.87 of the one-by-one time up to 32 rows, 1.01-1.03 at 48 and 1.10
# at 64. On stream-dense's 2,314 slices above this limit (300 requests, seed
# 3), Bellman-Ford on one-square stacks took 127-139 ms against 85-108 ms
# alone; with collapsed layouts, sending every slice through stacks of 64
# still made its matcher 24% slower (390 against 315 ms). On the benchmark's
# captured blocks, limits of 12 to 32 differ by less than the noise, and 16
# keeps the stacks small (STACK_SQUARES)
STACK_LIMIT = 16
# most slices in one stack: 64 layouts of STACK_LIMIT + 1 rows and columns are
# 18,496 cells, so a stack's arrays peak near 1 MiB (all-equal costs, where
# every edge is tight) however many small slices a block holds
STACK_SQUARES = 64

_LSAP = "scipy.optimize._lsap"


def _load_linear_sum_assignment(scipy_dirs: Iterable[str]):
    """scipy's compiled ``linear_sum_assignment``, without ``scipy.optimize``.

    The extension module is looked for under ``optimize/`` in each of
    ``scipy_dirs`` (scipy's package directories) and registered under its own
    name before it runs, so a later ``import scipy.optimize`` reuses it; one
    already in ``sys.modules`` is used as it is.
    """
    module = sys.modules.get(_LSAP)
    if module is None:
        for directory in scipy_dirs:
            finder = FileFinder(os.path.join(directory, "optimize"), (ExtensionFileLoader, EXTENSION_SUFFIXES))
            spec = finder.find_spec(_LSAP)
            if spec is not None:
                break
        else:
            # a scipy build laid out otherwise: only one scipy release could be
            # checked offline, against a floor of scipy>=1.10
            from scipy.optimize import linear_sum_assignment

            return linear_sum_assignment
        module = module_from_spec(spec)
        sys.modules[_LSAP] = module
        spec.loader.exec_module(module)
    return module.linear_sum_assignment


# without scipy installed, the fallback import names the missing module
linear_sum_assignment = _load_linear_sum_assignment(getattr(find_spec("scipy"), "submodule_search_locations", ()))


class MatcherPolicy(str, Enum):
    BOX_ONLY = "box"
    BOX_AND_LABEL = "box-label"


@dataclass(frozen=True)
class GroundTruthInstance:
    label: str
    box: Box


class GroundTruthSet:
    """Annotated instances for one query; may be empty (negative sample).

    Held as each instance's label (``labels``) and one read-only (g, 4)
    float64 array of their corners (``coords``). ``GroundTruthSet(instances,
    space)``, ``from_pairs`` and ``from_arrays`` all make this one form and
    check it against ``space`` when the set is made, as the one-set case of
    ``ground_truth_faults``. Only the wire decoder makes sets unchecked
    (``_unchecked``), and they are checked before any is used: one at a
    time in ``parse_request`` and ``parse_sample``, a whole block with one
    ``ground_truth_faults`` call in the engine. ``instances`` is built from
    the array on first read, so its boxes hold floats. An invalid box is
    named by its coordinates as floats. Equality and hash are those of
    ``(instances, space)``, and the set is immutable.
    """

    def __init__(self, instances: Iterable[GroundTruthInstance], space: CoordinateSpace) -> None:
        instances = tuple(instances)
        self._hold([inst.label for inst in instances], box_array(inst.box for inst in instances), space)
        self._check()

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, Box]], space: CoordinateSpace) -> "GroundTruthSet":
        return cls(tuple(GroundTruthInstance(label, box) for label, box in pairs), space)

    @classmethod
    def from_arrays(
        cls,
        labels: Iterable[str],
        coords: np.ndarray | Sequence[Sequence[float]] | Sequence[float],
        space: CoordinateSpace,
    ) -> "GroundTruthSet":
        """The set of instance i with ``labels[i]`` and the box at row i of ``coords``, (g, 4) corners.

        ``coords`` may also be flat, four numbers per instance.
        """
        rows = np.array(coords, dtype=float).reshape(-1, 4)
        labels = tuple(labels)
        if len(labels) != len(rows):
            raise ValueError(f"{len(labels)} labels for {len(rows)} boxes")
        gt = cls._unchecked(labels, rows, space)
        gt._check()
        return gt

    @classmethod
    def _unchecked(cls, labels: Sequence[str], coords: np.ndarray, space: CoordinateSpace) -> "GroundTruthSet":
        """The set of ``labels`` and the (g, 4) float64 ``coords``, one row per label, not checked
        against ``space``: its maker checks it, alone or in a block, with ``ground_truth_faults``."""
        gt = cls.__new__(cls)
        gt._hold(labels, coords, space)
        return gt

    def _hold(self, labels: Sequence[str], coords: np.ndarray, space: CoordinateSpace) -> None:
        coords.flags.writeable = False
        vars(self).update(labels=tuple(labels), coords=coords, space=space)

    def _check(self) -> None:
        """Raise ``SpaceMismatchError`` naming the set's first box that is invalid in its space."""
        detail, = ground_truth_faults((self,))
        if detail is not None:
            raise SpaceMismatchError(detail)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable GroundTruthSet")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable GroundTruthSet")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.instances, self.space) == (other.instances, other.space)

    def __hash__(self) -> int:
        return hash((self.instances, self.space))

    def __repr__(self) -> str:
        return f"GroundTruthSet(instances={self.instances!r}, space={self.space!r})"

    def __len__(self) -> int:
        return len(self.labels)

    @cached_property
    def instances(self) -> tuple[GroundTruthInstance, ...]:
        return tuple(GroundTruthInstance(label, Box(*row)) for label, row in zip(self.labels, self.coords.tolist()))

    @cached_property
    def label_keys(self) -> tuple[str, ...]:
        """Each instance's ``normalize_label``, each distinct label normalized once."""
        keys = {label: normalize_label(label) for label in set(self.labels)}
        return tuple(map(keys.__getitem__, self.labels))

    @cached_property
    def by_label(self) -> dict[str, tuple[int, ...]]:
        """Normalized label -> instance indices, both in instance order."""
        groups: dict[str, list[int]] = {}
        for index, key in enumerate(self.label_keys):
            groups.setdefault(key, []).append(index)
        return {key: tuple(indices) for key, indices in groups.items()}


def ground_truth_faults(sets: Sequence[GroundTruthSet]) -> list[str | None]:
    """For each of ``sets``, the ``SpaceMismatchError`` text naming its first box that is
    invalid in its own space, or None when every box is valid.

    Every row of every set is checked by one ``validate_boxes`` call, each
    against its own set's extents; a set alone is the check its constructors
    make.
    """
    if not sets:
        return []
    if len(sets) == 1:  # a set alone, as the service and the constructors check it: no copy
        coords, space = sets[0].coords, sets[0].space
        max_x, max_y = space.max_x, space.max_y
    else:
        sizes = [len(gt) for gt in sets]
        coords = np.concatenate([gt.coords for gt in sets])
        max_x = np.repeat([gt.space.max_x for gt in sets], sizes)
        max_y = np.repeat([gt.space.max_y for gt in sets], sizes)
    faults: list[str | None] = [None] * len(sets)
    reasons = validate_boxes(coords, max_x, max_y)[1]
    if reasons:
        owners = np.repeat(np.arange(len(sets)), [len(gt) for gt in sets]).tolist()
        for row, reason in reasons.items():
            if faults[owners[row]] is None:
                faults[owners[row]] = f"ground-truth box {tuple(coords[row].tolist())} invalid in its space: {reason}"
    return faults


def label_spellings(gts: Iterable[GroundTruthSet]) -> dict[str, str]:
    """Normalized label -> its first spelling over ``gts``, in order of first appearance."""
    spellings: dict[str, str] = {}
    for gt in gts:
        for key, indices in gt.by_label.items():
            spellings.setdefault(key, gt.labels[indices[0]])
    return spellings


@dataclass(frozen=True)
class MatchedPrediction:
    """A prediction with its assigned ground truth (if any) and overlap."""

    box: Box
    label: str
    iou: float
    gt_index: int | None
    label_correct: bool


def assignment_cost(
    pred: tuple[str, Box],
    gt_instance: tuple[str, Box],
    policy: MatcherPolicy = MatcherPolicy.BOX_ONLY,
) -> float:
    """Pairwise cost: ``1 - IoU``, plus 1.0 when labels differ under box-label."""
    pred_label, pred_box = pred
    gt_label, gt_box = gt_instance
    cost = 1.0 - iou(pred_box, gt_box)
    if policy is MatcherPolicy.BOX_AND_LABEL and normalize_label(pred_label) != normalize_label(gt_label):
        cost += LABEL_MISMATCH_PENALTY
    return cost


def _reduced_costs(cost: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``c_ij - u_i - v_j`` on the collapsed layout of ``cost``, under dual
    potentials of its optimal matching ``i -> cols[i]``.

    The layout is the m x g cost and one dummy on its short side: column D
    (index g, cost 0) when m > g, which holds every row the matching leaves
    out (``cols[i] = g``); row R (index m, cost 0) when m < g, which holds
    every column it leaves free. They stand for the ``|m - g|`` dummy
    columns or rows that pad the cost to a square, and are exact: those
    columns share one slack column and so one potential, and those rows add
    the least potential of their columns to every column's relaxation,
    which is R's term. The column potentials are shortest paths (Jacobi
    Bellman-Ford) over ``v_j <= v_cols[i] + c_ij - c_i,cols[i]``, and ``u_i
    = c_i,cols[i] - v_cols[i]``. An optimal matching has no negative cycle,
    so a fixed point arrives within ``max(m, g)`` rounds; there every free
    column has R's potential, and R's reduced costs are every dummy row's.
    Short of it (the near ties of ``_stacked_reduced_costs``) they are the
    least of the dummy rows', cell by cell.
    """
    m, g = cost.shape
    slack = np.zeros((m + (m < g), g + (m > g)))
    slack[:m, :g] = cost
    slack[:m] -= slack[np.arange(m), cols][:, None]
    if m < g:
        free = np.ones(g, dtype=bool)
        free[cols] = False
    v = np.zeros(slack.shape[1])
    reduced = slack.copy()  # slack + v_cols[i], kept in step with v
    for _ in range(max(m, g)):
        relaxed = reduced.min(axis=0)
        if not (relaxed < v).any():
            break
        v = np.minimum(v, relaxed)
        np.add(slack[:m], v[cols][:, None], out=reduced[:m])
        if m < g:
            reduced[m] = v[free].min()
    reduced -= v
    return reduced


def _stacked_reduced_costs(
    cost: np.ndarray, spans: Sequence[tuple[int, int, int]]
) -> tuple[list[tuple[np.ndarray, np.ndarray]], np.ndarray, np.ndarray, np.ndarray]:
    """Each slice ``cost[lo:hi, :g]`` of ``spans`` (none empty) solved, and
    the ``_reduced_costs`` of all of them at once.

    Returns the solver's (rows, columns) of each slice; a ``(k, M + 1, G +
    1)`` stack, M and G the most rows and columns of any slice, whose layer
    ``s`` holds slice ``s``'s ``_reduced_costs`` in its top-left corner and
    ``+inf`` beyond it; each slice's matching as ``_reduced_costs`` reads it
    (``(k, M + 1)``, D's index beyond the slice's rows); and each layer's
    column holders as ``_can_move`` reads them (R's index for a free
    column).

    The ``+inf`` is inert: it meets no row or column of its slice, so every
    layer takes the same Bellman-Ford rounds as its slice alone and its
    corner is bit for bit ``_reduced_costs``. Each layer stops at its own
    ``max(m, g)`` rounds, not the stack's, because a slice need not settle
    within them: near ties can leave the solver's float optimum with a tiny
    negative cycle, along which the potentials keep falling by
    rounding-sized steps (about 1e-18). Run on, such a layer would leave the
    bits of its ``_reduced_costs``.
    """
    solved = [linear_sum_assignment(cost[lo:hi, :g]) for lo, hi, g in spans]
    lows, highs, widths = np.array(spans).T
    heights = highs - lows
    k, depth, width = len(spans), int(heights.max()) + 1, int(widths.max()) + 1
    which = np.repeat(np.arange(k), [len(rows) for rows, _ in solved])
    rows = np.concatenate([rows for rows, _ in solved])
    real_cols = np.concatenate([real for _, real in solved])
    cols = np.repeat(widths[:, None], depth, axis=1)  # rows left out hold D
    cols[which, rows] = real_cols
    owner = np.repeat(heights[:, None], width, axis=1)  # free columns are R's
    owner[which, real_cols] = rows
    base = np.zeros((k, depth))  # c_i,cols[i]: 0 at D, for R and beyond
    base[which, rows] = cost[lows[which] + rows, real_cols]
    slack = np.full((k, depth, width), np.inf)
    for layer, (lo, hi, g) in zip(slack, spans):
        layer[: hi - lo + (hi - lo < g), : g + (hi - lo > g)] = 0.0  # the slice with its D or R
        layer[: hi - lo, :g] = cost[lo:hi, :g]
    slack -= base[:, :, None]
    # each R's term: the least potential of its free columns, by reduceat over them
    with_r = np.flatnonzero(heights < widths)
    free = np.flatnonzero((owner == heights[:, None]) & (np.arange(width) < widths[:, None]))
    starts = np.searchsorted(free, with_r * width)
    r_rows = with_r * depth + heights[with_r]
    caps = np.maximum(heights, widths)
    flat = cols + width * np.arange(k)[:, None]  # v[s, cols[s]], read from the flat v
    v = np.zeros((k, width))
    reduced = slack.copy()  # slack + v_cols[i], kept in step with v
    for round_ in range(int(caps.max())):
        relaxed = reduced.min(axis=1)
        live = (relaxed < v).any(axis=1) & (round_ < caps)
        if not live.any():
            break
        np.minimum(v, relaxed, out=v, where=live[:, None])
        held = v.take(flat)
        if with_r.size:
            held.put(r_rows, np.minimum.reduceat(v.take(free), starts))
        np.add(slack, held[:, :, None], out=reduced)
    reduced -= v[:, None, :]
    return solved, reduced, cols, owner


def _can_move(rows: np.ndarray, columns: np.ndarray, held: np.ndarray, owner: np.ndarray) -> np.ndarray:
    """The rows at which ``_lexicographic_rotation`` can move a pair, given
    the tight edges ``(rows[e], columns[e])`` of a collapsed layout in which
    real row ``i`` holds column ``held[i]`` (-1 for R) and column ``j`` is
    held by row ``owner[j]`` (R's index for a free column): each real row,
    once per tight real column below its own that a later row holds, real
    or R.

    Without one, nothing moves, by induction over the rows: rows are fixed
    in order, and a row moves only to an unfixed tight column below its own;
    while nothing has moved, each tight column below row ``i``'s own belongs
    to an earlier row, which is fixed. D sorts after every real column, so
    no row moves to it. A stack of layouts is one block-diagonal layout
    here.
    """
    return rows[(columns < held[rows]) & (owner[columns] > rows)]


def _tight_lists(rows: np.ndarray, columns: np.ndarray, n: int) -> list[list[int]]:
    """Each row's tight columns, ascending, from the tight edges of an ``n``-row layout in row-major order."""
    ends = np.cumsum(np.bincount(rows, minlength=n)).tolist()
    flat = columns.tolist()
    return [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]


def _canonical_pairs(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost maximal assignment, canonical among cost ties.

    Exactly ``min(m, g)`` pairs are produced: scanning predictions (rows) in
    order, each takes the lowest ground truth (column) it holds in some
    optimal assignment that keeps the earlier choices, or none when every
    such optimum leaves it out. One solve gives an optimal matching, in
    which the rows it leaves out hold the dummy column D; its dual
    potentials on the collapsed layout (``_reduced_costs``) give the tight
    subgraph (reduced cost at most ``_COST_TIE_ATOL``), whose perfect
    matchings are the optimal assignments; each row then rotates the
    matching along an alternating path in that subgraph to its lowest
    reachable column. D sorts after every real column, so being assigned is
    preferred over being left out.

    The rotation runs only where ``_can_move`` finds a pair that can move.
    ``assign_slices`` reaches the same pairs on a stack of small matrices at
    once.
    """
    m, g = cost.shape
    if min(m, g) == 0:
        return []
    rows, real_cols = linear_sum_assignment(cost)
    cols = np.full(m, g)
    cols[rows] = real_cols
    reduced = _reduced_costs(cost, cols)
    if reduced.min() < -_COST_TIE_ATOL:
        # numeric safety net (unreachable in practice): infeasible duals mean
        # the solver's matching is not provably optimal; accept it as is
        return [(int(i), int(j)) for i, j in zip(rows, real_cols)]
    assigned = cols.tolist()
    tight_rows, tight_cols = np.nonzero(reduced <= _COST_TIE_ATOL)
    owner = np.full(reduced.shape[1], m)
    owner[real_cols] = rows
    if _can_move(tight_rows, tight_cols, np.append(cols, -1), owner).size:
        _lexicographic_rotation(_tight_lists(tight_rows, tight_cols, len(reduced)), assigned, g)
    return [(i, j) for i, j in enumerate(assigned) if j < g]


def _lexicographic_rotation(tight: list[list[int]], assigned: list[int], g: int) -> None:
    """Turn the optimal matching ``assigned`` (real row -> column) of the
    collapsed layout's tight graph ``tight`` (row -> ascending columns) into
    its lexicographically first over the real rows, in place.

    Column ``g`` is D, which holds every row that ``assigned`` leaves out,
    and row ``len(assigned)`` is R, which holds every column it leaves free.
    Rows are fixed in order. Each row ``i`` moves to its lowest tight column
    ``j`` that a breadth-first alternating path of tight edges frees, from
    ``j``'s holder to ``i``'s own column: a row moves along a tight edge to
    an unfixed column, whose holder must then move on. Entering D lets each
    unfixed row in D move on; R entering a column moves on from one of its
    own. A search that finds no path leaves every row it visited dead for
    the rest of row ``i``'s turn.
    """
    m = len(assigned)
    owner = [m] * g  # R holds every free column
    in_d: set[int] = set()
    for row, col in enumerate(assigned):
        if col < g:
            owner[col] = row
        else:
            in_d.add(row)
    fixed = [False] * g
    for i in range(m):
        goal = assigned[i]
        dead: set[int] = set()
        for j in tight[i]:
            if j == goal:
                break
            if fixed[j]:
                continue
            start = owner[j]
            parent: dict[int, tuple[int, int]] = {}  # row -> (previous row, column it moves to)
            seen = {start}
            frontier = [start]
            found = None
            d_open = True  # D's rows move on at most once per search
            while frontier and found is None:
                following = []
                for row in frontier:
                    for col in tight[row]:
                        if col == goal:
                            found = row
                            break
                        if col < g:
                            if fixed[col]:
                                continue
                            movers = (owner[col],)
                        elif d_open:
                            d_open, movers = False, in_d
                        else:
                            continue
                        for nxt in movers:
                            if nxt not in seen and nxt not in dead:
                                seen.add(nxt)
                                parent[nxt] = (row, col)
                                following.append(nxt)
                    if found is not None:
                        break
                frontier = following
            if found is None:
                dead.update(seen)
                continue
            row, col = found, goal
            while True:  # each row on the path takes the column its successor leaves
                if row < m:
                    if assigned[row] == g:
                        in_d.discard(row)
                    assigned[row] = col
                    if col == g:
                        in_d.add(row)
                if col < g:
                    owner[col] = row
                if row == start:
                    break
                row, col = parent[row]
            assigned[i], owner[j] = j, i
            break
        if assigned[i] < g:
            fixed[assigned[i]] = True
        else:
            in_d.discard(i)  # fixed in D


def cost_matrices(
    boxes: np.ndarray,
    labels: Sequence[str],
    gts: Sequence[GroundTruthSet],
    policies: Sequence[MatcherPolicy],
    owner: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cost, IoU and label-agreement matrices of (n, 4) ``boxes`` against their groups' ground truths.

    Row r meets ``gts[owner[r]]`` under ``policies[owner[r]]``. Each matrix
    is (n, w), with w the most ground truths of any group; row r meets only
    its own group's g ground truths, in columns ``0..g-1``, and its other
    columns are padding. Each cell holds what the group alone gives it, bit
    for bit. Each distinct label is normalized once; labels are compared as
    small integers (numpy strings drop trailing NULs).

    This is the package's one fork on one group against several: one
    ground-truth set is met by broadcasting (``owner`` is then all zeros and
    unread), several by gathering each row's own ground truths. On one group
    broadcasting beats the gather (202 against 916 µs at 300×40); on a block
    of 64 groups the gather beats a per-group broadcast loop (549 against
    1983 µs).
    """
    ids: dict[str, int] = {}
    gt_ids = [ids.setdefault(key, len(ids)) for gt in gts for key in gt.label_keys]
    keys = {label: ids.setdefault(normalize_label(label), len(ids)) for label in dict.fromkeys(labels)}
    pred_ids = np.array([keys[label] for label in labels], dtype=np.intp)
    penalized = [policy is MatcherPolicy.BOX_AND_LABEL for policy in policies]
    if len(gts) == 1:
        ious = iou_matrix(boxes, gts[0].coords)
        same = pred_ids[:, None] == np.array(gt_ids, dtype=np.intp)[None, :]
        penalty = LABEL_MISMATCH_PENALTY if penalized[0] else None
    else:
        counts = np.array([len(gt) for gt in gts], dtype=np.intp)
        columns = np.arange(counts.max(initial=0))
        # each row's own ground truths in the concatenation; padding reads the last, empty entry
        index = np.where(
            columns < counts[owner][:, None], (np.cumsum(counts) - counts)[owner][:, None] + columns, len(gt_ids)
        )
        gt_coords = np.concatenate([*(gt.coords for gt in gts), np.zeros((1, 4))])
        ious = iou_pairs(boxes[:, None, :], gt_coords[index])
        same = pred_ids[:, None] == np.array([*gt_ids, -1], dtype=np.intp)[index]
        penalty = (np.array(penalized) * LABEL_MISMATCH_PENALTY)[owner][:, None] if any(penalized) else None
    cost = 1.0 - ious
    if penalty is not None:  # a row under the box-only policy adds 0.0, which changes nothing
        cost += np.where(same, 0.0, penalty)
    return cost, ious, same


def _stacked_pairs(cost: np.ndarray, spans: Sequence[tuple[int, int, int]]) -> list[list[tuple[int, int]]]:
    """``_canonical_pairs`` of each slice ``cost[lo:hi, :g]`` of ``spans``, none of them empty.

    Each slice is solved on its own; their dual potentials, tight subgraphs,
    safety net and ``_can_move`` are computed at once, on one stack of their
    collapsed layouts (``_stacked_reduced_costs``). Only the slices in which
    a pair can move build tight lists and rotate, on the stack's own tight
    subgraph.
    """
    solved, reduced, cols, owner = _stacked_reduced_costs(cost, spans)
    k, depth, width = reduced.shape
    heights = [hi - lo for lo, hi, _ in spans]
    # the numeric safety net of _canonical_pairs, layer by layer
    unproven = (reduced.min(axis=(1, 2)) < -_COST_TIE_ATOL).tolist()
    layers, rows, columns = np.nonzero(reduced <= _COST_TIE_ATOL)
    # the stack as one block-diagonal layout, in which R and the padding rows hold no column
    held = np.where(np.arange(depth) < np.array(heights)[:, None], cols + width * np.arange(k)[:, None], -1)
    movable = _can_move(
        layers * depth + rows, layers * width + columns, held.ravel(), (owner + depth * np.arange(k)[:, None]).ravel()
    )
    moves = np.bincount(movable // depth, minlength=k).tolist()
    ends = np.searchsorted(layers, range(k + 1)).tolist()
    out = []
    for s, (solver_rows, solver_cols), matched, m, (_, _, g) in zip(range(k), solved, cols.tolist(), heights, spans):
        if unproven[s]:
            out.append(list(zip(solver_rows.tolist(), solver_cols.tolist())))
            continue
        assigned = matched[:m]
        if moves[s]:
            first, end = ends[s], ends[s + 1]
            _lexicographic_rotation(_tight_lists(rows[first:end], columns[first:end], m + (m < g)), assigned, g)
        out.append([(i, j) for i, j in enumerate(assigned) if j < g])
    return out


def assign_slices(
    cost: np.ndarray, ious: np.ndarray, same: np.ndarray, bounds: Sequence[int], widths: Sequence[int]
) -> list[list[tuple[int, int, float, bool]]]:
    """Match each slice ``bounds[i]:bounds[i + 1]`` of rows, over its first ``widths[i]`` columns, on its own.

    Per slice, its canonical pairs as (row within the slice, ground-truth
    index, IoU, labels agree), in row order. When two or more slices have
    at most ``STACK_LIMIT`` rows and columns, they are matched together, in
    stacks of at most ``STACK_SQUARES`` (``_stacked_pairs``); every other
    slice is matched alone (``_canonical_pairs``). Both give the same pairs.
    """
    spans = list(zip(bounds, bounds[1:], widths))
    small = [i for i, (lo, hi, g) in enumerate(spans) if 0 < min(hi - lo, g) and max(hi - lo, g) <= STACK_LIMIT]
    if len(small) < 2:  # a stack of one takes 2.1-2.7 times the slice alone (3x3 to 16x16)
        small = []
    stacked: dict[int, list[tuple[int, int]]] = {}
    for start in range(0, len(small), STACK_SQUARES):
        part = small[start : start + STACK_SQUARES]
        stacked.update(zip(part, _stacked_pairs(cost, [spans[i] for i in part])))
    slices = [stacked[i] if i in stacked else _canonical_pairs(cost[lo:hi, :g]) for i, (lo, hi, g) in enumerate(spans)]
    rows = [lo + i for lo, pairs in zip(bounds, slices) for i, _ in pairs]
    cols = [j for pairs in slices for _, j in pairs]
    found = iter(zip(ious[rows, cols].tolist(), same[rows, cols].tolist()))
    return [[(i, j, *next(found)) for i, j in pairs] for pairs in slices]


def match(
    predictions: Sequence[tuple[str, Box]],
    gt: GroundTruthSet,
    policy: MatcherPolicy = MatcherPolicy.BOX_ONLY,
) -> list[MatchedPrediction]:
    """Assign predictions to ground-truth instances one-to-one.

    Returns one entry per prediction in input order. Predictions left without
    a ground truth (only possible when they outnumber the ground truths)
    carry ``iou=0`` and no index. Zero-overlap pairs stay assignable at cost
    1; they are reported with their index but never reach any validity
    threshold.
    """
    boxes = box_array(box for _, box in predictions)
    for row, reason in validate_boxes(boxes, gt.space.max_x, gt.space.max_y)[1].items():  # the first one
        raise SpaceMismatchError(
            f"prediction box {tuple(boxes[row].tolist())} invalid in the ground-truth space: {reason}"
        )
    labels = [label for label, _ in predictions]
    costs = cost_matrices(boxes, labels, [gt], [policy], np.zeros(len(predictions), dtype=np.intp))
    assigned = {i: rest for i, *rest in assign_slices(*costs, [0, len(predictions)], [len(gt)])[0]}
    out: list[MatchedPrediction] = []
    for index, (label, box) in enumerate(predictions):
        gt_index, value, correct = assigned.get(index, (None, 0.0, False))
        out.append(MatchedPrediction(box, label, value, gt_index, correct))
    return out
