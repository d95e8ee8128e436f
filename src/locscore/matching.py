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
first optimum with graph searches only. IoUs come from
``geometry.iou_matrix``, the one place IoU is computed.

``cost_matrices`` builds the matrices of a block of groups' predictions at
once, each row meeting only its own group's ground truths, and
``assign_slices`` matches each completion's slice of them on its own;
``match`` is the two for one list of predictions. Every box, a prediction's
or a ground truth's, is one float64 row of ``geometry.box_array``, so
``match`` and ``assignment_cost`` give one pair one IoU, and an invalid box
is named by its float coordinates.

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
    float64 array of their corners (``coords``), checked against ``space``
    once, when the set is made. ``GroundTruthSet(instances, space)``,
    ``from_pairs`` and ``from_arrays`` all make this one form, and
    ``instances`` is built from it on first read, so its boxes hold floats.
    An invalid box is named by its coordinates as floats. Equality and hash
    are those of ``(instances, space)``, and the set is immutable.
    """

    def __init__(self, instances: Iterable[GroundTruthInstance], space: CoordinateSpace) -> None:
        instances = tuple(instances)
        self._hold([inst.label for inst in instances], box_array(inst.box for inst in instances), space)

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
        gt = cls.__new__(cls)
        rows = np.array(coords, dtype=float).reshape(-1, 4)
        labels = tuple(labels)
        if len(labels) != len(rows):
            raise ValueError(f"{len(labels)} labels for {len(rows)} boxes")
        gt._hold(labels, rows, space)
        return gt

    def _hold(self, labels: Sequence[str], coords: np.ndarray, space: CoordinateSpace) -> None:
        """Check ``coords`` against ``space`` and keep the three."""
        for row, reason in validate_boxes(coords, space.max_x, space.max_y)[1].items():  # the first one
            raise SpaceMismatchError(
                f"ground-truth box {tuple(coords[row].tolist())} invalid in its space: {reason}"
            )
        coords.flags.writeable = False
        vars(self).update(labels=tuple(labels), coords=coords, space=space)

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
    """``c_ij - u_i - v_j`` on the zero-padded square of ``cost``, under dual
    potentials of its optimal perfect matching ``i -> cols[i]``.

    The column potentials are shortest paths (Jacobi Bellman-Ford) over
    ``v_j <= v_cols[i] + c_ij - c_i,cols[i]``, and ``u_i = c_i,cols[i] -
    v_cols[i]``. An optimal matching has no negative cycle, so a fixed point
    arrives within ``n`` rounds.
    """
    n = len(cols)
    m, g = cost.shape
    slack = np.zeros((n, n))
    slack[:m, :g] = cost
    slack -= slack[np.arange(n), cols][:, None]
    v = np.zeros(n)
    reduced = slack.copy()  # slack + v_cols[i], kept in step with v
    for _ in range(n):
        relaxed = reduced.min(axis=0)
        if not (relaxed < v).any():
            break
        v = np.minimum(v, relaxed)
        np.add(slack, v[cols][:, None], out=reduced)
    reduced -= v
    return reduced


def _rotation_path(
    start: int,
    goal: int,
    tight: list[list[int]],
    owner: list[int],
    fixed: list[bool],
    dead: set[int],
) -> tuple[int, dict[int, tuple[int, int]]] | None:
    """Breadth-first alternating path from row ``start`` to column ``goal``.

    A row moves along a tight edge to an unfixed column, whose owner must then
    move on. Returns the row that takes ``goal`` and each visited row's
    ``(previous row, column it moves to)``; ``None`` when no path exists, in
    which case every visited row joins ``dead``.
    """
    parent: dict[int, tuple[int, int]] = {}
    seen = {start}
    frontier = [start]
    while frontier:
        following = []
        for row in frontier:
            for col in tight[row]:
                if col == goal:
                    return row, parent
                if fixed[col]:
                    continue
                nxt = owner[col]
                if nxt not in seen and nxt not in dead:
                    seen.add(nxt)
                    parent[nxt] = (row, col)
                    following.append(nxt)
        frontier = following
    dead.update(seen)
    return None


def _canonical_pairs(cost: np.ndarray) -> list[tuple[int, int]]:
    """Minimum-cost maximal assignment, canonical among cost ties.

    Exactly ``min(m, g)`` pairs are produced: scanning predictions (rows) in
    order, each takes the lowest ground truth (column) it holds in some
    optimal assignment that keeps the earlier choices, or none when every
    such optimum leaves it out. One solve gives an optimal matching, completed
    to a perfect matching of the zero-padded ``n x n`` matrix (``n = max(m,
    g)``); its dual potentials give the tight subgraph (reduced cost at most
    ``_COST_TIE_ATOL``), whose perfect matchings are the optimal assignments;
    each row then rotates the matching along an alternating path in that
    subgraph to its lowest reachable column. Dummy columns (index >= g) sort
    after every real one, so being assigned is preferred over being left out.
    """
    m, g = cost.shape
    if min(m, g) == 0:
        return []
    n = max(m, g)
    # the rectangular solve is several times faster than the padded one and
    # has the same optimum; rows it leaves out take the spare columns
    rows, real_cols = linear_sum_assignment(cost)
    cols = np.full(n, -1)
    cols[rows] = real_cols
    spare = np.ones(n, dtype=bool)
    spare[real_cols] = False
    cols[cols < 0] = np.flatnonzero(spare)
    reduced = _reduced_costs(cost, cols)
    if reduced.min() < -_COST_TIE_ATOL:
        # numeric safety net (unreachable in practice): infeasible duals mean
        # the solver's matching is not provably optimal; accept it as is
        return [(int(i), int(j)) for i, j in zip(rows, real_cols)]
    is_tight = reduced <= _COST_TIE_ATOL
    assigned = cols.tolist()
    # a row only ever moves to a tight column below its own, and rows are
    # fixed in order: unless a real row's lowest tight column is below its
    # own, nothing moves (the padded dummies' ties alone start nothing)
    if (is_tight[:m].argmax(axis=1) < cols[:m]).any():
        tight_rows, tight_cols = np.nonzero(is_tight)
        ends = np.cumsum(np.bincount(tight_rows, minlength=n)).tolist()
        flat = tight_cols.tolist()
        tight = [flat[lo:hi] for lo, hi in zip([0] + ends, ends)]
        _lexicographic_rotation(tight, assigned, m)
    return [(i, j) for i, j in enumerate(assigned[:m]) if j < g]


def _lexicographic_rotation(tight: list[list[int]], assigned: list[int], m: int) -> None:
    """Turn the perfect matching ``assigned`` (row -> column) of the graph
    ``tight`` (row -> ascending columns) into its lexicographically first
    perfect matching over rows ``0..m-1``, in place."""
    n = len(assigned)
    owner = [0] * n
    for row, col in enumerate(assigned):
        owner[col] = row
    fixed = [False] * n
    for i in range(m):
        goal = assigned[i]
        dead: set[int] = set()
        for j in tight[i]:
            if j == goal:
                break
            if fixed[j]:
                continue
            start = owner[j]
            found = _rotation_path(start, goal, tight, owner, fixed, dead)
            if found is not None:
                row, parent = found
                col = goal
                while True:
                    assigned[row], owner[col] = col, row
                    if row == start:
                        break
                    row, col = parent[row]
                assigned[i], owner[j] = j, i
                break
        fixed[assigned[i]] = True


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


def assign_slices(
    cost: np.ndarray, ious: np.ndarray, same: np.ndarray, bounds: Sequence[int], widths: Sequence[int]
) -> list[list[tuple[int, int, float, bool]]]:
    """Match each slice ``bounds[i]:bounds[i + 1]`` of rows, over its first ``widths[i]`` columns, on its own.

    Per slice, its canonical pairs as (row within the slice, ground-truth
    index, IoU, labels agree), in row order.
    """
    slices = [_canonical_pairs(cost[lo:hi, :width]) for lo, hi, width in zip(bounds, bounds[1:], widths)]
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
