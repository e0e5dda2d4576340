"""Graphical condensation: Kuo's four-point identity and the recurrence.

For a plane bipartite graph with vertices x, z of one colour class and
y, t of the other, all four on the outer face in the cyclic order
x, y, z, t, Kuo's identity reads

    M(G) M(G - {x,y,z,t}) = M(G - {x,y}) M(G - {z,t})
                            + M(G - {t,x}) M(G - {y,z}).

Applied to the dual graph of a layered region with the four corner cells
deleted in pairs, every term is again (after stripping forced edges) the
dual of a smaller region, which turns the identity into a two-to-one
recurrence on specs.  The case table below reads the smaller specs off
the distance tuple by two cut rules: the head cut, chosen by the first
layer, and the tail cut, chosen by the last.  A three-term case takes
the head cut, the tail cut and both (the head rule applied to the tail
cut); a one-term case takes the head cut alone.  So counting by
condensation never builds a matching; the only inputs are the base
table of the seven smallest regions and exact integer division.

`verify` and `trace` check the identity itself on small regions.
`pick_corners` reads the four corner cells off the level runs, and
`kuo_counts` takes the six counts as minors of the one signed matrix of
the region's dual (`matching.deletion_counts`): one elimination leaves
the corners' two rows and two columns standing where the rows have them,
and each count is the interior's determinant times a minor of that 2 x 2
residual block.
"""

from __future__ import annotations

from collections import namedtuple

from . import regions
from .matching import OuterFaceError, deletion_counts
from .regions import Region, RegionSpec

__all__ = [
    "BaseCase",
    "CaseUnreachable",
    "NotCaseOne",
    "DivisionInexact",
    "CornersNotFound",
    "BASE_TABLE",
    "CornerQuad",
    "CaseRecurrence",
    "canonical_spec",
    "pick_corners",
    "kuo_counts",
    "kuo_identity",
    "case_recurrence",
    "condensation_count",
    "stats_deltas",
    "trace_recurrence",
]


class BaseCase(Exception):
    """The spec is one of the directly tabulated small regions."""

    def __init__(self, spec: RegionSpec, count: int):
        super().__init__(f"base case {spec.side}:{spec.distances} = {count}")
        self.spec = spec
        self.count = count


class CaseUnreachable(Exception):
    """No recurrence case matches; valid specs never land here."""


class NotCaseOne(ValueError):
    """`stats_deltas` predicts Case I sub-regions only; this spec is Case II."""


class DivisionInexact(ArithmeticError):
    """The condensation identity did not divide exactly."""


class CornersNotFound(RuntimeError):
    """The four corner cells could not be picked from the region."""


# matching counts of every valid spec with total <= 4, frozen from the
# brute-force engine (both flip companions are listed)
BASE_TABLE: dict[RegionSpec, int] = {
    RegionSpec(1, (2,)): 2,
    RegionSpec(2, (4,)): 8,
    RegionSpec(1, (1, 2)): 4,
    RegionSpec(2, (2, 1)): 4,
    RegionSpec(1, (1, 1, 2)): 8,
    RegionSpec(3, (2, 1, 1)): 8,
    RegionSpec(2, (1, 2, 1)): 16,
}


class CornerQuad(namedtuple("CornerQuad", "west south east north")):
    """Vertex positions of the four outer-face corners, by compass role."""

    __slots__ = ()


class CaseRecurrence(
    namedtuple(
        "CaseRecurrence",
        "case_id normalized was_flipped subspecs multiplier identity",
    )
):
    """One row of the case table applied to `normalized` (the spec's
    half-turn companion when `was_flipped`): the sub-specs (None for the
    empty region), the multiplier and the identity text that solves for
    the parent count."""

    __slots__ = ()


def canonical_spec(spec: RegionSpec) -> tuple[RegionSpec, bool]:
    """Lexicographically smaller of the spec and its half-turn companion."""
    other = regions.flipped(spec)
    return (spec, False) if spec <= other else (other, True)


def pick_corners(region: Region) -> CornerQuad:
    """Westmost black, southmost white, eastmost black, northmost white
    cell, each at its centroid.

    Ties resolve toward the outer face: the west pick prefers north, the
    east pick south, the south pick west and the north pick east.  Both
    centroid coordinates grow along a line of cells, so every pick is the
    first or the last cell of a line: the candidates are read off the
    level runs (`regions._region_lines`), two per line.
    """
    # the (x, y, cell) of each line's first and last cell, in sixths
    ends: tuple[list, list] = ([], [])
    for start, j, kind, black, lo, hi, _ in regions._region_lines(region):
        cx, cy = regions._SIXTHS[kind]
        for x in (lo, hi - 1) if lo < hi else ():
            ends[black].append((6 * x + cx, 6 * (x - j) + cy, start + x - lo))
    whites, blacks = ends
    if not blacks or not whites:
        raise CornersNotFound("a colour class is empty")
    west = min(blacks, key=lambda v: (v[0], -v[1]))[2]
    east = max(blacks, key=lambda v: (v[0], -v[1]))[2]
    south = min(whites, key=lambda v: (v[1], v[0]))[2]
    north = max(whites, key=lambda v: (v[1], v[0]))[2]
    if len({west, south, east, north}) != 4:
        raise CornersNotFound("corner picks are not distinct")
    return CornerQuad(west=west, south=south, east=east, north=north)


def kuo_counts(region: Region, quad: CornerQuad) -> dict[str, int]:
    """The six counts of Kuo's identity: minors of the region's signed rows
    (`matching.deletion_counts`), built and eliminated once.

    Raises CornersNotFound if a corner is not on the outer face.
    """
    x, y, z, t = quad.west, quad.south, quad.east, quad.north
    deleted = {
        "full": (),
        "minus_all": (x, y, z, t),
        "minus_west_south": (x, y),
        "minus_east_north": (z, t),
        "minus_north_west": (t, x),
        "minus_south_east": (y, z),
    }
    try:
        counts = deletion_counts(region, deleted.values())
    except OuterFaceError as exc:
        raise CornersNotFound(str(exc)) from exc
    return dict(zip(deleted, counts))


def kuo_identity(counts: dict[str, int]) -> bool:
    """Whether the six deletion counts of `kuo_counts` satisfy the identity."""
    return (
        counts["full"] * counts["minus_all"]
        == counts["minus_west_south"] * counts["minus_east_north"]
        + counts["minus_north_west"] * counts["minus_south_east"]
    )


def _first_wide(d: tuple[int, ...]) -> int | None:
    """Smallest 1-based index above 1 whose entry is at least 2."""
    for i in range(2, len(d) + 1):
        if d[i - 1] >= 2:
            return i
    return None


def _last_wide(d: tuple[int, ...]) -> int | None:
    """Largest 1-based index below len(d) whose entry is at least 2."""
    for i in range(len(d) - 1, 0, -1):
        if d[i - 1] >= 2:
            return i
    return None


def _subspec(side: int, entries: tuple[int, ...]) -> RegionSpec | None:
    """Normalise a candidate sub-spec; None stands for the empty region."""
    if side == 0 and entries and all(e == 0 for e in entries):
        return None
    if side < 1 or not entries or min(entries) < 1:
        raise CaseUnreachable(f"degenerate sub-spec {side}:{entries}")
    return RegionSpec(side, entries)


def _head_cut(
    d: tuple[int, ...], a: int, e: tuple[int, ...]
) -> RegionSpec | None:
    """Cut the head of `e` on side `a` by the rule that `d[0]` picks.

    `e` is `d` itself or its tail cut, so the head cut of the tail cut
    is both cuts.
    """
    if d[0] >= 3:
        return _subspec(a - 1, (e[0] - 2,) + e[1:])
    if d[0] == 1:
        return _subspec(a, e[1:])
    m = _first_wide(d)
    if m is None or m > len(e):
        raise CaseUnreachable("no wide layer for the head cut")
    return _subspec(a - m, (e[m - 1] - 1,) + e[m:])


def _tail_cut(a: int, d: tuple[int, ...]) -> RegionSpec | None:
    """Cut the tail of `d` on side `a` by the rule that `d[-1]` picks."""
    if d[-1] >= 3:
        return _subspec(a - 1, d[:-1] + (d[-1] - 2,))
    if d[-1] == 1:
        return _subspec(a - 1, d[:-1])
    q = _last_wide(d)
    if q is None:
        raise CaseUnreachable("no wide layer for the tail cut")
    return _subspec(a - 1, d[: q - 1] + (d[q - 1] - 1,))


# Case I by the first and last layer of the normalized tuple, each capped
# at 3; the flip puts the shorter end layer first, so no other pair occurs
_CASE_ONE = {
    (3, 3): "I.1",
    (2, 3): "I.2",
    (1, 3): "I.3",
    (2, 2): "I.4",
    (1, 1): "I.5",
    (1, 2): "I.6",
}

# the cases whose one sub-spec is the head cut, with their multipliers
_ONE_TERM = {"II.1": 2, "II.2b(iii)": 4}

_THREE_TERM = "M * M3 = 2 * M1 * M2"


def case_recurrence(spec: RegionSpec) -> CaseRecurrence:
    """Classify a valid spec and emit the sub-specs of its recurrence.

    Raises BaseCase for the tabulated smallest regions and SpecInvalid if
    the spec does not describe a region at all.
    """
    regions.check_spec(spec.side, spec.distances)
    return _dispatch(spec)


def _dispatch(spec: RegionSpec) -> CaseRecurrence:
    """`case_recurrence` for a spec already known to describe a region.

    Every case deletes corners at the head or the tail of the distance
    tuple: a three-term case has the head cut, the tail cut and both as
    its sub-specs, and a one-term case the head cut alone.
    """
    a, w, d = spec.side, spec.width, spec.distances
    if len(d) == 1 and a < 3:
        raise BaseCase(spec, BASE_TABLE[spec])

    # Case I puts the shorter end layer first, Case II the narrow side
    case_one = a >= 3 and w >= 3
    flip = d[0] > d[-1] if case_one else a > w
    norm = regions.flipped(spec) if flip else spec
    a, d = norm.side, norm.distances
    k = len(d)
    if case_one:
        case_id = _CASE_ONE[min(d[0], 3), min(d[-1], 3)]
    elif a == 1:
        if d != (1,) * (k - 1) + (2,):
            raise CaseUnreachable("side-1 spec not of the staircase form")
        case_id = "II.1"
    elif a == 2:
        if norm.total <= 4:
            raise BaseCase(norm, BASE_TABLE[norm])
        if d == (1,) * (k - 2) + (2, 1):
            case_id = "II.2a"
        elif d == (1,) * (k - 1) + (4,):
            case_id = "II.2b(i)"
        elif d[-1] == 2 and d[:-1].count(1) == k - 2 and 3 in d:
            # all ones but one 3, and a last layer of 2
            case_id = "II.2b(iii)" if d[0] == 3 else "II.2b(ii)"
        else:
            raise CaseUnreachable("narrow spec outside the classified forms")
    else:
        raise CaseUnreachable(f"side {a} with width {w} not classified")

    head = _head_cut(d, a, d)
    multiplier = _ONE_TERM.get(case_id)
    if multiplier is not None:
        identity = f"M = {multiplier} * M1"
        return CaseRecurrence(case_id, norm, flip, (head,), multiplier, identity)
    tail = _tail_cut(a, d)
    subs = (head, tail, _head_cut(d, tail.side, tail.distances))
    return CaseRecurrence(case_id, norm, flip, subs, 2, _THREE_TERM)


def _resolve(
    spec: RegionSpec, memo: dict[RegionSpec, int], out: list[dict] | None
) -> int:
    """Count a spec by the recurrence, memoised by canonical spec.

    The spec must describe a region: this is the entry point for a spec
    already checked, as `condensation_count` checks it first.  New specs
    are found in preorder with an explicit stack, then counted by
    increasing total, since every sub-spec is smaller than its parent.
    When `out` is a list, each new spec appends one record to it in
    preorder, so a trace lists every distinct sub-spec once.
    """
    found: dict[RegionSpec, tuple[dict, CaseRecurrence]] = {}
    stack = [spec]
    while stack:
        canon, _ = canonical_spec(stack.pop())
        if canon in memo or canon in found:
            continue
        if canon in BASE_TABLE:
            memo[canon] = BASE_TABLE[canon]
            node = {"spec": canon.to_dict(), "case": "base", "count": memo[canon]}
        else:
            # the root was checked by the caller, and every sub-spec the
            # case table produces describes a region
            rec = _dispatch(canon)
            node = {
                "spec": canon.to_dict(),
                "case": rec.case_id,
                "flipped": rec.was_flipped,
                "subs": [None if g is None else g.to_dict() for g in rec.subspecs],
                "identity": rec.identity,
            }
            found[canon] = (node, rec)
            stack.extend(g for g in reversed(rec.subspecs) if g is not None)
        if out is not None:
            out.append(node)
    for canon in sorted(found, key=lambda s: s.total):
        node, rec = found[canon]
        counts = [
            1 if g is None else memo[canonical_spec(g)[0]] for g in rec.subspecs
        ]
        if len(counts) == 1:
            count = rec.multiplier * counts[0]
        else:
            m1, m2, m3 = counts
            count, remainder = divmod(2 * m1 * m2, m3)
            if remainder:
                raise DivisionInexact(
                    f"{canon.side}:{canon.distances}: "
                    f"2*{m1}*{m2} not divisible by {m3}"
                )
        node["sub_counts"] = counts
        node["count"] = count
        memo[canon] = count
    return memo[canonical_spec(spec)[0]]


def condensation_count(
    spec: RegionSpec, memo: dict[RegionSpec, int] | None = None
) -> int:
    """Matching count by the condensation recurrence alone.

    Pass the same `memo` dict to several calls to share their sub-counts.
    """
    regions.check_spec(spec.side, spec.distances)
    return _resolve(spec, {} if memo is None else memo, None)


def trace_recurrence(spec: RegionSpec) -> list[dict]:
    """Preorder walk of the recurrence tree, one record per distinct spec."""
    regions.check_spec(spec.side, spec.distances)
    out: list[dict] = []
    _resolve(spec, {}, out)
    return out


def _triangle(n: int) -> int:
    return n * (n + 1) // 2


def _region_stats(
    spec: RegionSpec, memo: dict[RegionSpec, regions.RegionStats]
) -> regions.RegionStats:
    """`structural_stats` of the spec's region, read off its level runs."""
    stats = memo.get(spec)
    if stats is None:
        _, symbols, runs = regions._level_runs(spec.side, spec.distances)
        stats = memo[spec] = regions._run_stats(symbols, runs)
    return stats


def stats_deltas(
    spec: RegionSpec,
    memo: dict[RegionSpec, regions.RegionStats] | None = None,
) -> dict:
    """Measured vs predicted width and cell-count drops of the sub-regions.

    In the mixed boundary cases (I.4, I.6) the last two predictions sum
    over the layers from the last wide one to the end of the tuple.
    Reading that bound as the number of down-triangle lines instead fails
    on every I.4 and I.6 spec, so only the layer-count reading is kept.
    The balance identity at the end restates the exponent bookkeeping of
    the recurrence purely in measured quantities and must always hold.

    The stats are read off each spec's level runs, so no cells are built.
    Pass the same `memo` dict to several calls to read each spec's stats
    once; it maps a spec to its `structural_stats`.  A Case II spec raises
    NotCaseOne, a base spec BaseCase.
    """
    rec = case_recurrence(spec)
    if not rec.case_id.startswith("I."):
        raise NotCaseOne("delta predictions cover Case I specs only")
    if memo is None:
        memo = {}
    parent = rec.normalized
    pstats = _region_stats(parent, memo)
    a, w, cells = parent.side, pstats.width, pstats.regular_cells

    # (width, regular cells) of each sub-region, (0, 0) for the empty one
    got = []
    for g in rec.subspecs:
        gs = None if g is None else _region_stats(g, memo)
        got.append((0, 0) if gs is None else (gs.width, gs.regular_cells))

    def head(side, width, count):
        # the head cut narrows by one and takes side + width regular cells
        return width - 1, count - side - width

    # the tail cut takes `span` layers, by the last one: one layer for 3 or
    # more, none for 1, and from the last wide layer on for 2
    d = parent.distances
    span = 1 if d[-1] >= 3 else 0 if d[-1] == 1 else len(d) - _last_wide(d) + 1
    tail = (w - span, cells - w - sum(w - i for i in range(span)))
    predicted = [head(a, w, cells), tail, head(a - 1, *tail)]

    (w1, c1), (w2, c2), (w3, c3) = got
    balance_ok = (
        1 + c1 + c2 - _triangle(w1) - _triangle(w2)
        == cells + c3 - _triangle(w) - _triangle(w3)
    )
    keys = ("width", "regular_cells")
    return {
        "case": rec.case_id,
        "flipped": rec.was_flipped,
        "normalized": parent.to_dict(),
        "parent": dict(zip(keys, (w, cells))),
        "measured": [
            None if g is None else dict(zip(keys, size))
            for g, size in zip(rec.subspecs, got)
        ],
        "predicted": [dict(zip(keys, size)) for size in predicted],
        "agreement": [p == size for p, size in zip(predicted, got)],
        "balance_ok": balance_ok,
    }
