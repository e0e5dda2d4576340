"""Graphical condensation: Kuo's four-point identity and the recurrence.

For a plane bipartite graph with vertices x, z of one colour class and
y, t of the other, all four on the outer face in the cyclic order
x, y, z, t, Kuo's identity reads

    M(G) M(G - {x,y,z,t}) = M(G - {x,y}) M(G - {z,t})
                            + M(G - {t,x}) M(G - {y,z}).

Applied to the dual graph of a layered region with the four corner cells
deleted in pairs, every term is again (after stripping forced edges) the
dual of a smaller region, which turns the identity into a two-to-one
recurrence on specs.  The case analysis below picks the smaller specs
directly from the distance tuple, so counting by condensation never
builds a matching; the only inputs are the base table of the seven
smallest regions and exact integer division.
"""

from __future__ import annotations

from collections import namedtuple

from . import regions
from .matching import MatchGraph, OuterFaceError, deletion_counts
from .regions import RegionSpec

__all__ = [
    "BaseCase",
    "CaseUnreachable",
    "DivisionInexact",
    "CornersNotFound",
    "BASE_TABLE",
    "CornerQuad",
    "CaseRecurrence",
    "canonical_spec",
    "pick_corners",
    "kuo_counts",
    "kuo_identity",
    "verify_kuo",
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


class DivisionInexact(ArithmeticError):
    """The condensation identity did not divide exactly."""


class CornersNotFound(RuntimeError):
    """The four corner vertices could not be picked from the graph."""


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


def pick_corners(graph: MatchGraph) -> CornerQuad:
    """Westmost black, southmost white, eastmost black, northmost white.

    Ties resolve toward the outer face: the west pick prefers north, the
    east pick south, the south pick west and the north pick east.
    """
    verts = graph.vertices
    blacks = [i for i, v in enumerate(verts) if v[0]]
    whites = [i for i, v in enumerate(verts) if not v[0]]
    if not blacks or not whites:
        raise CornersNotFound("a colour class is empty")
    west = min(blacks, key=lambda i: (verts[i][1], -verts[i][2]))
    east = max(blacks, key=lambda i: (verts[i][1], -verts[i][2]))
    south = min(whites, key=lambda i: (verts[i][2], verts[i][1]))
    north = max(whites, key=lambda i: (verts[i][2], verts[i][1]))
    if len({west, south, east, north}) != 4:
        raise CornersNotFound("corner picks are not distinct")
    return CornerQuad(west=west, south=south, east=east, north=north)


def kuo_counts(graph: MatchGraph, quad: CornerQuad) -> dict[str, int]:
    """The six counts of Kuo's identity, from one signing of the graph.

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
        counts = deletion_counts(graph, deleted.values())
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


def verify_kuo(graph: MatchGraph, quad: CornerQuad | None = None) -> bool:
    """Whether Kuo's identity holds on the graph at the four corners.

    `quad` defaults to `pick_corners(graph)`.  Raises CornersNotFound when
    no four distinct corners are found or one is off the outer face.
    """
    if quad is None:
        quad = pick_corners(graph)
    return kuo_identity(kuo_counts(graph, quad))


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


def _subspec(side: int, entries) -> RegionSpec | None:
    """Normalise a candidate sub-spec; None stands for the empty region."""
    entries = tuple(entries)
    if side == 0 and entries and all(e == 0 for e in entries):
        return None
    if side < 1 or not entries or min(entries) < 1:
        raise CaseUnreachable(f"degenerate sub-spec {side}:{entries}")
    return RegionSpec(side, entries)


def _case_one(case_id: str, a: int, d: tuple[int, ...]):
    """Sub-specs for the three deletion pairs of a Case I spec."""
    k = len(d)
    m = _first_wide(d)
    q = _last_wide(d)
    if case_id == "I.1":
        if k == 1:
            g1 = _subspec(a - 1, (d[0] - 2,))
            return g1, g1, _subspec(a - 2, (d[0] - 4,))
        return (
            _subspec(a - 1, (d[0] - 2,) + d[1:]),
            _subspec(a - 1, d[:-1] + (d[-1] - 2,)),
            _subspec(a - 2, (d[0] - 2,) + d[1:-1] + (d[-1] - 2,)),
        )
    if case_id == "I.2":
        if m is None:
            raise CaseUnreachable("no second wide layer")
        g1 = _subspec(a - m, (d[m - 1] - 1,) + d[m:])
        g2 = _subspec(a - 1, d[:-1] + (d[-1] - 2,))
        if m == k:
            g3 = _subspec(a - m - 1, (d[m - 1] - 3,))
        else:
            g3 = _subspec(a - m - 1, (d[m - 1] - 1,) + d[m:-1] + (d[-1] - 2,))
        return g1, g2, g3
    if case_id == "I.3":
        return (
            _subspec(a, d[1:]),
            _subspec(a - 1, d[:-1] + (d[-1] - 2,)),
            _subspec(a - 1, d[1:-1] + (d[-1] - 2,)),
        )
    if case_id == "I.4":
        if m is None or q is None or m > q:
            raise CaseUnreachable("wide layers out of order")
        g1 = _subspec(a - m, (d[m - 1] - 1,) + d[m:])
        g2 = _subspec(a - 1, d[: q - 1] + (d[q - 1] - 1,))
        if m == q:
            g3 = _subspec(a - m - 1, (d[m - 1] - 2,))
        else:
            g3 = _subspec(
                a - m - 1, (d[m - 1] - 1,) + d[m : q - 1] + (d[q - 1] - 1,)
            )
        return g1, g2, g3
    if case_id == "I.5":
        return (
            _subspec(a, d[1:]),
            _subspec(a - 1, d[:-1]),
            _subspec(a - 1, d[1:-1]),
        )
    if case_id == "I.6":
        if q is None:
            raise CaseUnreachable("no interior wide layer")
        return (
            _subspec(a, d[1:]),
            _subspec(a - 1, d[: q - 1] + (d[q - 1] - 1,)),
            _subspec(a - 1, d[1 : q - 1] + (d[q - 1] - 1,)),
        )
    raise CaseUnreachable(case_id)


_THREE_TERM = "M * M3 = 2 * M1 * M2"


def case_recurrence(spec: RegionSpec) -> CaseRecurrence:
    """Classify a valid spec and emit the sub-specs of its recurrence.

    Raises BaseCase for the tabulated smallest regions and SpecInvalid if
    the spec does not describe a region at all.
    """
    regions.check_spec(spec.side, spec.distances)
    return _dispatch(spec)


def _dispatch(spec: RegionSpec) -> CaseRecurrence:
    """`case_recurrence` for a spec already known to describe a region."""
    a = spec.side
    w = spec.width
    d = spec.distances

    if len(d) == 1 and a < 3:
        raise BaseCase(spec, BASE_TABLE[spec])

    if a >= 3 and w >= 3:
        flip = d[0] > d[-1]
        norm = regions.flipped(spec) if flip else spec
        a, d = norm.side, norm.distances
        first, last = d[0], d[-1]
        if first >= 3 and last >= 3:
            case_id = "I.1"
        elif first == 2 and last >= 3:
            case_id = "I.2"
        elif first == 1 and last >= 3:
            case_id = "I.3"
        elif first == 2 and last == 2:
            case_id = "I.4"
        elif first == 1 and last == 1:
            case_id = "I.5"
        elif first == 1 and last == 2:
            case_id = "I.6"
        else:
            raise CaseUnreachable(f"unordered layer pair {first},{last}")
        return CaseRecurrence(
            case_id, norm, flip, _case_one(case_id, a, d), 2, _THREE_TERM
        )

    # narrow side or narrow width: flip so the side is the narrow one
    flip = a > w
    norm = regions.flipped(spec) if flip else spec
    a, d = norm.side, norm.distances
    k = len(d)

    if a == 1:
        if d != (1,) * (k - 1) + (2,):
            raise CaseUnreachable("side-1 spec not of the staircase form")
        sub = _subspec(1, (1,) * (k - 2) + (2,))
        return CaseRecurrence("II.1", norm, flip, (sub,), 2, "M = 2 * M1")

    if a == 2:
        if norm.total <= 4:
            raise BaseCase(norm, BASE_TABLE[norm])
        if d == (1,) * (k - 2) + (2, 1):
            subs = (
                _subspec(2, d[1:]),
                _subspec(1, d[:-1]),
                _subspec(1, d[1:-1]),
            )
            return CaseRecurrence("II.2a", norm, flip, subs, 2, _THREE_TERM)
        if d == (1,) * (k - 1) + (4,):
            subs = (
                _subspec(2, d[1:]),
                _subspec(1, d[:-1] + (2,)),
                _subspec(1, d[1:-1] + (2,)),
            )
            return CaseRecurrence(
                "II.2b(i)", norm, flip, subs, 2, _THREE_TERM
            )
        wide = [i for i, v in enumerate(d, 1) if v != 1]
        if (
            len(wide) == 2
            and d[wide[0] - 1] == 3
            and wide[1] == k
            and d[k - 1] == 2
        ):
            i = wide[0]
            if i == 1:
                sub = _subspec(1, (1,) * (k - 1) + (2,))
                return CaseRecurrence(
                    "II.2b(iii)", norm, flip, (sub,), 4, "M = 4 * M1"
                )
            subs = (
                _subspec(2, d[1:]),
                _subspec(1, d[: i - 1] + (2,)),
                _subspec(1, d[1 : i - 1] + (2,)),
            )
            return CaseRecurrence(
                "II.2b(ii)", norm, flip, subs, 2, _THREE_TERM
            )
        raise CaseUnreachable("narrow spec outside the classified forms")

    raise CaseUnreachable(f"side {a} with width {w} not classified")


def _resolve(
    spec: RegionSpec, memo: dict[RegionSpec, int], out: list[dict] | None
) -> int:
    """Count a spec by the recurrence, memoised by canonical spec.

    New specs are found in preorder with an explicit stack, then counted
    by increasing total, since every sub-spec is smaller than its parent.
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
    stats = memo.get(spec)
    if stats is None:
        stats = memo[spec] = regions.structural_stats(
            regions.build_region(spec.side, spec.distances)
        )
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

    Pass the same `memo` dict to several calls to build each region's
    cells once; it maps a spec to its `structural_stats`.
    """
    rec = case_recurrence(spec)
    if not rec.case_id.startswith("I."):
        raise ValueError("delta predictions cover Case I specs only")
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

    # the second sub-region's width and the last two cell counts
    if rec.case_id in ("I.4", "I.6"):
        d = parent.distances
        span = len(d) - _last_wide(d) + 1
        pw = w - span
        pc2 = cells - w - sum(w - i for i in range(span))
        pc3 = cells - (a - 1) - 2 * w - sum(w - i - 1 for i in range(span))
    elif rec.case_id == "I.5":
        pw, pc2, pc3 = w, cells - w, cells - (a - 1) - 2 * w
    else:
        pw, pc2, pc3 = w - 1, cells - 2 * w, cells - (a - 1) - (w - 1) - 2 * w
    predicted = [(w - 1, cells - a - w), (pw, pc2), (pw - 1, pc3)]

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
