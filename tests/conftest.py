"""Shared helpers: cached sweeps, a brute-force count shorthand, and the
criterion line registry echoed after the run."""

from functools import lru_cache
from typing import Iterator

from douglastile.matching import count_matchings
from douglastile.regions import (
    Region,
    RegionSpec,
    SpecInvalid,
    build_region,
    compositions,
    find_region,
)

# one "PASS criterion N: ..." or "FAIL criterion N: ..." line per
# acceptance check; replayed by the terminal-summary hook because
# fd-level capture swallows prints even on the real stdout
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not CRITERION_LINES:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for line in CRITERION_LINES:
        terminalreporter.write_line(line)


def enumerate_valid_regions(max_total: int) -> Iterator[Region]:
    """Regions for every distance composition with sum <= max_total.

    Compositions that admit no region are skipped silently; the order is
    by total, then lexicographic within a total.
    """
    for total in range(1, max_total + 1):
        for distances in compositions(total):
            try:
                yield build_region(*find_region(distances))
            except SpecInvalid:
                continue


@lru_cache(maxsize=None)
def valid_specs(max_total: int) -> tuple[RegionSpec, ...]:
    return tuple(r.spec for r in enumerate_valid_regions(max_total))


def brute_count(spec: RegionSpec | None) -> int:
    """Matching count of the dual graph; the empty spec counts as one."""
    if spec is None:
        return 1
    return count_matchings(build_region(spec.side, spec.distances))
