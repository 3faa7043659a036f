"""Host-speed reference for the timed figures.

On a shared host the CPU runs in speed states that last from seconds to
minutes; the fast state is about 1.7x the slow one.  A run that lands in
one state or the other would move every wall-time figure by more than a
real change does.  So the benchmark runs a fixed pure-Python kernel,
:func:`reference_run`, next to everything it times, and rescales each
wall time to the speed at which that kernel takes :data:`REFERENCE_S`:

    scaled = wall * REFERENCE_S / (median of the nearby reference runs)

The kernel does what the simulator's hot loops do (attribute reads,
small-dict updates, integer arithmetic) and allocates nothing the
garbage collector tracks, so its time follows the host's speed and not
the size of the workload's heap.  The kernel never changes with the
program, so a slower program still reads slower.
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, List, Tuple, TypeVar

T = TypeVar("T")

#: Nominal time of one reference run: scaled figures are host seconds
#: at the speed where the kernel takes exactly this long.
REFERENCE_S = 1e-3
#: Reference runs on each side of one set-up or other one-off timing.
SETUP_RUNS = 5
#: A timed operation is scaled by the median of the reference runs from
#: this many places before it to this many after it.
WINDOW = 3


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


_ITEMS = [_Item(i * 7 % 13, i) for i in range(8000)]
_EXPECTED = sum(i * 3 % 7 for i in range(8000))


def reference_run() -> float:
    """Host seconds of one run of the fixed kernel."""
    start = time.perf_counter()
    totals = {}
    acc = 0
    for item in _ITEMS:
        totals[item.key] = totals.get(item.key, 0) + item.value
        acc += item.value * 3 % 7
    elapsed = time.perf_counter() - start
    if acc != _EXPECTED or len(totals) != 13:
        raise RuntimeError("reference kernel computed a wrong result")
    return elapsed


def factor(samples: List[float]) -> float:
    """Multiplier that rescales a wall time taken among ``samples``."""
    return REFERENCE_S / statistics.median(samples)


def bracketed(fn: Callable[[], T]) -> Tuple[T, float]:
    """Call ``fn`` between :data:`SETUP_RUNS` reference runs on each
    side; return its result and the factor for wall times it took."""
    before = [reference_run() for _ in range(SETUP_RUNS)]
    result = fn()
    after = [reference_run() for _ in range(SETUP_RUNS)]
    return result, factor(before + after)


def window(reference: List[float], position: int) -> List[float]:
    """The reference runs around timed operation ``position``, given one
    run before the first operation and one after each operation."""
    return reference[max(0, position - WINDOW + 1): position + WINDOW + 1]
