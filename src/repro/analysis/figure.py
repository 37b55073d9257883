"""Plain-text figure rendering (log-scale scatter).

Keeps the benches and examples free of plotting dependencies while
still giving a visual read of the regenerated figures.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Sequence, Tuple


def ascii_log_scatter(
    points: Iterable[Tuple[float, float, str]],
    x_buckets: Sequence[int],
    decades: Sequence[int],
) -> str:
    """Render (x, y, label) points on a log-y grid.

    Args:
        points: (x, y, one-char label) triples; y <= 0 points are dropped.
        x_buckets: integer x-axis buckets (e.g. years).
        decades: y-axis decades, e.g. ``range(7, -1, -1)``.
    """
    marks: Dict[Tuple[int, int], set] = {}
    for x, y, label in points:
        if y <= 0:
            continue
        decade = int(math.floor(math.log10(y)))
        decade = min(max(decade, min(decades)), max(decades))
        bucket = int(x)
        if bucket in x_buckets:
            marks.setdefault((decade, bucket), set()).add(label[:1])
    lines = []
    for decade in decades:
        cells = []
        for bucket in x_buckets:
            got = marks.get((decade, bucket), set())
            cells.append("".join(sorted(got)).ljust(4))
        lines.append(f"10^{decade} | " + " ".join(cells))
    lines.append("      +" + "-" * (len(x_buckets) * 5 + 2))
    lines.append("        " + " ".join(str(b)[-2:].ljust(4) for b in x_buckets))
    return "\n".join(lines)
