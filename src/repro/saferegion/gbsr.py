"""Grid Bitmap Encoded Safe Region (paper Section 4.1).

GBSR represents the safe region of a base grid cell with a single-level
``G x G`` bitmap: one bit for the whole cell plus one bit per sub-cell.
It is the degenerate pyramid of height 1 — the paper's experiments treat
"h = 1" as the GBSR configuration — and exists mostly to demonstrate the
accuracy/size dilemma that motivates PBSR: a coarse grid wastes safe
area (Fig. 3(b)), a fine grid wastes bits (Fig. 3(c)).
"""

from __future__ import annotations

from .pbsr import PBSRComputer


class GBSRComputer(PBSRComputer):
    """Builds single-level grid bitmap safe regions.

    ``resolution`` is the grid arity ``G`` (the paper's Fig. 3 shows 3x3
    and 9x9 variants).  A height-1 :class:`PBSRComputer` that treats all
    obstacles alike (no sharing optimization at a single level).
    """

    def __init__(self, resolution: int = 3) -> None:
        if resolution < 2:
            raise ValueError("resolution must be at least 2")
        super().__init__(height=1, fan=resolution, share_public=False)
        self.resolution = resolution
