"""The ping-pong Image Cache and its finite-state machine (Figure 5).

The Image Cache of the ORB Extractor holds three cache lines, each storing 8
columns of image pixels.  The lines receive input data by turns under control
of an FSM: the FSM is initialised by pre-storing 16 columns (two lines), and
in every subsequent state one line receives new columns from the AXI stream
while the other two feed the 7x7-window datapath.  The same ping-pong
structure is reused for the Score Cache and the Smoothened Image Cache.

:class:`PingPongImageCache` simulates this behaviour explicitly: columns are
pushed in groups of ``columns_per_line`` and the class tracks which line is
filling and which lines are readable in each state, so tests can check the
schedule of Figure 5 literally (line A, B fill first, then C fills while A
and B stream out, and so on cyclically).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ...errors import HardwareModelError


@dataclass
class CacheLineState:
    """State of one cache line at a point in time."""

    index: int
    columns: Optional[np.ndarray] = None  # (rows, columns_per_line) pixels
    column_offset: int = -1  # image column index of the first stored column

    @property
    def is_valid(self) -> bool:
        return self.columns is not None


@dataclass
class FsmTransition:
    """Record of one FSM state: which line filled, which lines streamed."""

    state_index: int
    filling_line: int
    streaming_lines: Tuple[int, int]
    column_offset: int


class PingPongImageCache:
    """Cycle- and data-accurate model of the 3-line ping-pong cache.

    Parameters
    ----------
    rows:
        Image height (pixels per column).
    columns_per_line:
        Number of image columns stored per cache line (8 in the paper).
    num_lines:
        Number of cache lines (3 in the paper).
    """

    def __init__(self, rows: int, columns_per_line: int = 8, num_lines: int = 3) -> None:
        if rows <= 0:
            raise HardwareModelError("rows must be positive")
        if columns_per_line <= 0:
            raise HardwareModelError("columns_per_line must be positive")
        if num_lines < 3:
            raise HardwareModelError("the ping-pong cache needs at least 3 lines")
        self.rows = rows
        self.columns_per_line = columns_per_line
        self.num_lines = num_lines
        self.lines: List[CacheLineState] = [CacheLineState(i) for i in range(num_lines)]
        self.transitions: List[FsmTransition] = []
        self._next_fill = 0
        self._columns_loaded = 0
        self._state_index = 0

    # -- loading -------------------------------------------------------------
    def push_columns(self, columns: np.ndarray) -> FsmTransition:
        """Load one line's worth of image columns into the cache.

        ``columns`` must have shape ``(rows, columns_per_line)``.  Returns the
        FSM transition record describing which line filled and which lines are
        streaming to the datapath during this state.
        """
        columns = np.asarray(columns, dtype=np.uint8)
        if columns.shape != (self.rows, self.columns_per_line):
            raise HardwareModelError(
                f"expected columns of shape {(self.rows, self.columns_per_line)}, "
                f"got {columns.shape}"
            )
        fill_index = self._next_fill
        line = self.lines[fill_index]
        line.columns = columns.copy()
        line.column_offset = self._columns_loaded
        self._columns_loaded += self.columns_per_line
        self._next_fill = (self._next_fill + 1) % self.num_lines
        streaming = self._streaming_lines(fill_index)
        transition = FsmTransition(
            state_index=self._state_index,
            filling_line=fill_index,
            streaming_lines=streaming,
            column_offset=line.column_offset,
        )
        self.transitions.append(transition)
        self._state_index += 1
        return transition

    def _streaming_lines(self, filling: int) -> Tuple[int, int]:
        """The two lines that feed the datapath while ``filling`` receives data."""
        others = [i for i in range(self.num_lines) if i != filling]
        return (others[0], others[1])

    # -- data access ------------------------------------------------------------
    def readable_columns(self) -> int:
        """Number of distinct image columns currently resident in the cache."""
        return sum(self.columns_per_line for line in self.lines if line.is_valid)

    def window(self, center_column: int, width: int = 7) -> np.ndarray:
        """Extract a ``rows x width`` slab centred on ``center_column``.

        The requested columns must all be resident; this mirrors the datapath
        constraint that the 7x7 window only reads from the two streaming
        lines (plus the previously filled one).
        """
        half = width // 2
        first = center_column - half
        last = center_column + half
        slab = np.zeros((self.rows, width), dtype=np.uint8)
        for offset in range(width):
            column_index = first + offset
            slab[:, offset] = self._column(column_index)
        if first < 0 or last >= self._columns_loaded:
            raise HardwareModelError(
                f"window [{first}, {last}] outside loaded columns (0..{self._columns_loaded - 1})"
            )
        return slab

    def _column(self, column_index: int) -> np.ndarray:
        if column_index < 0:
            raise HardwareModelError(f"column {column_index} is negative")
        for line in self.lines:
            if not line.is_valid:
                continue
            start = line.column_offset
            if start <= column_index < start + self.columns_per_line:
                assert line.columns is not None
                return line.columns[:, column_index - start]
        raise HardwareModelError(f"column {column_index} is not resident in the cache")

    # -- reporting ------------------------------------------------------------
    def fsm_schedule(self) -> List[Tuple[int, Tuple[int, int]]]:
        """Return the (filling line, streaming lines) sequence observed so far.

        This is the schedule Figure 5 draws: after initialisation the fill
        target cycles A -> B -> C -> A -> ... while the other two lines stream.
        """
        return [(t.filling_line, t.streaming_lines) for t in self.transitions]


def stream_image_through_cache(
    pixels: np.ndarray, columns_per_line: int = 8, num_lines: int = 3
) -> tuple[PingPongImageCache, int]:
    """Stream a whole image through a fresh cache; return (cache, num_states).

    Used by tests and by the Figure-5 benchmark to reproduce the documented
    I/O schedule on a real image.  Trailing columns that do not fill a whole
    line are zero-padded, as a hardware DMA would pad the final burst.
    """
    pixels = np.asarray(pixels, dtype=np.uint8)
    if pixels.ndim != 2:
        raise HardwareModelError("pixels must be a 2-D array")
    rows, cols = pixels.shape
    cache = PingPongImageCache(rows, columns_per_line, num_lines)
    num_groups = (cols + columns_per_line - 1) // columns_per_line
    for group in range(num_groups):
        start = group * columns_per_line
        stop = min(start + columns_per_line, cols)
        block = np.zeros((rows, columns_per_line), dtype=np.uint8)
        block[:, : stop - start] = pixels[:, start:stop]
        cache.push_columns(block)
    return cache, num_groups
