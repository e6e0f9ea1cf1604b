"""Scratch memory that the steps of an iteration share.

An iteration such as the Lyapunov-Perron fixed point needs the same few
arrays in every step: the next iterate, the data it is computed from, the
rows of each resolvent branch.  Allocating them afresh in every step makes
the allocator map and return the same pages again and again, and each first
touch of a fresh page is a page fault.  A :class:`Workspace` lends them
instead, from buffers it keeps for the life of the iteration.
"""

from __future__ import annotations

import math

import numpy as np


class Workspace:
    """Scratch arrays that the steps of one iteration reuse.

    :meth:`take` lends a C-contiguous complex array of the requested shape,
    a view of the smallest free buffer with room for it (an array given
    back in that shape comes back as it is).  Only when no free buffer has
    room is a new one allocated, of exactly that size, and then the free
    buffers, all too short, are dropped: the pool never holds more buffers
    than were lent at once.  :meth:`give` returns a lent array to the pool.
    So an iteration whose steps take and give the same shapes allocates in
    its first steps only, and its later steps map no fresh pages.  A buffer
    is lent to one taker at a time, and an array that is never given back
    (an iteration's result) leaves the pool for good.
    """

    def __init__(self):
        self._free: list[np.ndarray] = []  # arrays given back, one per buffer

    def take(self, shape: tuple) -> np.ndarray:
        size = math.prod(shape)
        if not size:
            return np.empty(shape, dtype=np.complex128)
        free = self._free
        best, best_room = -1, 0
        for i, array in enumerate(free):  # smallest room first, then this shape
            room = array.base.size
            if room >= size and (
                best < 0 or room < best_room or (room == best_room and array.shape == shape)
            ):
                best, best_room = i, room
        if best < 0:
            free.clear()
            return np.empty(size, dtype=np.complex128).reshape(shape)
        array = free.pop(best)
        return array if array.shape == shape else array.base[:size].reshape(shape)

    def clear(self) -> None:
        """Drop every free buffer, for an iteration whose arrays shrink: the
        takes that follow allocate buffers of their own size."""
        self._free.clear()

    def give(self, array: np.ndarray) -> None:
        """Return an array :meth:`take` lent; it must not be used after."""
        if array.base is not None:
            self._free.append(array)
