"""The dense solve of a graph with a cycle, with numpy (see ``tripoint.graph``).

``graph`` imports this module only when it first solves a graph with a
cycle, so parsing, checking a pair of trees and the commands other than
``check`` neither compile it nor load numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .errors import UnsupportedIndex

if TYPE_CHECKING:
    from .graph import GradedBigraph


def _dense_norm(g: GradedBigraph) -> tuple:
    """The norm of a graph with a cycle, with the even-depth mask, B and ``G = B B^T``.

    Depth parity splits the graph into even and odd sides, so on them its
    adjacency is ``[[0, B], [B^T, 0]]``, with B the even-by-odd block.  A
    mask of the even depths over the graph's flat index ranks each vertex
    on its side, and each edge is counted straight into B at the ranks of
    its even and its odd end, so nothing of size V x V is allocated.  The
    norm is the square root of the largest eigenvalue of G, whose entries
    are small integers and so exact.  The mask, B and G come back with it
    for ``_dense_vector``.
    """
    offsets = g._offsets
    size = offsets[-1]
    even = np.zeros(size, dtype=bool)
    for lo, hi in zip(offsets[::2], offsets[1::2]):
        even[lo:hi] = True
    even_rank, odd_rank = np.cumsum(even) - 1, np.cumsum(~even) - 1
    n_even = int(np.count_nonzero(even))
    n_odd = size - n_even
    depth, u, v = np.array(g.edges).T
    starts = np.array(offsets)
    top, bottom = starts[depth] + u, starts[depth + 1] + v  # flat index of each end
    odd_top = depth % 2 == 1
    cells = (even_rank[np.where(odd_top, bottom, top)] * n_odd
             + odd_rank[np.where(odd_top, top, bottom)])
    b = np.bincount(cells, minlength=n_even * n_odd).reshape(n_even, n_odd).astype(float)
    gram = b @ b.T
    try:
        return math.sqrt(np.linalg.eigvalsh(gram)[-1]), even, b, gram
    except np.linalg.LinAlgError as exc:
        raise UnsupportedIndex(f"Perron solve failed: {exc}") from None


def _dense_vector(g: GradedBigraph, sigma: float) -> list[float]:
    """Perron vector of a graph with a cycle, by inverse iteration at ``sigma``.

    Each step is solved through the Schur complement ``sigma^2 I - G`` on
    the even side, with the mask, B and G of ``_dense_norm``, and the two
    halves of the vector go back into flat order through the mask.
    """
    _, even, b, gram = g._dense
    schur = -gram
    schur.flat[:: len(gram) + 1] += sigma * sigma
    x_even, x_odd = np.ones(b.shape[0]), np.ones(b.shape[1])
    try:
        for _ in range(2):
            x_even = np.linalg.solve(schur, sigma * x_even + b @ x_odd)
            x_odd = (x_odd + b.T @ x_even) / sigma
    except np.linalg.LinAlgError as exc:
        raise UnsupportedIndex(f"Perron solve failed: {exc}") from None
    vec = np.empty(len(even))
    vec[even], vec[~even] = x_even, x_odd
    return vec.tolist()
