"""The uniformization power block as it was before the window-sized power
ring replaced it, kept verbatim as the reference for the differential
tests: every row the ring holds must equal the block's row for the same
term bit for bit."""

import numpy as np

from depmark.model import NumericFailureError
from depmark.solve import UNIFORMIZATION_TERM_CAP


def _power_block(p0: np.ndarray, stochs: np.ndarray, end: int) -> np.ndarray:
    """Row j * size + k is p0 S_j^k, for the matrices S_j of a (g, n, n)
    stack and k below the power of two ``size`` >= ``end``, by stacked
    doubling: rows [m, 2m) of each S are its rows [0, m) times S^m.  Level
    shapes depend on ``size`` alone and a stacked product equals the 2-D one
    slice by slice, so a row depends on its k and S alone."""
    size = 1 << (end - 1).bit_length()
    if size > UNIFORMIZATION_TERM_CAP:
        raise NumericFailureError(
            f"uniformization needs a block of {size} powers for {end} series terms, "
            f"beyond the cap of {UNIFORMIZATION_TERM_CAP}"
        )
    powers = np.empty((len(stochs), size, len(p0)))
    powers[:, 0] = p0
    jump = stochs
    m = 1
    while m < size:
        if m > 1:
            jump = jump @ jump
        np.matmul(powers[:, :m], jump, out=powers[:, m:2 * m])
        m *= 2
    return powers.reshape(-1, len(p0))
