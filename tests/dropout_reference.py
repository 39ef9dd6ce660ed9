"""Test oracle for dropout's raw-bit mask rule, drawn the plain way.

One full-length draw of ``rng.bit_generator.random_raw`` words, read as
little-endian uint16 lanes: each last-axis row of width ``k`` takes
``ceil(k/4)`` words, in C order, and an element is kept iff its lane is
below ``threshold = round((1 - p) * 65536)``.  ``F.dropout`` must match
it bit for bit however it blocks, slices or skips the draw.
"""

import numpy as np


def threshold(p):
    return round((1.0 - p) * 65536)


def raw_bit_mask(rng, shape, p):
    """The keep mask of ``F.dropout`` over ``shape`` (PCG64 generators)."""
    width = shape[-1]
    words = -(-width // 4)
    rows = int(np.prod(shape[:-1]))
    raw = rng.bit_generator.random_raw(rows * words)
    lanes = raw.astype("<u8").view("<u2").reshape(rows, 4 * words)[:, :width]
    return (lanes < threshold(p)).reshape(shape)


def scaled_mask(rng, shape, p, dtype):
    """``mask * 65536 / t`` in ``dtype``: what ``F.dropout`` multiplies by."""
    mask = raw_bit_mask(rng, shape, p)
    return mask.astype(dtype) * np.dtype(dtype).type(65536 / threshold(p))
