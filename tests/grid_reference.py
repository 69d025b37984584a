"""The pointwise cube test that GridFunction.cube_boxes must match.

`contains_points(Q, pts)` takes each point alone: it lies in the cube Q
when lo - 1e-9 side <= x < hi - 1e-9 side on every axis.  The index
boxes of cube_boxes, and so cell_mask, must hold exactly the cells whose
centers it accepts.
"""

import numpy as np


def contains_points(Q, pts):
    """Whether each point of pts, one a row, lies in the cube Q."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    tol = 1e-9 * Q.side
    return np.all((pts >= np.asarray(Q.lo) - tol)
                  & (pts < np.asarray(Q.hi) - tol), axis=-1)
