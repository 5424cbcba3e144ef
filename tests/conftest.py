import dataclasses
import math

import numpy as np
import pytest

from gfcperiods import QuadConfig, contour, quad, validate_spec

# (k, n) -> lambda tuple; the desk-scale curve set exercised throughout.
DESK_SPECS = {
    (3, 2): (),
    (4, 2): (),
    (2, 3): (2.0,),
    (2, 4): (2.0, 2.0 + 1.0j),
    (3, 3): (-1.5,),
}


def literal_loop(z0, i, R, orientation):
    """The segments of the standard loop around r_i, walked for real: the
    route in of `contour.loop_pieces`, its circle in the orientation's
    sense, then the route in reversed line by line."""
    inbound, circle = contour.loop_pieces(z0, i, R)
    if orientation == -1:
        circle = dataclasses.replace(circle, end_angle=circle.start_angle - 2.0 * math.pi)
    return inbound + (circle,) + tuple(contour.Line(s.end, s.start) for s in reversed(inbound))


def integrate_segments(segments, logs0, R, E, cfg):
    """Integrals of W dw along a chain of segments from logs0, one per row
    of E, added in segment order; and the logs at the chain's end."""
    (logs,) = contour.chain_logs([segments], R, [logs0])
    row = np.zeros(len(E), dtype=complex)
    for values in quad._gl_batch(segments, logs[:-1], R, E, cfg):
        row += values
    return row, logs[-1]


@pytest.fixture(scope="session")
def quad_cfg():
    return QuadConfig()


@pytest.fixture(scope="session")
def desk_specs():
    return {kn: validate_spec(kn[0], kn[1], lams) for kn, lams in DESK_SPECS.items()}
