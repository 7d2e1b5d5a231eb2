"""Values at the edges of the config schema's bounds, for the tests that
probe each bounded leaf and for the CLI fuzz pool."""

import math

from fedsim.schema import LEAVES, interval


def edges(key: str) -> tuple[list, list]:
    """Values of the leaf ``key`` just inside and just outside its bound:
    each closed end of an interval and the float next to it outside, the
    float next to each open end inside and the end itself outside, and
    NaN; a floor and the integer below it; each allowed name and one that
    is not. A list leaf gets one-item lists."""
    leaf = LEAVES[key]
    bound = leaf.bound
    if isinstance(bound, str):
        inside, outside = [], [math.nan]
        lo, hi, lo_closed, hi_closed = interval(bound)
        for end, closed, inward in ((lo, lo_closed, math.inf), (hi, hi_closed, -math.inf)):
            if closed:
                inside.append(end)
                if math.isfinite(end):
                    outside.append(math.nextafter(end, -inward))
            else:
                inside.append(math.nextafter(end, inward))
                outside.append(end)
    elif isinstance(bound, int):
        inside, outside = [bound], [bound - 1]
    else:
        inside, outside = list(bound), ["nope"]
    if isinstance(leaf.default, list):
        return [[v] for v in inside], [[v] for v in outside]
    return inside, outside


BOUNDED = tuple(key for key, leaf in LEAVES.items() if leaf.bound is not None)
