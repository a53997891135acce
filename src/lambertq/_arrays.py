"""The range of a float array, as the library's input gates read it."""


def bounds(v):
    """(min, max) of a float array as Python floats: one ``item()`` on one point,
    one ``min`` and one ``max`` on more.  A NaN anywhere makes both NaN; an empty
    array gives (inf, -inf), the identities of min and max."""
    if v.size == 1:
        return (v.item(),) * 2
    return (float(v.min()), float(v.max())) if v.size else (float("inf"), float("-inf"))
