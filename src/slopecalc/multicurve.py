"""Multicurves on the 3-punctured sphere with prescribed boundary endpoints.

A dividing multicurve with 2*k_i endpoints on the i-th boundary circle and no
homotopically trivial components is coded by six arc weights: n_ij arcs
joining boundary i to boundary j, and b_i boundary-parallel arcs at boundary
i.  Closed components are excluded from the model outright: every essential
closed curve here is boundary-parallel and forces overtwistedness, so the
relevant dividing sets never carry one.  Endpoint bookkeeping gives

    n12 + n13 + 2*b1 = 2*k1
    n12 + n23 + 2*b2 = 2*k2
    n13 + n23 + 2*b3 = 2*k3

and enumeration is exact integer search over that system.
"""

from __future__ import annotations

from .farey import Value


class BoundaryData(Value):
    """Half the endpoint count on each boundary circle."""

    __slots__ = ("k1", "k2", "k3")

    def __init__(self, k1: int, k2: int, k3: int) -> None:
        if min(k1, k2, k3) < 0:
            raise ValueError("endpoint counts must be nonnegative")
        super().__init__(k1, k2, k3)

    def __str__(self) -> str:
        return f"{self.k1},{self.k2},{self.k3}"


def parse_boundary(text: str) -> BoundaryData:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"cannot parse boundary data {text!r}")
    return BoundaryData(*(int(p) for p in parts))


class MulticurveCoordinates(Value):
    """Arc weights of a multicurve, up to non-relative isotopy.

    Relative classes differ from these by Dehn twists along the boundary,
    which the coordinates do not record.
    """

    __slots__ = ("n12", "n13", "n23", "b1", "b2", "b3")

    def __init__(self, n12: int, n13: int, n23: int, b1: int, b2: int, b3: int) -> None:
        if min(n12, n13, n23, b1, b2, b3) < 0:
            raise ValueError("arc weights must be nonnegative")
        object.__setattr__(self, "n12", n12)
        object.__setattr__(self, "n13", n13)
        object.__setattr__(self, "n23", n23)
        object.__setattr__(self, "b1", b1)
        object.__setattr__(self, "b2", b2)
        object.__setattr__(self, "b3", b3)

    def __str__(self) -> str:
        return f"({self.n12},{self.n13},{self.n23}|{self.b1},{self.b2},{self.b3})"


def enumerate_multicurves(
    bd: BoundaryData, allow_boundary_parallel: bool
) -> list[MulticurveCoordinates]:
    """All coordinate vectors meeting the endpoint equations, in lex order.

    With allow_boundary_parallel False the b_i are pinned to zero (the tight
    case), and the equations fix n_ij = k_i + k_j - k_l for {i, j, l} =
    {1, 2, 3}: one vector when all three are nonnegative, none otherwise.
    Lexicographic order on (n12, n13, n23, b1, b2, b3); since the b_i are
    determined by the n_ij, ordering the n-loops ascending suffices.  Integer
    b1 and b2 need n13 = n12 = n23 (mod 2), which makes b3 an integer too; so
    the n13 and n23 loops step by 2 from n12 % 2 and every point they visit
    is integral.
    """
    if not allow_boundary_parallel:
        n = (bd.k1 + bd.k2 - bd.k3, bd.k1 + bd.k3 - bd.k2, bd.k2 + bd.k3 - bd.k1)
        return [MulticurveCoordinates(*n, 0, 0, 0)] if min(n) >= 0 else []
    out = []
    for n12 in range(2 * min(bd.k1, bd.k2) + 1):
        for n13 in range(n12 % 2, min(2 * bd.k1 - n12, 2 * bd.k3) + 1, 2):
            for n23 in range(n12 % 2, min(2 * bd.k2 - n12, 2 * bd.k3 - n13) + 1, 2):
                b1 = bd.k1 - (n12 + n13) // 2
                b2 = bd.k2 - (n12 + n23) // 2
                b3 = bd.k3 - (n13 + n23) // 2
                out.append(MulticurveCoordinates(n12, n13, n23, b1, b2, b3))
    return out
