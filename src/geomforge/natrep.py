"""Universal natural representations over GF(2): line relation systems,
universal module dimensions and the O3 commutant/centralizer split.

All geometries handled here are of GF(2)-type: every line carries exactly
three points, and the universal module UM is GF(2)^points modulo the span R
of the lines' relation masks, each the bits of a line's three points.
Dimensions are read off echelon bases of bit masks (``build._basis_of``):
dim UM is the number of points minus the rank of R, and the O3 split needs
one more basis, of R together with the images of g + 1, since rank-nullity
on UM gives the other summand.  Only ``relation_matrix``, which returns the
relations as a ``MatrixGFp``, loads numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .build import ConstructionMetadata, _basis_of
from .geom import Geometry, GeometryError

if TYPE_CHECKING:
    from .gf2 import MatrixGFp

__all__ = [
    "NatRepResult",
    "NotGF2TypeError",
    "relation_matrix",
    "um_dimension",
    "o3_split_dims",
]


class NotGF2TypeError(GeometryError):
    """Some line does not carry exactly three points."""


@dataclass
class NatRepResult:
    """Dimension data of the universal natural module."""

    points: int
    relation_rank: int
    total_dim: int
    split: Optional[tuple[int, int]] = None  # (commutant, centralizer)

    def to_json(self) -> dict:
        payload = {
            "points": self.points,
            "rank": self.relation_rank,
            "dim": self.total_dim,
        }
        if self.split is not None:
            payload["split"] = list(self.split)
        return payload


def _lines_with_points(g: Geometry) -> list[tuple]:
    if g.rank < 2:
        raise GeometryError("relation system requires rank at least 2")
    out = []
    for line in g.elements_of_type(2):
        pts = [e for e in g.pencil(line) if g.type_of[e] == 1]
        if len(pts) != 3:
            raise NotGF2TypeError(
                f"line {line!r} carries {len(pts)} points, not 3"
            )
        out.append((line, pts))
    return out


def relation_matrix(g: Geometry) -> MatrixGFp:
    """One weight-3 row per line over the point columns: the GF(2) relation
    v_a + v_b + v_c = 0 for the three points of each line."""
    from .gf2 import MatrixGFp

    col, relations = _relations(g)
    entries = [(r, c, 1) for r, mask in enumerate(relations) for c in range(len(col)) if mask >> c & 1]
    return MatrixGFp.from_entries(2, len(relations), len(col), entries)


def _relations(g: Geometry) -> tuple[dict, list[int]]:
    """The point column index and one relation mask per line: the bits of
    the line's three points."""
    col = {p: i for i, p in enumerate(g.elements_of_type(1))}
    return col, [sum(1 << col[p] for p in pts) for _, pts in _lines_with_points(g)]


def um_dimension(g: Geometry) -> NatRepResult:
    """dim UM = points - rank of the relation system, the number of vectors
    in an echelon basis of the relation masks."""
    col, relations = _relations(g)
    rank = len(_basis_of(relations))
    return NatRepResult(len(col), rank, len(col) - rank)


def o3_split_dims(g: Geometry, meta: ConstructionMetadata) -> NatRepResult:
    """Split dim UM into the commutant and centralizer of the lifted O3
    generator: image and kernel of (g + 1) acting on UM = V / R.  The image
    is (T V + R) / R for T e_p = e_p + e_g(p), and the kernel has the rest
    of dim UM by rank-nullity, which holds because g permutes the lines and
    so maps R onto itself."""
    if meta.o3_generator is None:
        raise ValueError("construction metadata carries no O3 generator")
    o3 = meta.o3_generator
    if o3.order() != 3:
        raise ValueError(f"O3 generator must have order 3, found {o3.order()}")
    col, relations = _relations(g)
    perm = _point_permutation(meta, col)
    images = {sum(1 << q for i, q in enumerate(perm) if mask >> i & 1) for mask in relations}
    if not images <= set(relations):
        raise ValueError("the O3 generator does not map lines to lines")
    n, rank = len(col), len(_basis_of(relations))
    commutant = len(_basis_of(relations + [1 << p ^ 1 << perm[p] for p in range(n)])) - rank
    return NatRepResult(n, rank, n - rank, split=(commutant, n - rank - commutant))


def _point_permutation(meta: ConstructionMetadata, point_index: dict) -> list[int]:
    """The O3 generator as a permutation of point column indices, read off
    the action's image of that generator."""
    action = meta.action
    generators = list(action.group.generators)
    if meta.o3_generator not in generators:
        raise ValueError("the O3 generator is not a generator of the construction's action")
    gen_pos = generators.index(meta.o3_generator)
    return [point_index[action.apply(gen_pos, p)] for p in point_index]
