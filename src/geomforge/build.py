"""Concrete geometry constructions: the Petersen edge-vertex geometry, GF(2)
projective geometries, symplectic polar spaces, the generic subgroup-pattern
geometry over an elementary abelian 2-group and the rank-2 tilde geometry
inside GammaL3(4).  The Golay/M24/M22 construction lives in :mod:`geomforge.m22`.

Subspaces of GF(2)^m are identified by the sorted tuple of their nonzero
vectors, written as integer bit masks (or as 0-based point indices when a
permutation group supplies the vector action).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product
from math import prod
from typing import Iterable, Optional, Sequence

from .geom import (
    CapacityError,
    Geometry,
    element_action,
    is_geometry,
    isomorphic,
    quotient_by_action,
    is_s_covering,
    _one_flag_orbit,
)
from .perm import (
    GroupAction,
    Permutation,
    PermutationGroup,
    StabilizerChain,
    SubgroupPredicate,
    _as_point,
    _closure,
    induced_action,
    subgroup_search,
)

__all__ = [
    "ConstructionMetadata",
    "ConstructionError",
    "SubgroupPatternInput",
    "petersen_geometry",
    "projective_geometry_2",
    "symplectic_polar_space",
    "subgroup_pattern_geometry",
    "tilde_geometry",
    "gaussian_binomial_n2",
]

SYMPLECTIC_RANK_BOUND = 4


class ConstructionError(RuntimeError):
    """A construction failed one of its build-time verification checks."""


@dataclass
class ConstructionMetadata:
    """A verified geometry together with its group, the action on elements,
    an optional generator of O3(G), and the provenance of any search."""

    geometry: Geometry
    group: PermutationGroup
    action: GroupAction
    o3_generator: Optional[Permutation] = None
    provenance: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Petersen geometry P0


def petersen_geometry() -> ConstructionMetadata:
    """Edges (type 1) and vertices (type 2) of the Petersen graph in the
    Kneser model: vertices are 2-subsets of {0..4}, disjoint pairs adjacent;
    the group is S5 permuting the five underlying points."""
    vertices = [tuple(sorted(c)) for c in combinations(range(5), 2)]
    edges = [
        tuple(sorted((a, b)))
        for i, a in enumerate(vertices)
        for b in vertices[i + 1 :]
        if not set(a) & set(b)
    ]
    elements = [(e, 1) for e in edges] + [(v, 2) for v in vertices]
    incidences = [(e, v) for e in edges for v in e]
    geometry = Geometry(2, elements, incidences)
    group = PermutationGroup.symmetric(5)

    def apply(g: Permutation, eid):
        if isinstance(eid[0], int):  # vertex: a 2-subset
            return tuple(sorted(g.images[x] for x in eid))
        return tuple(
            sorted(tuple(sorted(g.images[x] for x in pair)) for pair in eid)
        )

    action = element_action(geometry, group, apply)
    return ConstructionMetadata(
        geometry, group, action, provenance={"name": "petersen"}
    )


# ---------------------------------------------------------------------------
# GF(2) subspace machinery: subspaces as sorted tuples of nonzero bit masks


def _basis_of(vectors: Iterable[int]) -> list[int]:
    """A basis of the span of the masks in echelon form: each vector is
    reduced by the basis vector with its leading bit until it is zero or
    has a leading bit of its own."""
    basis: dict[int, int] = {}
    for v in vectors:
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return list(basis.values())


def _span(vectors: Iterable[int]) -> tuple[int, ...]:
    """All nonzero vectors of the GF(2)-span, as a sorted tuple of masks."""
    out = {0}
    for b in _basis_of(vectors):
        out |= {x ^ b for x in out}
    out.discard(0)
    return tuple(sorted(out))


def _subspaces(vectors: Iterable[int], dim: int) -> list[tuple[int, ...]]:
    """Every dim-subspace of the span of the masks exactly once, as a sorted
    list.  In coordinates over ``_basis_of`` each has one reduced echelon
    basis: row i is basis[p_i] for pivot positions p_0 < ... < p_(dim-1),
    plus any combination of the later non-pivot basis vectors."""
    basis = _basis_of(vectors)
    out = []
    for pivots in combinations(range(len(basis)), dim):
        rows = []
        for p in pivots:
            free = _span(basis[j] for j in range(p + 1, len(basis)) if j not in pivots)
            rows.append([basis[p] ^ x for x in (0, *free)])
        out.extend(_span(choice) for choice in product(*rows))
    return sorted(out)


def _subspace_dim(subspace: Sequence[int]) -> int:
    """Dimension of a subspace given by its 2^d - 1 nonzero vectors."""
    return (len(subspace) + 1).bit_length() - 1


def _containment_incidences(subspaces: Sequence[tuple[int, ...]]) -> list[tuple]:
    """Containment pairs (small, big) among the given subspaces, compared as
    sets of vectors: the members containing ``small`` are the intersection
    of the pencils of members through each of its vectors."""
    on: dict[int, set] = {}
    for sub in subspaces:
        for v in sub:
            on.setdefault(v, set()).add(sub)
    return [
        (small, big)
        for small in subspaces
        for big in set.intersection(*(on[v] for v in small)) - {small}
    ]


def projective_geometry_2(n: int) -> ConstructionMetadata:
    """Proper nonzero subspaces of GF(2)^n typed by dimension, incidence by
    containment, with GL_n(2) acting.  For n = 1 the single point stands
    alone (there are no proper subspaces to take)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n == 1:
        geometry = Geometry(1, [((1,), 1)], [])
        group = PermutationGroup.trivial(1)
        action = element_action(geometry, group, lambda g, e: e)
        return ConstructionMetadata(geometry, group, action, provenance={"name": "pg", "n": 1})
    subspaces = [s for d in range(1, n) for s in _subspaces(range(1, 1 << n), d)]
    elements = [(s, _subspace_dim(s)) for s in subspaces]
    geometry = Geometry(n - 1, elements, _containment_incidences(subspaces))
    group = _general_linear_group(n)

    def apply(g: Permutation, sub):
        return tuple(sorted(g.images[v - 1] + 1 for v in sub))

    action = element_action(geometry, group, apply)
    return ConstructionMetadata(
        geometry, group, action, provenance={"name": "pg", "n": n}
    )


def _general_linear_group(n: int) -> PermutationGroup:
    """GL_n(2) as permutations of the nonzero vectors (degree 2^n - 1),
    generated by a transvection and a basis cycle."""
    if n == 1:
        return PermutationGroup.trivial(1)

    def linear_perm(matrix_rows: list[int]) -> Permutation:
        def image(v: int) -> int:
            out = 0
            for i in range(n):
                if (v >> i) & 1:
                    out ^= matrix_rows[i]
            return out

        return Permutation([image(v) - 1 for v in range(1, 1 << n)])

    transvection = [1 << i for i in range(n)]
    transvection[0] = (1 << 0) | (1 << 1)  # e1 -> e1 + e2
    cycle = [1 << ((i + 1) % n) for i in range(n)]
    return PermutationGroup(
        [linear_perm(transvection), linear_perm(cycle)], name=f"GL{n}(2)"
    )


# ---------------------------------------------------------------------------
# symplectic polar spaces C_n(2)


_PAIR_MASK = 0x5555555555555555  # even bit positions


def _swap_bit_pairs(y: int) -> int:
    return ((y & _PAIR_MASK) << 1) | ((y >> 1) & _PAIR_MASK)


def symplectic_transvections(n: int) -> list[Permutation]:
    """All transvections x -> x + <x,v>v of the standard symplectic GF(2)^2n,
    as permutations of the nonzero vectors.  The hyperbolic pairs sit on
    adjacent bit positions, so <x,v> is the parity of x & swap(v); each
    transvection is an involution, hence a bijection by construction."""
    size = 1 << (2 * n)
    out = []
    for v in range(1, size):
        w = _swap_bit_pairs(v)
        out.append(Permutation._trusted(tuple(
            (x ^ v if (x & w).bit_count() & 1 else x) - 1 for x in range(1, size)
        )))
    return out


def symplectic_generators(n: int) -> list[Permutation]:
    """The transvections of ``symplectic_transvections(n)`` kept in vector
    order when the group generated by those kept before does not contain
    them: 3n - 1 of the 2^2n - 1, and they generate Sp_2n(2)."""
    return list(_symplectic_group(n).generators)


def _symplectic_group(n: int) -> PermutationGroup:
    """Sp_2n(2) on the generators of :func:`symplectic_generators`.  The
    greedy pick extends one verified chain by each transvection it keeps;
    the group carries that chain, on which its order is asserted."""
    transvections = symplectic_transvections(n)
    chain = StabilizerChain(transvections[0].degree, [])
    for t in transvections:
        chain.extend(t)
    # |Sp_2n(2)| = 2^(n^2) (4 - 1)(4^2 - 1)...(4^n - 1)
    order = prod(4**i - 1 for i in range(1, n + 1)) << (n * n)
    if chain.order() != order:
        raise ValueError(f"group order {chain.order()} does not match expected {order}")
    group = PermutationGroup(chain.generators, name=f"Sp{2 * n}(2)")
    group._chain = chain
    return group


def _isotropic_subspaces(n: int) -> list[list[tuple[int, ...]]]:
    """The nonzero totally isotropic subspaces of GF(2)^2n, one sorted list
    per dimension 1..n, each subspace the sorted tuple of its nonzero
    vectors.  A subspace is grown from its reduced echelon rows (pivots
    descending) by a vector v orthogonal to them whose leading bit lies
    below the lowest pivot and is zero in every row; the rows plus v are
    then the reduced echelon rows of the larger subspace, so each
    subspace is made exactly once, from the span of its other rows."""
    layer = [((v,), (v,)) for v in range(1, 1 << (2 * n))]
    by_dim = [[vectors for _, vectors in layer]]
    for _ in range(n - 1):
        grown = []
        for rows, vectors in layer:
            swapped = [_swap_bit_pairs(r) for r in rows]
            for lead in range(rows[-1].bit_length() - 1):
                if any(r >> lead & 1 for r in rows):
                    continue
                for v in range(1 << lead, 2 << lead):
                    if all((v & s).bit_count() & 1 == 0 for s in swapped):
                        grown.append(
                            (rows + (v,), tuple(sorted((*vectors, v, *(u ^ v for u in vectors)))))
                        )
        layer = grown
        by_dim.append(sorted(vectors for _, vectors in layer))
    return by_dim


def symplectic_polar_space(n: int) -> ConstructionMetadata:
    """Nonzero totally isotropic subspaces of GF(2)^2n typed by dimension,
    each made once by echelon growth (:func:`_isotropic_subspaces`), with
    Sp_2n(2) generated by the transvections of :func:`symplectic_generators`;
    its order is asserted on the chain that picked them.  The axioms and
    flag-transitivity are verified at build time for 2 <= n <= 3."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if n > SYMPLECTIC_RANK_BOUND:
        raise CapacityError(f"symplectic rank {n} above bound {SYMPLECTIC_RANK_BOUND}")
    by_dim = _isotropic_subspaces(n)
    elements = []
    for d, subs in enumerate(by_dim, start=1):
        elements.extend((s, d) for s in subs)
    all_subs = [s for subs in by_dim for s in subs]
    geometry = Geometry(n, elements, _containment_incidences(all_subs))
    group = _symplectic_group(n)

    def apply(g: Permutation, sub):
        return tuple(sorted(g.images[v - 1] + 1 for v in sub))

    if 2 <= n <= 3:
        action = _certified_action("symplectic space", geometry, group, apply)
    else:
        action = element_action(geometry, group, apply)
    return ConstructionMetadata(geometry, group, action, provenance={"name": "sp", "n": n})


def _certified_action(name: str, geometry: Geometry, group: PermutationGroup, apply) -> GroupAction:
    """The action of ``group`` on the elements of ``geometry`` by ``apply``,
    once the axioms and then flag-transitivity are checked; a failure raises
    ConstructionError naming the construction.  ``element_action`` checks
    that the action preserves types and incidence, so flag-transitivity is
    the unchecked orbit test."""
    verdict = is_geometry(geometry)
    if not verdict.ok:
        raise ConstructionError(f"{name} fails axioms: {verdict.failures}")
    action = element_action(geometry, group, apply)
    if not _one_flag_orbit(geometry, action):
        raise ConstructionError(f"{name} is not flag-transitive")
    return action


# ---------------------------------------------------------------------------
# the generic subgroup-pattern geometry


@dataclass
class SubgroupPatternInput:
    """G acting linearly on the nonzero vectors of H = GF(2)^m (point i of
    the permutation domain is the vector i+1), and a subspace E given by its
    nonzero vectors as 0-based points."""

    group: PermutationGroup
    dim_h: int
    subspace_points: tuple[int, ...]

    def __post_init__(self):
        expected = (1 << self.dim_h) - 1
        if self.group.degree != expected:
            raise ValueError(
                f"group degree {self.group.degree} does not match 2^{self.dim_h}-1"
            )
        for p in self.subspace_points:
            if not 0 <= _as_point(p) < expected:
                raise ValueError(f"subspace point {p!r} outside 0..{expected - 1}")
        span = _span([p + 1 for p in self.subspace_points])
        if set(span) != {p + 1 for p in self.subspace_points}:
            raise ValueError("subspace_points is not closed under addition")


def _apply_points(g: Permutation, sub: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(g.images[p] for p in sub))


def _points_orbit(group: PermutationGroup, seeds) -> list[tuple[int, ...]]:
    """The closure of sorted point tuples (point sets) under the generators."""
    return _closure(seeds, lambda sub: [_apply_points(g, sub) for g in group.generators])


def normalizer_induces_full_linear_group(
    group: PermutationGroup, subspace_points: Sequence[int]
) -> bool:
    """Check the construction precondition: the setwise stabilizer N of E
    must induce the whole of GL(E) on E.  N induces N / G_(E), where G_(E)
    fixes E pointwise, and |N| = |G| / |E^G| by orbit-stabilizer, so this
    is |G| == |GL(E)| * |E^G| * |G_(E)|, with |G_(E)| read off one chain."""
    points = sorted(set(subspace_points))
    order = group.order()  # first, so that it bounds the chain below
    fixed = group.base_chain(points).stabilizer(len(points)).order()
    orbit = _points_orbit(group, [tuple(points)])
    dim = _subspace_dim(points)
    return order == prod((1 << dim) - (1 << i) for i in range(dim)) * len(orbit) * fixed


def subgroup_pattern_geometry(pattern: SubgroupPatternInput) -> Geometry:
    """Elements are the G-orbit closure of the nonzero subspaces of E, typed
    by dimension, incidence by containment.  Strong connectedness is NOT
    assumed; callers must run is_geometry on the result."""
    group = pattern.group
    e_points = sorted(pattern.subspace_points)
    if not normalizer_induces_full_linear_group(group, e_points):
        raise ConstructionError(
            "normalizer of E does not induce the full linear group on E"
        )
    dim_e = _subspace_dim(e_points)
    e_vectors = [p + 1 for p in e_points]
    elements = []
    for d in range(1, dim_e + 1):
        # the d-subspaces of E as points, closed under the generators
        orbit = _points_orbit(group, (tuple(v - 1 for v in s) for s in _subspaces(e_vectors, d)))
        elements.extend((s, d) for s in sorted(orbit))
    return Geometry(dim_e, elements, _containment_incidences([s for s, _ in elements]))


# ---------------------------------------------------------------------------
# the tilde geometry T0 inside GammaL3(4)


# GF(4) = {0, 1, w, w+1} encoded as 0..3 with bits (a, b) for a + b*w
_GF4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))


def _gf4_coord(v: int, i: int) -> int:
    return (v >> (2 * i)) & 3


def _gf4_set_coord(v: int, i: int, c: int) -> int:
    return (v & ~(3 << (2 * i))) | (c << (2 * i))


def _gf4_scale(c: int, v: int) -> int:
    out = 0
    for i in range(3):
        out |= _GF4_MUL[c][_gf4_coord(v, i)] << (2 * i)
    return out


def _vector_perm(func) -> Permutation:
    """Permutation of the 63 nonzero vectors of GF(4)^3 read as GF(2)^6."""
    return Permutation([func(v) - 1 for v in range(1, 64)])


def gamma_l3_4() -> tuple[PermutationGroup, Permutation]:
    """GammaL3(4) on the 63 nonzero hexacode vectors, plus the order-3
    scalar (multiplication by w).  The GF(2)^6 reading uses basis (1, w)
    per GF(4) coordinate."""

    def diag_w(v: int) -> int:
        return _gf4_set_coord(v, 0, _GF4_MUL[2][_gf4_coord(v, 0)])

    def cycle(v: int) -> int:
        return _gf4_coord(v, 2) | (_gf4_coord(v, 0) << 2) | (_gf4_coord(v, 1) << 4)

    def transvection(v: int) -> int:
        return _gf4_set_coord(v, 0, _gf4_coord(v, 0) ^ _gf4_coord(v, 1))

    def frobenius(v: int) -> int:
        out = 0
        for i in range(3):
            c = _gf4_coord(v, i)
            a, b = c & 1, c >> 1
            out |= ((a ^ b) | (b << 1)) << (2 * i)
        return out

    group = PermutationGroup(
        [_vector_perm(f) for f in (diag_w, cycle, transvection, frobenius)],
        name="GammaL3(4)",
    )
    scalar = _vector_perm(lambda v: _gf4_scale(2, v))
    if group.order() != 362880:
        raise ConstructionError(f"GammaL3(4) order check failed: {group.order()}")
    if scalar.order() != 3 or not group.contains(scalar):
        raise ConstructionError("scalar subgroup check failed")
    return group, scalar


def tilde_geometry(seed: int) -> ConstructionMetadata:
    """The rank-2 tilde geometry: find G of order 2160 containing the scalar
    subgroup inside GammaL3(4), select the dim-2 subspace orbit satisfying
    the normalizer condition, build the subgroup-pattern geometry and verify
    counts, flag-transitivity and the triple-cover structure over GQ(2,2)."""
    ambient, scalar = gamma_l3_4()
    scalar_group = PermutationGroup([scalar], name="O3")
    predicate = SubgroupPredicate(order=2160, contains=scalar_group)
    group = subgroup_search(ambient, predicate, seed=seed)
    if group is None:
        raise ConstructionError(
            f"subgroup search (order 2160, seed {seed}) exhausted its budget"
        )

    # candidate E: orbit representatives of 2-subspaces, orbit length 45,
    # normalizer inducing GL2(2) on E
    two_subspaces = [tuple(v - 1 for v in s) for s in _subspaces(range(1, 64), 2)]
    sub_action = induced_action(group, two_subspaces, _apply_points)
    passing = [
        orb[0]
        for orb in sub_action.orbits()
        if len(orb) == 45 and normalizer_induces_full_linear_group(group, orb[0])
    ]
    if not passing:
        raise ConstructionError("no 2-subspace orbit satisfies the preconditions")
    e_points = passing[0]

    pattern = SubgroupPatternInput(group=group, dim_h=6, subspace_points=e_points)
    geometry = subgroup_pattern_geometry(pattern)
    action = _certified_action("tilde candidate", geometry, group, _apply_points)
    points = geometry.elements_of_type(1)
    lines = geometry.elements_of_type(2)
    if len(points) != 45 or len(lines) != 45:
        raise ConstructionError(
            f"tilde counts are {len(points)}/{len(lines)}, expected 45/45"
        )

    # quotient by the scalar subgroup must 1-cover GQ(2,2)
    o3_action = induced_action(scalar_group, geometry.elements, _apply_points)
    quotient, morphism = quotient_by_action(geometry, o3_action)
    q_verdict = is_geometry(quotient)
    if not q_verdict.ok:
        raise ConstructionError(f"tilde quotient fails axioms: {q_verdict.failures}")
    gq = symplectic_polar_space(2)
    if isomorphic(quotient, gq.geometry) is None:
        raise ConstructionError("tilde quotient is not isomorphic to GQ(2,2)")
    if not is_s_covering(morphism, 1):
        raise ConstructionError("tilde quotient map is not a 1-covering")
    # normality makes the normal closure of the scalar the scalar subgroup
    # itself, so it acts trivially on the quotient by construction
    if not scalar_group.is_normal_in(group):
        raise ConstructionError("scalar subgroup is not normal in the found group")

    return ConstructionMetadata(
        geometry,
        group,
        action,
        o3_generator=scalar,
        provenance={
            "name": "tilde",
            "seed": seed,
            "subspace": list(e_points),
            "passing_orbits": len(passing),
        },
    )


# ---------------------------------------------------------------------------
# counting utility


def gaussian_binomial_n2(n: int) -> int:
    """Number of 2-subspaces of GF(2)^n: (2^n - 1)(2^n - 2)/6, exact."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return (2**n - 1) * (2**n - 2) // 6
