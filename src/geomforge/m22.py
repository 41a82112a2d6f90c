"""Optional large-construction tier: the binary Golay code, M24, Aut(M22)
and the rank-3 Petersen-type geometry built from the duad quotient of the
Golay cocode.

Bundled data (a Golay generator matrix and M24 permutation generators) is
hash-checked against the manifest and then re-verified semantically: the
code must have dimension 12 with 759 weight-8 words, and the loaded
permutations must preserve the code and generate a group of order
244823040.  No unverified constants flow into results.
"""

from __future__ import annotations

import hashlib
import json
import os
from functools import lru_cache
from itertools import combinations
from pathlib import Path
from random import Random

from .build import (
    ConstructionError,
    ConstructionMetadata,
    SubgroupPatternInput,
    _apply_points,
    _basis_of,
    _certified_action,
    _span,
    subgroup_pattern_geometry,
)
from .perm import GroupAction, Permutation, PermutationGroup, StabilizerChain

__all__ = [
    "GolayCode",
    "golay_code",
    "mathieu_group_24",
    "aut_m22",
    "build_m22_geometry",
    "data_dir",
]

M24_ORDER = 244823040
AUT_M22_ORDER = 887040
DUAD = (22, 23)


def data_dir() -> Path:
    override = os.environ.get("GEOMFORGE_DATA")
    if override:
        return Path(override)
    return Path(__file__).parent / "data"


def _load_verified(name: str) -> dict:
    base = data_dir()
    manifest_path = base / "MANIFEST.sha256"
    expected = {}
    for line in manifest_path.read_text().splitlines():
        digest, fname = line.split()
        expected[fname] = digest
    raw = (base / name).read_bytes()
    actual = hashlib.sha256(raw).hexdigest()
    if expected.get(name) != actual:
        raise ConstructionError(f"data file {name} fails its manifest hash")
    return json.loads(raw)


class GolayCode:
    """The [24, 12, 8] binary Golay code with syndrome machinery."""

    def __init__(self, basis: list[int]):
        self.basis = list(basis)
        self.words = (0, *_span(self.basis))
        self.octads = [w for w in self.words if w.bit_count() == 8]
        self._rep = self._coset_representatives()

    def verify(self) -> None:
        if len(self.basis) != 12 or len(self.words) != 4096:
            raise ConstructionError("Golay basis does not span a 12-dimensional code")
        weights = sorted({w.bit_count() for w in self.words if w})
        if min(weights) != 8 or len(self.octads) != 759:
            raise ConstructionError(
                f"Golay parameters wrong: min weight {min(weights)}, "
                f"{len(self.octads)} octads"
            )
        for i, b1 in enumerate(self.basis):
            for b2 in self.basis[i:]:
                if (b1 & b2).bit_count() % 2:
                    raise ConstructionError("Golay basis is not self-orthogonal")

    def contains(self, word: int) -> bool:
        """Whether adding ``word`` to the basis leaves the span's dimension."""
        return len(_basis_of([*self.basis, word])) == len(_basis_of(self.basis))

    def syndrome(self, mask: int) -> int:
        s = 0
        for i, b in enumerate(self.basis):
            if (b & mask).bit_count() & 1:
                s |= 1 << i
        return s

    def _coset_representatives(self) -> dict[int, int]:
        """Minimum-size subset per cocode class (covering radius 4).  The
        syndrome is linear, so a subset's is the XOR of its points'."""
        units = [(1 << x, self.syndrome(1 << x)) for x in range(24)]
        rep = {0: 0}
        for size in (1, 2, 3, 4):
            for sub in combinations(units, size):
                m = s = 0
                for bit, syndrome in sub:
                    m |= bit
                    s ^= syndrome
                if s not in rep:
                    rep[s] = m
        if len(rep) != 4096:
            raise ConstructionError("cocode classes not covered by weight <= 4")
        return rep

    def representative(self, syndrome_value: int) -> int:
        return self._rep[syndrome_value]


@lru_cache(maxsize=1)
def golay_code() -> GolayCode:
    payload = _load_verified("golay_generator.json")
    basis = []
    for row in payload["generator_rows"]:
        mask = 0
        for i, bit in enumerate(row):
            if bit:
                mask |= 1 << i
        basis.append(mask)
    code = GolayCode(basis)
    code.verify()
    return code


def _apply_perm_to_mask(perm: Permutation, mask: int) -> int:
    out = 0
    for i in range(24):
        if (mask >> i) & 1:
            out |= 1 << perm.images[i]
    return out


@lru_cache(maxsize=1)
def mathieu_group_24() -> PermutationGroup:
    """Bundled M24 generators, verified to preserve the Golay code and to
    generate a group of the right order.  Preserving the code puts them in
    its automorphism group M24, so |M24| is a certified bound on the order
    of the group they generate, and the chain that reaches it needs no
    verification pass."""
    code = golay_code()
    payload = _load_verified("m24_generators.json")
    gens = [Permutation(images) for images in payload["generators"]]
    for g in gens:
        for b in code.basis:
            if not code.contains(_apply_perm_to_mask(g, b)):
                raise ConstructionError("bundled generator does not preserve the code")
    group = PermutationGroup(gens, name="M24", order_bound=M24_ORDER)
    if group.order() != M24_ORDER:
        raise ConstructionError(f"M24 order check failed: {group.order()}")
    return group


def aut_m22(seed: int) -> PermutationGroup:
    """Aut(M22) as the setwise stabilizer of a duad in M24, reduced to two
    generators by a seeded random search (the full Schreier generating set
    is kept when the search fails)."""
    m24 = mathieu_group_24()
    stab = m24.stabilizer(list(DUAD), mode="setwise")
    if stab.order() != AUT_M22_ORDER:
        raise ConstructionError(f"duad stabilizer order {stab.order()}")
    rng = Random(seed)
    chain = stab.chain()
    for _ in range(200):
        a, b = chain.sample(rng), chain.sample(rng)
        # <a, b> <= stab, so stab's certified order bounds the pair's chain
        pair_chain = StabilizerChain(stab.degree, [a, b], order_bound=stab.order())
        if pair_chain.order() == AUT_M22_ORDER:
            return PermutationGroup._certified([a, b], stab.degree, AUT_M22_ORDER, pair_chain, "AutM22")
    return stab


def _cocode_quotient_action(code: GolayCode, group: PermutationGroup):
    """The action of a duad stabilizer in M24 on the 2047 nonzero vectors
    of the 11-dimensional quotient of the cocode by the duad class; returns
    the acting group and the syndrome-to-quotient encoder.

    Each generator acts linearly: it preserves the code, so the syndrome of
    a moved subset depends only on the subset's class; it fixes the duad
    class; and ``to_h`` and ``from_h`` are linear.  So the images of the 11
    basis vectors give every image, each vector's as the sum of the images
    of its lowest bit and the rest.  ``GroupAction`` checks each image row
    for bijectivity."""
    s_ab = code.syndrome((1 << DUAD[0]) | (1 << DUAD[1]))
    k = (s_ab & -s_ab).bit_length() - 1

    def to_h(s: int) -> int:
        if (s >> k) & 1:
            s ^= s_ab
        return (s & ((1 << k) - 1)) | ((s >> (k + 1)) << k)

    def from_h(h: int) -> int:
        return (h & ((1 << k) - 1)) | ((h >> k) << (k + 1))

    images = []
    for g in group.generators:
        basis = [to_h(code.syndrome(_apply_perm_to_mask(g, code.representative(from_h(1 << i)))))
                 for i in range(11)]
        image = [0] * 2048
        for h in range(1, 2048):
            low = h & -h
            image[h] = basis[low.bit_length() - 1] ^ image[h ^ low]
        images.append([x - 1 for x in image[1:]])
    # the image carries Aut(M22)'s certified order as the bound on its chains
    module_group = GroupAction(group, range(1, 2048), images).image_group()
    module_group.name = "AutM22-cocode"
    return module_group, to_h


def _find_heptad_subspace(code: GolayCode, to_h) -> tuple[int, ...]:
    """A 3-subspace of the quotient module all of whose nonzero vectors are
    duad classes: seed a line from an octad partition and close it up."""
    duad_class = {}
    for c, d in combinations(range(22), 2):
        duad_class[(c, d)] = to_h(code.syndrome((1 << c) | (1 << d)))
    by_value = {v: k for k, v in duad_class.items()}
    octad = next(
        w
        for w in code.octads
        if (w >> DUAD[0]) & 1 and (w >> DUAD[1]) & 1
    )
    pts = [i for i in range(22) if (octad >> i) & 1]
    h1 = duad_class[(pts[0], pts[1])]
    h2 = duad_class[(pts[2], pts[3])]
    h3 = duad_class[(pts[4], pts[5])]
    if h1 ^ h2 != h3:
        raise ConstructionError("octad partition does not give a module line")
    for _, h4 in sorted(duad_class.items()):
        if h4 in (h1, h2, h3):
            continue
        if not all(h ^ h4 in by_value for h in (h1, h2, h3)):
            continue
        span = sorted({h1, h2, h3, h4, h1 ^ h4, h2 ^ h4, h3 ^ h4})
        covered: set = set()
        for h in span:
            covered |= set(by_value[h])
        # a true heptad consists of seven pairwise disjoint duads; the
        # degenerate closures stay inside the seed octad's six points
        if len(covered) == 14:
            return tuple(h - 1 for h in span)
    raise ConstructionError("no heptad subspace extends the seed line")


@lru_cache(maxsize=4)
def build_m22_geometry(seed: int) -> ConstructionMetadata:
    """The rank-3 Petersen-type geometry of Aut(M22): subgroup-pattern
    geometry of the heptad subspace in the duad quotient of the cocode.
    Verified: the heptad normalizer induces L3(2) (in
    subgroup_pattern_geometry), geometry axioms, element counts
    231/1155/330 and flag-transitivity."""
    code = golay_code()
    aut = aut_m22(seed)
    module_group, to_h = _cocode_quotient_action(code, aut)
    e_points = _find_heptad_subspace(code, to_h)
    pattern = SubgroupPatternInput(
        group=module_group, dim_h=11, subspace_points=e_points
    )
    geometry = subgroup_pattern_geometry(pattern)
    action = _certified_action("M22 geometry", geometry, module_group, _apply_points)
    counts = [len(geometry.elements_of_type(t)) for t in (1, 2, 3)]
    if counts != [231, 1155, 330]:
        raise ConstructionError(f"M22 geometry counts {counts}")
    return ConstructionMetadata(
        geometry,
        module_group,
        action,
        provenance={
            "name": "m22",
            "seed": seed,
            "duad": list(DUAD),
            "subspace": list(e_points),
        },
    )
