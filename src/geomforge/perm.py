"""Permutation groups on {0..degree-1}: orbits, stabilizer chains, stabilizers,
normal closures, randomized subgroup search and induced actions.

Permutations act on the right: ``x ^ g = g.images[x]`` and ``(p * q)`` means
"apply p first, then q".  Labels are ordered once where they enter (the
geometry, graph and complex constructors); derived domains keep their
source's order, so every operation is deterministic and reproducible.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from random import Random
from typing import Callable, Iterable, Optional, Sequence

__all__ = [
    "Permutation",
    "PermutationGroup",
    "GroupAction",
    "SubgroupPredicate",
    "DomainError",
    "ClosureError",
    "CapacityError",
    "subgroup_search",
    "induced_action",
    "label_key",
    "load_group",
]

ELEMENT_ENUMERATION_BOUND = 200_000
SAMPLER_SLOTS = 8  # identity slots added to the product-replacement reservoir


class DomainError(ValueError):
    """A point or label lies outside the acting domain."""


class ClosureError(ValueError):
    """A derived domain is not closed under the group generators."""


class CapacityError(RuntimeError):
    """An operation exceeded its configured size bound."""


def label_key(label):
    """Total order on domain labels (ints, strings and nested tuples)."""
    if isinstance(label, bool):
        return (0, (int(label),))
    if isinstance(label, int):
        return (0, (label,))
    if isinstance(label, str):
        return (1, (label,))
    if isinstance(label, tuple):
        return (2, tuple(label_key(x) for x in label))
    if isinstance(label, frozenset):
        return (3, tuple(sorted(label_key(x) for x in label)))
    raise TypeError(f"unsupported domain label type: {type(label)!r}")


@lru_cache(maxsize=None)
def _identity_images(degree: int) -> tuple[int, ...]:
    return tuple(range(degree))


def _closure(seeds: Iterable, step: Callable[[object], Iterable]) -> list:
    """The seeds without repeats, then every item reachable from them by
    ``step`` in breadth-first discovery order: the orbit algorithm of
    Seress, *Permutation Group Algorithms* (2003), section 2.1, for any
    action given by generator images."""
    out = list(dict.fromkeys(seeds))
    seen = set(out)
    for x in out:  # grows while it is scanned
        for y in step(x):
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out


def _image_step(images: Sequence[Sequence[int]]) -> Callable[[int], list[int]]:
    """A ``_closure`` step: the images of a point under each image tuple."""
    return lambda p: [img[p] for img in images]


def _tuple_step(images: Sequence[Sequence[int]]) -> Callable[[tuple], list[tuple]]:
    """A ``_closure`` step: the images of a tuple of points under each image tuple."""
    return lambda t: [tuple([img[p] for p in t]) for img in images]


def _orbit_partition(size: int, images: Sequence[Sequence[int]]) -> list[list[int]]:
    """The orbits of the image tuples on 0..size-1, ordered by least point."""
    step = _image_step(images)
    seen: set[int] = set()
    out = []
    for p in range(size):
        if p not in seen:
            orbit = _closure([p], step)
            seen.update(orbit)
            out.append(orbit)
    return out


def _as_point(x) -> int:
    """``x`` as an int; bools, floats and other non-integers raise ValueError."""
    if isinstance(x, bool):
        raise ValueError(f"{x!r} is a bool, not an integer")
    try:
        return operator.index(x)
    except TypeError:
        raise ValueError(f"{x!r} is not an integer") from None


class Permutation:
    """An immutable bijection of {0..degree-1} stored as an image tuple.

    The public constructor checks its input; products, inverses and
    identities are bijections by construction and skip that check."""

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        images = tuple(map(_as_point, images))
        if set(images) != set(range(len(images))):
            raise ValueError("images sequence is not a bijection of 0..n-1")
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple[int, ...]) -> "Permutation":
        """Wrap an image tuple already known to be a bijection."""
        perm = object.__new__(cls)
        perm.images = images
        return perm

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._trusted(_identity_images(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Sequence[int]]) -> "Permutation":
        images = list(range(degree))
        for cycle in cycles:
            cycle = [_as_point(a) for a in cycle]
            for a in cycle:
                if not 0 <= a < degree:
                    raise ValueError(f"cycle point {a} outside 0..{degree - 1}")
            for a, b in zip(cycle, cycle[1:]):
                images[a] = b
            if cycle:
                images[cycle[-1]] = cycle[0]
        return cls(images)

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # apply self first, then other
        oth = other.images
        if len(oth) != len(self.images):
            raise ValueError("product of permutations of different degrees")
        # itemgetter returns a scalar for one index and raises for none; the
        # only permutation of degree 0 or 1 is the identity
        if len(oth) <= 1:
            return self
        return Permutation._trusted(operator.itemgetter(*self.images)(oth))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._trusted(tuple(inv))

    def is_identity(self) -> bool:
        return self.images == _identity_images(len(self.images))

    def order(self) -> int:
        seen = [False] * self.degree
        result = 1
        for i in range(self.degree):
            if seen[i]:
                continue
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = self.images[j]
                length += 1
            result = math.lcm(result, length)
        return result

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its least point."""
        seen = [False] * self.degree
        out = []
        for i in range(self.degree):
            if seen[i] or self.images[i] == i:
                seen[i] = True
                continue
            cyc = [i]
            j = self.images[i]
            seen[i] = True
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Permutation(id, degree={self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Permutation({body}, degree={self.degree})"


# ---------------------------------------------------------------------------
# stabilizer chains


class _ChainLevel:
    """One level of a stabilizer chain: a base point, its inverse orbit
    transversal and the strong generators that fix all earlier base points.

    ``inverses[q]`` is the inverse of the transversal element u_q that sends
    the base point to q; only the inverse is kept, because sifting divides
    by u_q and holding both would double the chain's memory."""

    __slots__ = ("base", "inverses", "gens")

    def __init__(self, base: int, degree: int):
        self.base = base
        self.inverses: dict[int, Permutation] = {base: Permutation.identity(degree)}
        self.gens: list[Permutation] = []


class StabilizerChain:
    """Randomized Schreier-Sims chain with a fixed random seed, whose order is
    certified by a final Schreier-generator verification pass or by reaching
    ``order_bound``, a certified upper bound on the group order: a partial
    chain's order never exceeds the group order, so one that reaches the
    bound is complete (Seress, *Permutation Group Algorithms*, 2003, section 4.5).

    ``base_prefix`` forces the chain base to start with the given points,
    which makes pointwise stabilizers directly readable off the chain
    (:meth:`stabilizer`).  :meth:`extend` grows a verified chain by one
    generator in place, so a group built one generator at a time needs one
    chain; ``generators`` holds the nonidentity generators given, then each
    one that ``extend`` added.  Only this module reads the level layout.
    """

    def __init__(
        self,
        degree: int,
        generators: Sequence[Permutation],
        base_prefix: Sequence[int] = (),
        order_limit: Optional[int] = None,
        order_bound: Optional[int] = None,
    ):
        self.degree = degree
        self.generators = [g for g in generators if not g.is_identity()]
        self.levels: list[_ChainLevel] = []
        self._rng = Random(1)
        self._base_prefix = list(base_prefix)
        self._order_limit = order_limit
        self._order_bound = order_bound
        self.aborted = False
        self._build()

    # -- construction ------------------------------------------------------

    def _build(self) -> None:
        for g in self.generators:
            self._add_generator(g, 0)
            if self._done():
                return
        if not self.generators:
            return
        sampler = _ProductReplacer(self.generators, self._rng)
        quiet = 0
        while quiet < 12:
            g = sampler.stir()
            if self._add_generator(g, 0):
                quiet = 0
                if self._done():
                    return
            else:
                quiet += 1
        while not self._verify():
            if self._done():
                return

    def _done(self) -> bool:
        """Whether the build can stop: the order passed ``order_limit`` (the
        build is aborted), or it reached ``order_bound``, so the chain is
        complete and further samples and ``_verify`` would add nothing."""
        order = self.order()
        if self._order_limit is not None and order > self._order_limit:
            self.aborted = True
            return True
        return order == self._order_bound

    def _sift(self, g: Permutation, start: int = 0) -> tuple[Permutation, int]:
        """Reduce g through the chain; returns (residue, failing level)."""
        for i in range(start, len(self.levels)):
            level = self.levels[i]
            q = g.images[level.base]
            if q == level.base:
                continue  # u_q is the identity
            inv = level.inverses.get(q)
            if inv is None:
                return g, i
            g = g * inv
        return g, len(self.levels)

    def _add_generator(self, g: Permutation, start: int) -> bool:
        """Sift g from level ``start``; a nonidentity residue becomes a
        strong generator at the level where it failed."""
        g, i = self._sift(g, start)
        if g.is_identity():
            return False
        if i == len(self.levels):
            self.levels.append(_ChainLevel(self._next_base_point(g), self.degree))
        self.levels[i].gens.append(g)
        # the new generator lives in every group down to level 0, so all
        # orbits up to level i may grow
        for k in range(i, -1, -1):
            self._extend_orbit(k)
        return True

    def _next_base_point(self, g: Permutation) -> int:
        for b in self._base_prefix[len(self.levels):]:
            return b
        for x in range(self.degree):
            if g.images[x] != x:
                return x
        raise AssertionError("identity passed to _next_base_point")

    def _level_gens(self, i: int) -> list[Permutation]:
        gens: list[Permutation] = []
        for level in self.levels[i:]:
            gens.extend(level.gens)
        return gens

    def _extend_orbit(self, i: int) -> None:
        # u_q = u_p * g, so u_q^-1 = g^-1 * u_p^-1.  A generator is inverted
        # only when it reaches a new point: many calls add no point at all.
        inverses = self.levels[i].inverses
        gens = self._level_gens(i)
        gen_inverses: dict[int, Permutation] = {}
        queue = sorted(inverses)
        while queue:
            nxt = []
            for p in queue:
                for k, g in enumerate(gens):
                    q = g.images[p]
                    if q not in inverses:
                        if k not in gen_inverses:
                            gen_inverses[k] = g.inverse()
                        inverses[q] = gen_inverses[k] * inverses[p]
                        nxt.append(q)
            queue = nxt

    def _verify(self) -> bool:
        """Schreier's lemma check: every Schreier generator of every level
        must sift to the identity below that level.  Any witness found is
        added to the chain and the check restarts."""
        for i, level in enumerate(self.levels):
            gens = self._level_gens(i)
            inverses = level.inverses
            for p in sorted(inverses):
                rep = inverses[p].inverse()
                for g in gens:
                    if self._add_generator(rep * g * inverses[g.images[p]], i + 1):
                        return False
        return True

    def extend(self, g: Permutation) -> bool:
        """Add g to the group in place (the incremental Schreier-Sims of
        Seress, *Permutation Group Algorithms*, 2003, section 4.2): False
        when the chain already holds g; otherwise its residue becomes a
        strong generator and ``_verify`` runs until it passes, so the chain
        stays certified."""
        if not self._add_generator(g, 0):
            return False
        self.generators.append(g)
        while not self._verify():
            pass
        return True

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        result = 1
        for level in self.levels:
            result *= len(level.inverses)
        return result

    def contains(self, g: Permutation) -> bool:
        residue, _ = self._sift(g)
        return residue.is_identity()

    def stabilizer(self, k: int) -> "PermutationGroup":
        """The subgroup at level k, which fixes the first k base points, with
        its order read off this certified chain.  Level k always carries
        base-prefix point k (new levels take prefix points in order), so for
        k up to the prefix length this is the pointwise stabilizer of the
        first k prefix points; a shorter chain means it is trivial."""
        levels = self.levels[k:]
        return PermutationGroup._certified(
            [g for level in levels for g in level.gens],
            self.degree,
            math.prod(len(level.inverses) for level in levels),
        )

    def representative(self, q: int) -> Permutation:
        """An element sending the first base point to q."""
        return self.levels[0].inverses[q].inverse()

    def sample(self, rng: Random) -> Permutation:
        """Uniform random element (valid because the chain is complete).

        Sifting factors every element as (deep part) * (level-0 rep), so the
        transversal representatives compose deepest level first."""
        g = Permutation.identity(self.degree)
        for level in reversed(self.levels):
            p = rng.choice(sorted(level.inverses))
            g = g * level.inverses[p].inverse()
        return g


class _ProductReplacer:
    """Rattle-style pseudo-random element generator over a generating set."""

    def __init__(self, gens: Sequence[Permutation], rng: Random):
        degree = gens[0].degree
        self.rng = rng
        self.reservoir = list(gens) + [Permutation.identity(degree)] * SAMPLER_SLOTS
        self.accumulator = Permutation.identity(degree)
        for _ in range(max(40, 5 * len(gens))):
            self.stir()

    def stir(self) -> Permutation:
        """One product-replacement step; returns the next sample."""
        rng = self.rng
        i = rng.randrange(len(self.reservoir))
        j = rng.randrange(len(self.reservoir))
        p = self.reservoir[i]
        if rng.randrange(2):
            p = p.inverse()
        self.reservoir[j] = self.reservoir[j] * p
        self.accumulator = self.accumulator * self.reservoir[j]
        return self.accumulator


# ---------------------------------------------------------------------------
# permutation groups


class PermutationGroup:
    """A group given by permutation generators, with a cached certified
    stabilizer chain.  Its chains are bounded by the order once certified,
    else by the acting group's order for an action image; ``expected_order``
    is checked against a chain, never trusted.  Immutable after construction."""

    def __init__(
        self,
        generators: Sequence[Permutation],
        degree: Optional[int] = None,
        name: Optional[str] = None,
        expected_order: Optional[int] = None,
    ):
        generators = list(generators)
        if degree is None:
            if not generators:
                raise ValueError("degree required for a generator-free group")
            degree = generators[0].degree
        for g in generators:
            if g.degree != degree:
                raise ValueError("generators of mixed degree")
        if not generators:
            generators = [Permutation.identity(degree)]
        self.degree = degree
        self.generators = tuple(generators)
        self.name = name
        self._chain: Optional[StabilizerChain] = None
        self._verified_order: Optional[int] = None
        self._order_bound: Optional[int] = None
        if expected_order is not None and self.order() != expected_order:
            raise ValueError(
                f"group order {self.order()} does not match expected {expected_order}"
            )

    @classmethod
    def _certified(
        cls, generators: Sequence[Permutation], degree: int, order: int
    ) -> "PermutationGroup":
        """The group on ``generators`` whose order a chain has already
        certified; its own chains are built only when asked for."""
        group = cls(generators, degree=degree)
        group._verified_order = order
        return group

    @classmethod
    def trivial(cls, degree: int) -> "PermutationGroup":
        return cls([Permutation.identity(degree)], degree=degree, name="1")

    @classmethod
    def symmetric(cls, n: int) -> "PermutationGroup":
        if n <= 1:
            return cls.trivial(max(n, 1))
        cycle = Permutation.from_cycles(n, [tuple(range(n))])
        swap = Permutation.from_cycles(n, [(0, 1)])
        return cls([cycle, swap], name=f"S{n}")

    @classmethod
    def alternating(cls, n: int) -> "PermutationGroup":
        if n <= 2:
            return cls.trivial(max(n, 1))
        three = Permutation.from_cycles(n, [(0, 1, 2)])
        if n % 2:
            long = Permutation.from_cycles(n, [tuple(range(n))])
        else:
            long = Permutation.from_cycles(n, [tuple(range(1, n))])
        return cls([three, long], name=f"A{n}")

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = self.base_chain(())
        return self._chain

    def base_chain(self, points: Sequence[int]) -> StabilizerChain:
        """A new certified chain whose base starts with ``points``."""
        bound = self._verified_order or self._order_bound
        return StabilizerChain(self.degree, self.generators, points, order_bound=bound)

    def order(self) -> int:
        if self._verified_order is None:
            self._verified_order = self.chain().order()
        return self._verified_order

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        return self.chain().contains(g)

    def is_subgroup_of(self, other: "PermutationGroup") -> bool:
        return all(other.contains(g) for g in self.generators)

    def elements(self, bound: int = ELEMENT_ENUMERATION_BOUND) -> list[Permutation]:
        """All elements by breadth-first closure; capacity-limited."""
        if self.order() > bound:
            raise CapacityError(
                f"group of order {self.order()} exceeds enumeration bound {bound}"
            )
        gens = self.generators
        found = _closure([Permutation.identity(self.degree)], lambda p: [p * g for g in gens])
        return sorted(found, key=lambda p: p.images)

    def point_orbit(self, point: int) -> list[int]:
        if not 0 <= point < self.degree:
            raise DomainError(f"point {point} outside degree {self.degree}")
        step = _image_step([g.images for g in self.generators])
        return sorted(_closure([point], step))

    def stabilizer(self, points: Sequence[int], mode: str = "pointwise") -> "PermutationGroup":
        """Setwise or pointwise stabilizer of a point sequence."""
        for p in points:
            if not 0 <= p < self.degree:
                raise DomainError(f"point {p} outside degree {self.degree}")
        if not points:
            return self
        if mode == "pointwise":
            stab = self.base_chain(points).stabilizer(len(points))
            stab.name = None if self.name is None else f"{self.name}_{list(points)}"
            return stab
        if mode == "setwise":
            return self._setwise_stabilizer(sorted(set(points)))
        raise ValueError(f"unknown stabilizer mode: {mode!r}")

    def _setwise_stabilizer(self, points: list[int]) -> "PermutationGroup":
        # Schreier generators of the induced action on the orbit of the set,
        # kept when they extend one growing stabilizer chain.  The target
        # order is known exactly by orbit counting.
        start = tuple(points)
        reps: dict[tuple[int, ...], Permutation] = {start: Permutation.identity(self.degree)}
        queue = [start]
        while queue:
            nxt = []
            for s in queue:
                rep = reps[s]
                for g in self.generators:
                    t = tuple(sorted(g.images[x] for x in s))
                    if t not in reps:
                        reps[t] = rep * g
                        nxt.append(t)
            queue = nxt
        target = self.order() // len(reps)
        chain = StabilizerChain(self.degree, [])
        for s in sorted(reps):
            rep = reps[s]
            for g in self.generators:
                t = tuple(sorted(g.images[x] for x in s))
                if chain.extend(rep * g * reps[t].inverse()) and chain.order() == target:
                    return PermutationGroup._certified(chain.generators, self.degree, target)
        return PermutationGroup._certified(chain.generators, self.degree, chain.order())

    def normal_closure(self, seeds: Sequence[Permutation]) -> "PermutationGroup":
        """Smallest normal subgroup containing the seed permutations."""
        chain = StabilizerChain(self.degree, seeds)
        queue = list(chain.generators)
        while queue:
            h = queue.pop()
            for g in self.generators:
                conj = g.inverse() * h * g
                if chain.extend(conj):
                    queue.append(conj)
        return PermutationGroup._certified(chain.generators, self.degree, chain.order())

    def is_normal_in(self, ambient: "PermutationGroup") -> bool:
        for g in ambient.generators:
            ginv = g.inverse()
            for h in self.generators:
                if not self.contains(ginv * h * g):
                    return False
        return True

    def is_transitive(self, domain_size: Optional[int] = None) -> bool:
        n = self.degree if domain_size is None else domain_size
        return len(self.point_orbit(0)) == n if n > 0 else True

    def __repr__(self) -> str:
        label = self.name or f"{len(self.generators)} gens"
        return f"PermutationGroup({label}, degree={self.degree})"


# ---------------------------------------------------------------------------
# group actions on labelled domains


class GroupAction:
    """Action of a PermutationGroup on a finite labelled domain, stored as
    one domain permutation per generator.  The domain keeps the order it is
    given, and orbits list their labels by position in it, so orbit output
    is reproducible."""

    def __init__(self, group: PermutationGroup, domain: Sequence, images: Sequence[Sequence[int]]):
        self.group = group
        self.domain = tuple(domain)
        self.index = {label: i for i, label in enumerate(self.domain)}
        if len(self.index) != len(self.domain):
            raise ValueError("duplicate labels in action domain")
        self.images = tuple(tuple(map(_as_point, img)) for img in images)
        if len(self.images) != len(group.generators):
            raise ValueError("one domain image required per group generator")
        n = len(self.domain)
        for img in self.images:
            if sorted(img) != list(range(n)):
                raise ClosureError("generator image is not a bijection of the domain")

    def apply(self, gen_index: int, label):
        return self.domain[self.images[gen_index][self.index[label]]]

    def first_generator_moving(self, pairs: Iterable[tuple]) -> Optional[int]:
        """Index of the first generator that sends an unordered pair of
        labels from ``pairs`` to a pair outside them, or None when every
        generator preserves that set of pairs."""
        # the pair {i, j} has the codes i*n + j and j*n + i, and the set
        # holds both; each image is a bijection of the domain, so it keeps
        # the set of pairs exactly when every pair's image code is in it
        index = self.index
        n = len(self.domain)
        points = [(index[a], index[b]) for a, b in pairs]
        codes = {i * n + j for i, j in points} | {j * n + i for i, j in points}
        for gi, img in enumerate(self.images):
            if not codes.issuperset([img[i] * n + img[j] for i, j in points]):
                return gi
        return None

    def orbit(self, seed) -> list:
        if seed not in self.index:
            raise DomainError(f"seed {seed!r} not in action domain")
        found = _closure([self.index[seed]], _image_step(self.images))
        return [self.domain[i] for i in sorted(found)]

    def orbits(self) -> list[list]:
        """Every orbit as a label list in domain order, ordered by its first
        label."""
        return [
            [self.domain[i] for i in sorted(orb)]
            for orb in _orbit_partition(len(self.domain), self.images)
        ]

    def image_group(self) -> PermutationGroup:
        """The permutation group induced on the domain (the action image),
        whose chains the acting group's certified order bounds."""
        # __init__ checked that every image is a bijection of the domain
        gens = [Permutation._trusted(img) for img in self.images]
        image = PermutationGroup(gens, degree=len(self.domain))
        image._order_bound = self.group.order()
        return image

    def restricted(self, labels: Sequence) -> "GroupAction":
        """Action induced on an invariant subset of the domain, whose labels
        keep the given order (repeats dropped)."""
        labels = tuple(dict.fromkeys(labels))
        sub_index = {label: i for i, label in enumerate(labels)}
        imgs = []
        for img in self.images:
            row = []
            for label in labels:
                target = self.domain[img[self.index[label]]]
                if target not in sub_index:
                    raise ClosureError("subset is not invariant under the action")
                row.append(sub_index[target])
            imgs.append(row)
        return GroupAction(self.group, labels, imgs)


def induced_action(group: PermutationGroup, domain: Iterable, apply: Callable) -> GroupAction:
    """Lift the point action to a derived domain.

    ``apply(perm, label) -> label`` must send domain labels to domain labels
    for every generator; otherwise a ClosureError is raised.  The domain
    keeps the given order, repeats dropped at their first occurrence.
    """
    labels = tuple(dict.fromkeys(domain))
    index = {label: i for i, label in enumerate(labels)}
    images = []
    for g in group.generators:
        row = []
        for label in labels:
            target = apply(g, label)
            j = index.get(target)
            if j is None:
                raise ClosureError(
                    f"domain not closed: {label!r} maps outside under a generator"
                )
            row.append(j)
        images.append(row)
    return GroupAction(group, labels, images)


@dataclass
class SubgroupPredicate:
    """Search target for subgroup_search: an exact order, which must divide
    the ambient order, and an optional subgroup that must be contained."""

    order: int
    contains: Optional[PermutationGroup] = None

    def admissible_element_orders(self) -> set[int]:
        return {d for d in range(1, self.order + 1) if self.order % d == 0}


def subgroup_search(
    group: PermutationGroup,
    predicate: SubgroupPredicate,
    seed: int,
    max_trials: int = 20000,
) -> Optional[PermutationGroup]:
    """Randomized search for a subgroup matching the predicate.

    Strategy: draw pairs of uniform random elements, prune by element order
    and by orbit lengths (by orbit-stabilizer every orbit length of a group
    divides its order), and test the order of the subgroup they generate
    together with the required contained subgroup.  Deterministic for a
    fixed seed; returns None when the trial budget runs out.
    """
    ambient_order = group.order()
    if ambient_order % predicate.order != 0:
        raise ValueError("target order does not divide the ambient group order")
    if predicate.order == ambient_order:
        return group
    required = list(predicate.contains.generators) if predicate.contains else []
    allowed = predicate.admissible_element_orders()
    rng = Random(seed)
    chain = group.chain()
    for _ in range(max_trials):
        a = chain.sample(rng)
        if a.order() not in allowed:
            continue
        b = chain.sample(rng)
        if b.order() not in allowed:
            continue
        gens = required + [a, b]
        orbits = _orbit_partition(group.degree, [g.images for g in gens])
        if any(predicate.order % len(orb) for orb in orbits):
            continue
        sub_chain = StabilizerChain(group.degree, gens, order_limit=predicate.order)
        if sub_chain.aborted or sub_chain.order() != predicate.order:
            continue
        # the order limit only stops a build, so this is the chain the
        # group would build for itself
        candidate = PermutationGroup(gens, degree=group.degree)
        candidate._chain = sub_chain
        return candidate
    return None



# ---------------------------------------------------------------------------
# group file I/O


def load_group(path) -> PermutationGroup:
    """Read the JSON group format; fails when expected_order mismatches."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return group_from_json(payload)


def group_from_json(payload: dict) -> PermutationGroup:
    """The group of a JSON payload; a payload of the wrong shape raises
    ValueError naming what is wrong."""
    if not isinstance(payload, dict):
        raise ValueError(f"group payload must be an object, not {type(payload).__name__}")
    for key in ("degree", "generators"):
        if key not in payload:
            raise ValueError(f"group payload has no {key!r}")
    degree = _as_point(payload["degree"])
    if degree < 0:
        raise ValueError(f"negative degree {degree}")
    generators = payload["generators"]
    if not isinstance(generators, list) or not all(isinstance(images, list) for images in generators):
        raise ValueError("generators must be a list of image lists")
    gens = [Permutation(images) for images in generators]
    return PermutationGroup(
        gens,
        degree=degree,
        name=payload.get("name"),
        expected_order=payload.get("expected_order"),
    )


def group_to_json(group: PermutationGroup) -> dict:
    payload = {
        "degree": group.degree,
        "generators": [list(g.images) for g in group.generators],
    }
    if group.name is not None:
        payload["name"] = group.name
    payload["expected_order"] = group.order()
    return payload

