"""Independent naive implementations used as oracles by the test suite.
These deliberately avoid the library's own code paths, except the reference
algorithms moved here from the library, whose docstrings say so."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import prod

import numpy as np

from geomforge.perm import (
    Permutation,
    PermutationGroup,
    StabilizerChain,
    induced_action,
    label_key,
)


def naive_rank(rows, p):
    """Schoolbook Gaussian elimination over GF(p) on lists of ints."""
    rows = [[x % p for x in row] for row in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
        rank += 1
        if r == len(rows):
            break
    return rank


def rref2_by_column(work, rows, cols):
    """Gauss-Jordan elimination over GF(2), one pivot column at a time, in
    place on a bit-packed uint64 payload (bit j of word w is column 64w + j).
    Returns the pivot columns.  Reference for the Four-Russians kernel
    ``geomforge.gf2._rref2_inplace``: reduced echelon form is unique, so both
    must leave the same payload."""
    one = np.uint64(1)
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        w, mask = c >> 6, one << np.uint64(c & 63)
        nz = np.nonzero(work[r:, w] & mask)[0]
        if nz.size == 0:
            continue
        p = r + int(nz[0])
        if p != r:
            work[[r, p]] = work[[p, r]]
        hits = np.nonzero(work[:, w] & mask)[0]
        hits = hits[hits != r]
        if hits.size:
            work[hits] ^= work[r]
        pivots.append(c)
        r += 1
    return pivots


def accumulate_entries(prime, rows, cols, entries):
    """Dense rows of the (row, col, value) triples added up per cell mod
    prime, through a dict; None when a coordinate lies outside."""
    cells = {}
    for r, c, v in entries:
        if not (0 <= r < rows and 0 <= c < cols):
            return None
        cells[r, c] = cells.get((r, c), 0) + v
    return [[cells.get((r, c), 0) % prime for c in range(cols)] for r in range(rows)]


def coset_representatives_by_syndrome(code):
    """The Golay cocode representatives of ``m22.GolayCode`` by the loop the
    library used before it read syndromes off single points: the first
    subset of sizes 1..4, in ``combinations`` order, per syndrome, each
    subset's syndrome computed from its mask."""
    rep = {0: 0}
    for size in (1, 2, 3, 4):
        for sub in combinations(range(24), size):
            m = 0
            for x in sub:
                m |= 1 << x
            s = code.syndrome(m)
            if s not in rep:
                rep[s] = m
    return rep


def exhaustive_orbit(seed, generator_maps):
    """Closure of a point under a list of callables."""
    seen = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for x in frontier:
            for f in generator_maps:
                y = f(x)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def naive_group_elements(generators):
    """All elements of the group generated by image-tuples, by closure."""
    degree = len(generators[0])
    identity = tuple(range(degree))

    def mul(p, q):
        return tuple(q[i] for i in p)

    seen = {identity}
    frontier = [identity]
    gens = [tuple(g) for g in generators]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = mul(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def naive_normal_subgroups(generators):
    """All normal subgroups of a small group, by enumerating closures of
    1- and 2-element subsets and testing conjugation stability."""
    elements = sorted(naive_group_elements(generators))
    degree = len(elements[0])
    identity = tuple(range(degree))

    def mul(p, q):
        return tuple(q[i] for i in p)

    def inv(p):
        out = [0] * len(p)
        for i, j in enumerate(p):
            out[j] = i
        return tuple(out)

    def closure(seed):
        seen = {identity} | set(seed)
        frontier = list(seen)
        while frontier:
            nxt = []
            for p in frontier:
                for g in seed:
                    q = mul(p, g)
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        return frozenset(seen)

    subgroups = {closure([x]) for x in elements}
    subgroups |= {closure([x, y]) for x in elements for y in elements}
    normals = []
    for sub in subgroups:
        if all(mul(mul(inv(g), h), g) in sub for g in elements for h in sub):
            normals.append(sub)
    return normals


def naive_minimal_normal_orders(generators):
    normals = [n for n in naive_normal_subgroups(generators) if len(n) > 1]
    minimal = [
        n
        for n in normals
        if not any(m < n for m in normals if len(m) > 1)
    ]
    return sorted(len(n) for n in minimal)


def minimal_normal_by_enumeration(generators):
    """Minimal normal subgroups of the group generated by image tuples, as
    PermutationGroups sorted by order: the normal closures of the
    prime-order cyclic subgroups, one per conjugacy class, minimal under
    inclusion.  Lists every element of the group; only its orders and
    normal closures come from the library.  Reference for the
    regular-normal-subgroup verdict ``geomforge.local._has_regular_normal_subgroup``,
    which lists neither the group nor its cyclic subgroups."""
    group = PermutationGroup([Permutation(g) for g in generators])
    if group.order() == 1:
        return []

    def cyclic_key(x, p):
        return tuple(sorted((x ** k).images for k in range(1, p)))

    cyclic_seeds = {}
    for g in group.elements(bound=10**6):
        if g.is_identity():
            continue
        o = g.order()
        p = next(d for d in range(2, o + 1) if o % d == 0)
        x = g ** (o // p)
        cyclic_seeds.setdefault(cyclic_key(x, p), x)
    conjugators = [(g.inverse(), g) for g in group.generators]
    marked = set()
    closures = []
    for key, x in cyclic_seeds.items():
        if key in marked:
            continue
        # conjugate seeds share x's normal closure: mark the whole class
        marked.add(key)
        p = x.order()
        queue = [x]
        while queue:
            h = queue.pop()
            for ginv, g in conjugators:
                conj = ginv * h * g
                conj_key = cyclic_key(conj, p)
                if conj_key not in marked:
                    marked.add(conj_key)
                    queue.append(conj)
        closure = group.normal_closure([x])
        if not any(closure.equals(other) for other in closures):
            closures.append(closure)
    minimal = [
        n for n in closures
        if not any(m.order() < n.order() and m.is_subgroup_of(n) for m in closures)
    ]
    return sorted(minimal, key=lambda n: n.order())


def first_generator_moving_by_scan(action, pairs):
    """Index of the first generator of a GroupAction whose image of the set
    of unordered label pairs is not that set, or None.  Each generator maps
    every pair label by label through ``GroupAction.apply``, and the image
    set is compared whole; no pair codes and no bijection argument, as in
    ``geomforge.perm.GroupAction.first_generator_moving``."""
    edges = {frozenset(pair) for pair in pairs}
    for gi in range(len(action.images)):
        if {frozenset(action.apply(gi, x) for x in edge) for edge in edges} != edges:
            return gi
    return None


def setwise_stabilizer_by_rebuild(group, points):
    """Generators of the setwise stabilizer of a point set: the Schreier
    generators of the action on the set's orbit, each kept when the chain
    rebuilt from those kept before does not contain it, until the order
    reaches |G| / |orbit|.  The loop that
    ``geomforge.perm.PermutationGroup._setwise_stabilizer`` ran before it
    extended one chain, kept as its reference."""
    start = tuple(sorted(set(points)))
    reps = {start: Permutation.identity(group.degree)}
    queue = [start]
    while queue:
        nxt = []
        for s in queue:
            for g in group.generators:
                t = tuple(sorted(g.images[x] for x in s))
                if t not in reps:
                    reps[t] = reps[s] * g
                    nxt.append(t)
        queue = nxt
    target = group.order() // len(reps)
    kept = []
    chain = None
    for s in sorted(reps):
        for g in group.generators:
            t = tuple(sorted(g.images[x] for x in s))
            schreier = reps[s] * g * reps[t].inverse()
            if schreier.is_identity() or (chain is not None and chain.contains(schreier)):
                continue
            kept.append(schreier)
            chain = StabilizerChain(group.degree, kept)
            if chain.order() == target:
                return kept
    return kept


def normalizer_induces_gl_by_setwise(group, points):
    """Whether the setwise stabilizer of the point set E induces a group of
    order |GL(E)| on E, where E has 2^d - 1 points: the setwise stabilizer
    is built, then its action on E and the image of that action.  The check
    that ``geomforge.build.normalizer_induces_full_linear_group`` ran before
    it counted orbits, kept as its reference."""
    points = sorted(set(points))
    normalizer = group.stabilizer(points, mode="setwise")
    induced = induced_action(normalizer, points, lambda g, p: g.images[p])
    dim = (len(points) + 1).bit_length() - 1
    return induced.image_group().order() == prod((1 << dim) - (1 << i) for i in range(dim))


def amalgam_orders_by_stabilizers(g, action, flag):
    """The parabolic, pairwise intersection, Borel and image orders of a
    maximal flag, each read off its own pointwise-stabilizer chain in the
    action image.  The construction that ``geomforge.geom.amalgam_report``
    ran before it counted orbits, kept as its reference."""
    image = action.image_group()
    by_type = {g.type_of[e]: action.index[e] for e in flag}
    types = sorted(by_type)
    parabolic = {t: image.stabilizer([by_type[t]]).order() for t in types}
    intersections = {
        (i, j): image.stabilizer([by_type[i], by_type[j]]).order()
        for i, j in combinations(types, 2)
    }
    borel = image.stabilizer([by_type[t] for t in types]).order()
    return parabolic, intersections, borel, image.order()


def normal_closure_by_rebuild(group, seeds):
    """Generators of the normal closure of the seeds: the nonidentity seeds,
    then every conjugate by a group generator that the chain rebuilt from
    those kept before does not contain.  The loop that
    ``geomforge.perm.PermutationGroup.normal_closure`` ran before it
    extended one chain, kept as its reference."""
    kept = [g for g in seeds if not g.is_identity()]
    chain = StabilizerChain(group.degree, kept)
    queue = list(kept)
    while queue:
        h = queue.pop()
        for g in group.generators:
            conj = g.inverse() * h * g
            if not chain.contains(conj):
                kept.append(conj)
                chain = StabilizerChain(group.degree, kept)
                queue.append(conj)
    return kept


def bfs_girth(adjacency):
    """Shortest cycle length by breadth-first search from every vertex over
    a dict vertex -> iterable of neighbors."""
    best = float("inf")
    vertices = list(adjacency)
    for root in vertices:
        dist = {root: 0}
        parent = {root: None}
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adjacency[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        parent[w] = v
                        nxt.append(w)
                    elif parent[v] != w and dist[w] >= dist[v]:
                        best = min(best, dist[v] + dist[w] + 1)
            frontier = nxt
    return best


def subspace_count(n, k):
    """Number of k-dimensional subspaces of GF(2)^n (Gaussian binomial)."""
    num = Fraction(1)
    for i in range(k):
        num *= Fraction(2**n - 2**i, 2**k - 2**i)
    assert num.denominator == 1
    return int(num)


def naive_span(vectors):
    """Every vector (zero included) of the GF(2)-span of the bit masks."""
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return out


def naive_subspaces(vectors, k):
    """Every k-subspace of the span of the masks, as frozensets of nonzero
    vectors: close each k-subset of the span and keep those of 2^k - 1."""
    nonzero = sorted(naive_span(vectors) - {0})
    out = set()
    for subset in combinations(nonzero, k):
        closed = naive_span(subset) - {0}
        if len(closed) == 2**k - 1:
            out.add(frozenset(closed))
    return out


def symplectic_form(x, y, n):
    """The standard symplectic form on GF(2)^2n, bit by bit: bits 2i and
    2i + 1 of each vector form a hyperbolic pair."""
    return sum(
        (x >> 2 * i & 1) * (y >> 2 * i + 1 & 1) + (x >> 2 * i + 1 & 1) * (y >> 2 * i & 1)
        for i in range(n)
    ) & 1


def symplectic_transvections_by_form(n):
    """The transvections x -> x + <x,v>v of GF(2)^2n, v in vector order, as
    permutations of the nonzero vectors built through the checking
    constructor with the form taken point by point.  Reference for
    ``geomforge.build.symplectic_transvections``."""
    size = 1 << (2 * n)
    return [
        Permutation([(x ^ v if symplectic_form(x, v, n) else x) - 1 for x in range(1, size)])
        for v in range(1, size)
    ]


def isotropic_subspaces_by_growth(n):
    """The nonzero totally isotropic subspaces of GF(2)^2n, one sorted list
    of sorted vector tuples per dimension 1..n, grown dimension by dimension:
    every (d+1)-subspace is reached from each d-subspace in it and each
    vector outside it, and duplicates collapse in a set.  The form pairs
    bits 2i and 2i + 1.  This is the growth loop that
    ``geomforge.build.symplectic_polar_space`` ran before echelon growth,
    kept as the reference for ``geomforge.build._isotropic_subspaces``."""
    size = 1 << (2 * n)
    by_dim = [[(v,) for v in range(1, size)]]
    for _ in range(n - 1):
        grown = set()
        for sub in by_dim[-1]:
            for v in range(1, size):
                if v not in sub and all(symplectic_form(v, u, n) == 0 for u in sub):
                    grown.add(tuple(sorted(naive_span([*sub, v]) - {0})))
        by_dim.append(sorted(grown))
    return by_dim


def common_neighbor_edges(g, point_type, line_type):
    """Pairs of type-``point_type`` elements of a geometry incident to a
    common type-``line_type`` element, each pair and the list ordered by
    ``label_key``: the edge list ``collinearity_graph`` and
    ``derived_graph`` must give."""
    points = [e for e in g.elements if g.type_of[e] == point_type]
    edges = set()
    for line in g.elements:
        if g.type_of[line] == line_type:
            on_line = sorted((p for p in points if g.incident(p, line)), key=label_key)
            edges.update(combinations(on_line, 2))
    return sorted(edges, key=lambda e: (label_key(e[0]), label_key(e[1])))


def naive_rank2_class(points, lines, incidences):
    """'digon', 'projective-plane-2', 'gq-2-2' or 'unknown' for a rank-2
    incidence structure given as point and line lists and (point, line)
    pairs, decided from the axioms by brute force over all pairs."""
    inc = set(incidences)
    if not points or not lines:
        return "unknown"
    if all((p, l) in inc for p in points for l in lines):
        return "digon"
    on = {l: {p for p in points if (p, l) in inc} for l in lines}
    through = {p: {l for l in lines if (p, l) in inc} for p in points}
    # order 2: three points on every line, three lines on every point
    if any(len(s) != 3 for s in list(on.values()) + list(through.values())):
        return "unknown"
    point_pairs = [(p, q) for i, p in enumerate(points) for q in points[i + 1 :]]
    line_pairs = [(l, m) for i, l in enumerate(lines) for m in lines[i + 1 :]]
    # projective plane: two points span exactly one line, two lines meet in
    # exactly one point
    if all(len(through[p] & through[q]) == 1 for p, q in point_pairs) and all(
        len(on[l] & on[m]) == 1 for l, m in line_pairs
    ):
        return "projective-plane-2"
    # generalized quadrangle: two points span at most one line, and a point
    # off a line lies on exactly one line meeting it
    if all(len(through[p] & through[q]) <= 1 for p, q in point_pairs) and all(
        sum(1 for m in through[p] if on[m] & on[l]) == 1
        for p in points
        for l in lines
        if p not in on[l]
    ):
        # GQ(2,2) has (s + 1)(st + 1) = 15 points and as many lines
        return "gq-2-2" if len(points) == len(lines) == 15 else "unknown"
    return "unknown"


def s_covering_by_residues(f, s):
    """The residue-based s-covering test, moved here from
    ``geomforge.geom.is_s_covering``: f must be surjective, and for every
    flag F of size at least rank - s the restriction of f to res(F), built
    as a geometry, must be an isomorphism onto res(f(F)), also built."""
    from geomforge.geom import MorphismError, residue

    src = f.source
    if not 1 <= s < src.rank:
        raise MorphismError(f"s must satisfy 1 <= s < rank, got {s}")
    if not f.is_surjective():
        return False

    def is_isomorphism(res_src, res_tgt):
        images = {}
        for e in res_src.elements:
            if f(e) not in res_tgt.type_of:
                return False
            images[e] = f(e)
        if len(set(images.values())) != res_src.size or res_src.size != res_tgt.size:
            return False
        if any(not res_tgt.incident(images[a], images[b]) for a, b in res_src.incidence_pairs()):
            return False
        back = {v: k for k, v in images.items()}
        return all(res_src.incident(back[a], back[b]) for a, b in res_tgt.incidence_pairs())

    def visit(flag, cands):
        if len(flag) < src.rank - s:
            return None
        res_tgt = residue(f.target, sorted({f(e) for e in flag}, key=label_key))
        return not is_isomorphism(residue(src, flag), res_tgt)

    return not src.walk_flags(visit, max_size=src.rank - 1)


def homology_rank_by_boundary(complex_, prime):
    """dim H1(K; GF(prime)) = (E - V + 1) - rank of the triangle boundary
    matrix, for a connected complex: the boundary-matrix computation moved
    here from ``geomforge.cover.homology_rank``, which now reads H1 off the
    pi1 presentation.  Each edge is oriented as ``graph.edges()`` lists it."""
    from geomforge.gf2 import MatrixGFp

    graph = complex_.graph
    edges = graph.edges()
    edge_index = {frozenset(e): i for i, e in enumerate(edges)}
    orientation = {frozenset(e): e for e in edges}
    cycle_dim = len(edges) - graph.n + 1
    if not complex_.triangles:
        return cycle_dim
    entries = []
    for col, (a, b, c) in enumerate(complex_.triangles):
        for u, v in ((a, b), (b, c), (c, a)):
            key = frozenset((u, v))
            sign = 1 if orientation[key] == (u, v) else -1
            entries.append((edge_index[key], col, sign % prime))
    boundary = MatrixGFp.from_entries(prime, len(edges), len(complex_.triangles), entries)
    return cycle_dim - boundary.rank()


def todd_coxeter_flat(generators, relators, subgroup, limit):
    """HLT coset enumeration on one flat table, entry (c, col) at
    c * w + col and -1 while undefined, with generator g's column at
    2g - 2 and its inverse's at 2g - 1; words are tuples of signed 1-based
    generator indices.  Returns (status, table, defined): the status is
    "completed" or "overflow", the table is the standardized list of rows
    (None on overflow), and ``defined`` counts the cosets defined, coset 0
    included.  The library's enumerator before it stored one list per
    column, moved here as the reference for its definition order."""
    w = 2 * len(generators)

    def column(letter):
        return 2 * letter - 2 if letter > 0 else -2 * letter - 1

    def compiled(word):
        return tuple(map(column, word)), tuple(column(-letter) for letter in word)

    compiled_relators = [compiled(word) for word in relators]
    blank = [-1] * w
    table = list(blank)
    rep = [0]

    class Overflow(Exception):
        pass

    def find(c):
        r = c
        while rep[r] != r:
            r = rep[r]
        while rep[c] != r:
            rep[c], c = r, rep[c]
        return r

    def define(c, col):
        d = len(rep)
        if d >= limit:
            raise Overflow()
        rep.append(d)
        table.extend(blank)
        table[c * w + col] = d
        table[d * w + (col ^ 1)] = c

    def coincide(a, b):
        if a > b:
            a, b = b, a
        rep[b] = a
        queue = [b]
        for dead in queue:
            base = dead * w
            for col in range(w):
                d = table[base + col]
                if d < 0:
                    continue
                back = col ^ 1
                table[d * w + back] = -1
                mu = find(rep[dead])
                nu = find(d)
                x = table[mu * w + col]
                if x >= 0:
                    y = nu
                else:
                    x = table[nu * w + back]
                    if x < 0:
                        table[mu * w + col] = nu
                        table[nu * w + back] = mu
                        continue
                    y = mu
                x = find(x)
                if x != y:
                    if x > y:
                        x, y = y, x
                    rep[y] = x
                    queue.append(y)

    def scan_and_fill(c, fwd, inv):
        n = len(fwd)
        f, i, b, j = c, 0, c, n - 1
        while True:
            while i < n:
                nxt = table[f * w + fwd[i]]
                if nxt < 0:
                    break
                f = nxt
                i += 1
            if i == n:
                if f == c:
                    return
                coincide(f, c)
                c = find(c)
                f, i, b, j = c, 0, c, n - 1
                continue
            if j < i:
                b, j = c, n - 1
            while j > i:
                nxt = table[b * w + inv[j]]
                if nxt < 0:
                    break
                b = nxt
                j -= 1
            if j == i:
                e = table[b * w + inv[i]]
                if e < 0:
                    table[f * w + fwd[i]] = b
                    table[b * w + inv[i]] = f
                else:
                    coincide(f, e)
                return
            define(f, fwd[i])

    try:
        for fwd, inv in map(compiled, subgroup):
            scan_and_fill(0, fwd, inv)
        c = 0
        while c < len(rep):
            if rep[c] == c:
                for fwd, inv in compiled_relators:
                    f = c
                    for col in fwd:
                        f = table[f * w + col]
                        if f < 0:
                            break
                    if f != c:
                        scan_and_fill(c, fwd, inv)
                        if rep[c] != c:
                            break
                else:
                    for col in range(w):
                        if table[c * w + col] < 0:
                            define(c, col)
            c += 1
    except Overflow:
        return "overflow", None, len(rep)
    number = [-1] * len(rep)
    number[0] = 0
    order = [0]
    for c in order:
        for d in table[c * w:c * w + w]:
            if number[d] < 0:
                number[d] = len(order)
                order.append(d)
    return "completed", [[number[d] for d in table[c * w:c * w + w]] for c in order], len(rep)
