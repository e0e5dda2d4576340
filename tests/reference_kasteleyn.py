"""Reference Kasteleyn signer: walk the faces of a drawing and sign them.

A second, independent way to sign a plane bipartite graph, for tests to
check lattice signings face by face and to sign the graphs that tests
build by hand (`signed`).  `lattice_signed` signs a region's dual with
the square-lattice parity rule, read off the cells' anchors, and takes
the outer flags from the face walks here; the tests check the signed
rows, corners, outer test and minors that the package reads off a
region's level runs against it.  The package shares nothing with this
module.

The cyclic order of neighbours read off the vertex coordinates gives the
face walks; each component must come out plane (V - E + F = 2), or the
graph is refused with ValueError.  A component's outer walk is its one
walk of shoelace area <= 0, and the signs are fixed face by face along a
spanning tree of the dual, so that every other walk of length 2k has
k + 1 negated edges mod 2.  Coordinates are ints or any rationals, and
the order is exact on both with no rescaling.
"""

from reference_graphs import SignedGraph
from douglastile.matching import dual_graph


def adjacency(graph):
    """(neighbour, edge index) pairs of each vertex, in edge order."""
    adj = [[] for _ in graph.vertices]
    for e, (i, j) in enumerate(graph.edges):
        adj[i].append((j, e))
        adj[j].append((i, e))
    return adj


def _components(adj):
    """Component of each vertex, their number and spanning-forest edges."""
    comp = [-1] * len(adj)
    tree = set()
    ncomp = 0
    for root in range(len(adj)):
        if comp[root] >= 0:
            continue
        comp[root] = ncomp
        queue = [root]
        for i in queue:
            for j, e in adj[i]:
                if comp[j] < 0:
                    comp[j] = ncomp
                    tree.add(e)
                    queue.append(j)
        ncomp += 1
    return comp, ncomp, tree


def _rotation(graph, adj):
    """Each vertex's (neighbour, edge) pairs in counterclockwise order.

    Neighbours are ordered by half-plane and cross products of the
    coordinates as given, which are exact on ints and on Fractions alike.
    Only the cyclic order matters, so up to two neighbours need no sorting.
    """
    px = [v[1] for v in graph.vertices]
    py = [v[2] for v in graph.vertices]
    rot = []
    for i, pairs in enumerate(adj):
        if len(pairs) < 3:
            rot.append(pairs)
            continue
        x0, y0 = px[i], py[i]
        out = []
        for pair in pairs:
            dx, dy = px[pair[0]] - x0, py[pair[0]] - y0
            lower = dy < 0 or (dy == 0 and dx < 0)
            k = len(out)
            while k:
                ox, oy, olower, _ = out[k - 1]
                if olower < lower or (
                    olower == lower and ox * dy - oy * dx > 0
                ):
                    break
                k -= 1
            out.insert(k, (dx, dy, lower, pair))
        rot.append([item[3] for item in out])
    return rot


def face_walks(graph, adj):
    """The face walks of the rotation system read off the coordinates.

    A dart is one end of an edge: the k-th dart around vertex i runs
    from i along its k-th edge counterclockwise.  Returns `(faces, target,
    edge_of, rev, face_of)`: `faces` lists each walk's darts in order,
    dart d runs along edge `edge_of[d]` to vertex `target[d]`, `rev[d]`
    is the same edge run the other way and `face_of[d]` the walk of d.
    """
    rot = _rotation(graph, adj)
    # darts: offset[i] + k is the k-th edge end around vertex i
    offset = [0]
    for pairs in rot:
        offset.append(offset[-1] + len(pairs))
    ndarts = offset[-1]
    target = [0] * ndarts
    edge_of = [0] * ndarts
    rev = [0] * ndarts
    first_dart = [-1] * len(graph.edges)
    d = 0
    for pairs in rot:
        for j, e in pairs:
            target[d] = j
            edge_of[d] = e
            other = first_dart[e]
            if other < 0:
                first_dart[e] = d
            else:
                rev[d] = other
                rev[other] = d
            d += 1
    # face walks: after arriving at v along u->v, leave along the edge
    # just clockwise of v->u
    face_of = [-1] * ndarts
    faces = []
    for start in range(ndarts):
        if face_of[start] >= 0:
            continue
        walk = []
        d = start
        while face_of[d] < 0:
            face_of[d] = len(faces)
            walk.append(d)
            r = rev[d]
            v = target[d]
            d = r - 1 if r > offset[v] else offset[v + 1] - 1
        faces.append(walk)
    return faces, target, edge_of, rev, face_of


def kasteleyn_signing(graph):
    """`(negated, outer)` flags of a Kasteleyn signing read off the drawing.

    Each component's outer face walk is its walk of least shoelace area,
    the one walk of area <= 0 in a plane drawing; every other walk of
    length 2k gets k + 1 negated edges mod 2, whatever the colour balance.
    `outer[i]` is 1 when vertex i lies on the outer walk of its component
    (an isolated vertex does).  A signing the graph carries is ignored.  Raises
    ValueError unless the rotation system read off the coordinates has
    genus zero on every component, which is the hypothesis of Kasteleyn's
    theorem.
    """
    adj = adjacency(graph)
    comp, ncomp, tree = _components(adj)
    faces, target, edge_of, rev, face_of = face_walks(graph, adj)
    # V - E + F = 2 - 2g on each component, an isolated vertex having
    # one face and no walk, so the totals reach two per component only if
    # every component has genus zero
    isolated = [i for i, pairs in enumerate(adj) if not pairs]
    if len(adj) - len(graph.edges) + len(faces) + len(isolated) != 2 * ncomp:
        raise ValueError("graph is not plane")
    # twice the shoelace area of each walk; bounded faces run
    # counterclockwise, so the outer walk has the least
    px = [v[1] for v in graph.vertices]
    py = [v[2] for v in graph.vertices]
    root = [-1] * ncomp
    least = [0] * ncomp
    for f, walk in enumerate(faces):
        u = target[walk[-1]]
        area = 0
        for d in walk:
            v = target[d]
            area += px[u] * py[v] - px[v] * py[u]
            u = v
        c = comp[u]
        if root[c] < 0 or area < least[c]:
            root[c] = f
            least[c] = area
    order = [f for f in root if f >= 0]
    outer = bytearray(len(adj))
    for i in isolated:
        outer[i] = 1
    for f in order:
        for d in faces[f]:
            outer[target[d]] = 1
    # the non-tree edges form a spanning tree of each dual; fix each face
    # but the outer one from the leaves up so a walk of length 2k has
    # (k + 1) mod 2 negative edges
    reached = bytearray(len(faces))
    for f in order:
        reached[f] = 1
    neg = bytearray(len(graph.edges))
    parent_edge = [-1] * len(faces)
    for f in order:
        for d in faces[f]:
            e = edge_of[d]
            if e in tree:
                continue
            g = face_of[rev[d]]
            if not reached[g]:
                reached[g] = 1
                parent_edge[g] = e
                order.append(g)
    for f in reversed(order):
        e = parent_edge[f]
        if e < 0:
            continue
        walk = faces[f]
        odd = len(walk) // 2 + 1
        for d in walk:
            odd += neg[edge_of[d]]
        neg[e] = odd % 2
    return bytes(neg), bytes(outer)


def signed(graph) -> SignedGraph:
    """The graph with the reference signing in place of its own, if any."""
    return SignedGraph(graph.vertices, graph.edges, kasteleyn_signing(graph))


def lattice_negated(region, graph) -> bytes:
    """Negated-edge flags of the square-lattice parity rule (Kasteleyn,
    1961) on `graph`, the region's dual: an edge whose two cells have the
    same anchor x, across a south side or a cut diagonal, is negated when
    that x is odd; an edge across an east side never is."""
    xs = [cell.anchor[0] for cell in region.cells]
    return bytes(xs[i] == xs[j] and xs[i] % 2 for i, j in graph.edges)


def lattice_signed(region) -> SignedGraph:
    """The region's dual with the lattice signing: `lattice_negated`, and
    outer flags from the face walks of `kasteleyn_signing`."""
    graph = dual_graph(region)
    signing = (lattice_negated(region, graph), kasteleyn_signing(graph)[1])
    return SignedGraph(graph.vertices, graph.edges, signing)
