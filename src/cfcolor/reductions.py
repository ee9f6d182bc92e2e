"""Constructive NP-hardness reduction builders and the executable
directions of their correctness arguments.

All builders tag every vertex of their output with a role so that
certificate extraction never depends on vertex numbering.
"""

from __future__ import annotations

from dataclasses import dataclass

from cfcolor.coloring import ListAssignment, PartialColoring
from cfcolor.graphs import Graph, derived_hypergraph
from cfcolor.verify import hits_each_once, is_pimds, is_pids, verify_cf


@dataclass(frozen=True)
class Formula:
    """Positive 3-CNF: clauses are 3-sets of variable indices 0..n-1."""

    n: int
    clauses: tuple

    def __post_init__(self):
        clauses = tuple(tuple(sorted(c)) for c in self.clauses)
        for c in clauses:
            if len(set(c)) != 3:
                raise ValueError(f"clause {c} must have 3 distinct variables")
            if c[0] < 0 or c[-1] >= self.n:
                raise ValueError(f"clause {c} out of range for n={self.n}")
        object.__setattr__(self, "clauses", clauses)

    @property
    def m(self):
        return len(self.clauses)

    def is_one_in_three(self, true_vars):
        return hits_each_once(self.clauses, true_vars)


# The running example used throughout the hardness reductions:
# (x1 v x2 v x3)(x1 v x2 v x5)(x1 v x3 v x5)(x3 v x4 v x5), solved by {x1, x4}.
FIGURE_FORMULA = Formula(5, ((0, 1, 2), (0, 1, 4), (0, 2, 4), (2, 3, 4)))


@dataclass(frozen=True)
class ReductionOutput:
    """A built graph plus the total role map for its vertices."""

    graph: Graph
    roles: dict

    def vertex_with_role(self, role):
        for v, r in self.roles.items():
            if r == role:
                return v
        raise KeyError(f"no vertex with role {role}")

    def role_lines(self):
        out = []
        for v in sorted(self.roles):
            kind, *payload = self.roles[v]
            payload_txt = " ".join(str(p) for p in payload)
            out.append(f"{v} {kind} {payload_txt}".rstrip())
        return out


def build_associated_graph(formula):
    """Bipartite incidence graph: variable vertices 0..n-1, clause
    vertices n..n+m-1, an edge per clause membership."""
    n, m = formula.n, formula.m
    roles = {i: ("variable", i) for i in range(n)}
    edges = []
    for j, clause in enumerate(formula.clauses):
        cj = n + j
        roles[cj] = ("clause", j)
        edges.extend((x, cj) for x in clause)
    return ReductionOutput(Graph(n + m, edges), roles)


def build_g_prime(formula):
    """Incidence graph plus, per variable, a pendant 2-path making an
    induced P3 that ends at the variable vertex: m+3n vertices."""
    base = build_associated_graph(formula)
    n, m = formula.n, formula.m
    roles = dict(base.roles)
    edges = list(base.graph.edges)
    for i in range(n):
        mid = n + m + 2 * i
        far = n + m + 2 * i + 1
        roles[mid] = ("gadget-mid", i)
        roles[far] = ("gadget-far", i)
        edges.append((i, mid))
        edges.append((mid, far))
    return ReductionOutput(Graph(n + m + 2 * n, edges), roles)


def build_g_double_prime(formula):
    """Incidence graph plus a pendant vertex per variable: m+2n vertices."""
    base = build_associated_graph(formula)
    n, m = formula.n, formula.m
    roles = dict(base.roles)
    edges = list(base.graph.edges)
    for i in range(n):
        pend = n + m + i
        roles[pend] = ("pendant", i)
        edges.append((i, pend))
    return ReductionOutput(Graph(n + m + n, edges), roles)


COPY_PAIRS = tuple(
    (i, j, z) for i in range(1, 5) for j in range(i + 1, 5) for z in ("a", "b")
)


def build_h_gadget(g):
    """Twelve disjoint copies of g plus four hubs v_1..v_4; hubs v_i and
    v_j are adjacent to every vertex of the two (i, j) copies.

    Vertices: copy t (in COPY_PAIRS order) occupies t*n .. t*n+n-1,
    hubs sit at 12n .. 12n+3.  Edge count is 12|E(g)| + 24|V(g)|.
    """
    n = g.n
    roles = {}
    edges = []
    for t, (i, j, z) in enumerate(COPY_PAIRS):
        offset = t * n
        for q in range(n):
            roles[offset + q] = ("copy", i, j, z, q)
        edges.extend((offset + u, offset + v) for u, v in g.edges)
    hub = {ell: 12 * n + (ell - 1) for ell in range(1, 5)}
    for ell in range(1, 5):
        roles[hub[ell]] = ("hub", ell)
    for t, (i, j, z) in enumerate(COPY_PAIRS):
        offset = t * n
        for q in range(n):
            edges.append((hub[i], offset + q))
            edges.append((hub[j], offset + q))
    return ReductionOutput(Graph(12 * n + 4, edges), roles)


def _reduction(variant):
    """(builder, certificate check, certificate name) of the ON or the CN
    reduction."""
    if variant == "on":
        return build_g_prime, is_pimds, "PIMDS"
    if variant == "cn":
        return build_g_double_prime, is_pids, "PIDS"
    raise ValueError(f"unknown variant {variant!r}")


def truth_to_certificate(formula, assignment, variant):
    """Turn a 1-in-3 solution into the matching graph certificate.

    ON: a PIMDS of G'_phi -- a true variable contributes {x_i, mid},
    a false one {mid, far}.  CN: a PIDS of G''_phi -- x_i when true,
    the pendant v_i when false.
    """
    assignment = set(assignment)
    if not formula.is_one_in_three(assignment):
        raise ValueError("assignment is not a 1-in-3 solution of the formula")
    build, check, name = _reduction(variant)
    out = build(formula)
    false_role = "gadget-far" if variant == "on" else "pendant"
    s = set()
    for i in range(formula.n):
        if variant == "on":
            s.add(out.vertex_with_role(("gadget-mid", i)))
        s.add(i if i in assignment else out.vertex_with_role((false_role, i)))
    if not check(out.graph, s):  # pragma: no cover - proof-backed
        raise AssertionError(f"constructed set is not a {name}")
    return frozenset(s)


def certificate_to_truth(formula, s, variant):
    """Recover the truth assignment from a PIMDS of G'_phi (ON) or a
    PIDS of G''_phi (CN): x_i is true iff the vertex x_i is in s."""
    s = set(s)
    build, check, name = _reduction(variant)
    if not check(build(formula).graph, s):
        raise ValueError(
            f"set is not a {name} of the {variant.upper()} reduction graph"
        )
    assignment = frozenset(i for i in range(formula.n) if i in s)
    if not formula.is_one_in_three(assignment):
        raise ValueError("certificate does not induce a 1-in-3 solution")
    return assignment


def _pick_distinct(lists, v, avoid):
    for c in lists.colors(v):
        if c not in avoid:
            return c
    return min(lists.colors(v))


def hg_strategy(g, lists, inner):
    """Execute the 2-list coloring recipe for the hub gadget H_g.

    `lists` is a 2-assignment over build_h_gadget(g); `inner` is a
    1-CFCN* list solver for g: inner(graph, lists) -> PartialColoring or
    None.  Hubs v_1..v_3 are colored greedily (preferring all-distinct,
    ties to the smallest color); one extra vertex w in the (1,4,a) copy
    covers v_4.  If two hubs share a color, the two copies they flank are
    recolored by the inner solver on lists with that color removed.
    Returns a verified coloring of H_g.
    """
    out = build_h_gadget(g)
    h_graph = out.graph
    if lists.n != h_graph.n:
        raise ValueError("lists must cover every vertex of H_g")
    if not lists.is_k_assignment(2):
        raise ValueError("hg_strategy needs a 2-assignment")

    hubs = {ell: out.vertex_with_role(("hub", ell)) for ell in range(1, 5)}
    c1 = min(lists.colors(hubs[1]))
    c2 = _pick_distinct(lists, hubs[2], {c1})
    c3 = _pick_distinct(lists, hubs[3], {c1, c2})
    f = {hubs[1]: c1, hubs[2]: c2, hubs[3]: c3}

    w = min(v for v, r in out.roles.items() if r[:4] == ("copy", 1, 4, "a"))
    f[w] = next(c for c in lists.colors(w) if c != c1)

    hub_colors = [c1, c2, c3]
    if len(set(hub_colors)) < 3:
        # exactly one duplicated pair: recolor its two copies with the
        # shared color struck from every list
        (i, j) = next(
            (i, j)
            for i in range(1, 4)
            for j in range(i + 1, 4)
            if hub_colors[i - 1] == hub_colors[j - 1]
        )
        dup = hub_colors[i - 1]
        for z in ("a", "b"):
            copy_of = {
                r[4]: v for v, r in out.roles.items() if r[:4] == ("copy", i, j, z)
            }
            reduced = ListAssignment(
                [lists.without(copy_of[q], {dup}) for q in range(g.n)]
            )
            inner_coloring = inner(g, reduced)
            if inner_coloring is None:
                raise ValueError(
                    "inner solver failed: g is not 1-CFCN*-choosable"
                )
            for q, c in inner_coloring.items():
                f[copy_of[q]] = c

    coloring = PartialColoring(f)
    report = verify_cf(
        derived_hypergraph(h_graph, "closed"), coloring, lists=lists
    )
    if not report.valid:  # pragma: no cover - proof-backed
        raise AssertionError("hub gadget strategy produced an invalid coloring")
    return coloring


def edc_transfer(direction, g, colorings):
    """Move colorings across the extended double cover D_g.

    cn-to-on: colorings = (fX, fY), two CFCN* colorings of g; produces
    f(x_i) = fX(v_i), f(y_i) = fY(v_i), a CFON* coloring of D_g.
    on-to-cn: colorings = f', a CFON* coloring of D_g; produces
    f(v_i) = f'(x_i), a CFCN* coloring of g.  Inputs and output are
    verified; invalid inputs raise.
    """
    from cfcolor.graphs import extended_double_cover

    d = extended_double_cover(g)
    n = g.n
    if direction == "cn-to-on":
        fx, fy = colorings
        closed = derived_hypergraph(g, "closed")
        for name, fin in (("fX", fx), ("fY", fy)):
            if not verify_cf(closed, fin).valid:
                raise ValueError(f"{name} is not a valid CFCN* coloring of g")
        merged = {i: fx[i] for i in range(n) if i in fx}
        merged.update({n + i: fy[i] for i in range(n) if i in fy})
        f = PartialColoring(merged)
        if not verify_cf(derived_hypergraph(d, "open"), f).valid:
            raise AssertionError("transfer produced an invalid CFON* coloring")
        return f
    if direction == "on-to-cn":
        fprime = colorings
        if not verify_cf(derived_hypergraph(d, "open"), fprime).valid:
            raise ValueError("input is not a valid CFON* coloring of D_g")
        f = PartialColoring({i: fprime[i] for i in range(n) if i in fprime})
        if not verify_cf(derived_hypergraph(g, "closed"), f).valid:
            raise AssertionError("transfer produced an invalid CFCN* coloring")
        return f
    raise ValueError(f"unknown direction {direction!r}")
