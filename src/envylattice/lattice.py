"""Blair order and the lattice of envy-free allocations.

The doctor-side Blair order compares individually rational allocations:
Y weakly dominates Yp when every doctor, offered the union of the two,
would choose exactly their part of Y, i.e. Y_d == C_d(Y | Yp) for all d.
The dominance test is evaluated restriction-wise, which is the reading
consistent with how the order is actually used by the join and the
fixed-point dynamics.

On the envy-free set the order is a lattice.  The join has a closed
form: let every doctor choose from the union and collect the results.
The meet joins all common lower bounds, which the envy-free search
lists when each doctor keeps only the parts both inputs dominate; no
intensional meet formula is assumed.  These guarantees are theorems on
the envy-free set; the computations are well defined on IR allocations.

Blair dominance has one definition, the join closed form: Y dominates
Yp exactly when ``choice_join(market, Y, Yp) == Y``.  Each input is
checked once: ``blair_dominates`` and ``join`` check that their inputs
are IR allocations (``join`` also its result), ``meet`` that its inputs
are envy-free.  Below them ``choice_join`` and its batch form, the
bitset rows ``_dominance_rows``, run unchecked.
``hasse`` takes its nodes and their stable flags from one envy-free
search and reduces the rows.  The stable extremes are read off the rows
too: the Blair-greatest has a full row, the Blair-least its bit in every
row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_

from .choice import _choose, _ids, _parts
from .classify import _ir, _require_envy_free, _search, enumerate_allocations
from .model import (
    InvariantViolation,
    Market,
    MarketError,
    allocation_violations,
    canon,
    require_allocation,
)


def _require_ir(market: Market, Y) -> frozenset:
    Y = require_allocation(market, Y)
    if not _ir(market, Y):
        raise MarketError(f"allocation {canon(Y)} is not individually rational")
    return Y


def choice_join(market: Market, Y: frozenset, Yp: frozenset) -> frozenset:
    """Per-doctor choice from the union; the hospital side just collects."""
    return frozenset().union(
        *(_ids(market, d, _choose(market, d, part)) for d, part in _parts(market, Y | Yp).items())
    )


def blair_dominates(market: Market, Y, Yp) -> bool:
    """Whether Y weakly dominates Yp in the doctor-side Blair order.

    Both arguments must be individually rational allocations.
    """
    Y = _require_ir(market, Y)
    return choice_join(market, Y, _require_ir(market, Yp)) == Y


def join(market: Market, Y, Yp) -> frozenset:
    """Least upper bound of two envy-free allocations in the Blair order.

    Accepts any pair of individually rational allocations; the lattice
    guarantees hold when both are envy-free.  The result is verified to
    be an allocation and returned as a frozenset.
    """
    Y = _require_ir(market, Y)
    Yp = _require_ir(market, Yp)
    result = choice_join(market, Y, Yp)
    bad = allocation_violations(market, result)
    if bad:
        raise InvariantViolation(
            "join produced a non-allocation (inputs are outside the "
            "envy-free domain): " + "; ".join(bad)
        )
    return result


def meet(market: Market, Y, Yp) -> frozenset:
    """Greatest lower bound of two envy-free allocations in the Blair order.

    After the envy-free check of both inputs, one search lists the
    common lower bounds, refusing a market above the cap before any
    work; their join is verified to be an IR allocation and a common
    lower bound itself.
    """
    Y = _require_envy_free(market, Y)[0]
    Yp = _require_envy_free(market, Yp)[0]
    lower = (Z for Z, _ in _search(market, "envy-free", (Y, Yp)))
    glb = _require_ir(market, reduce(lambda a, b: join(market, a, b), lower))
    if not (choice_join(market, Y, glb) == Y and choice_join(market, Yp, glb) == Yp):
        raise InvariantViolation(
            "join of the common lower bounds is not itself a lower bound; "
            "the market violates the choice axioms"
        )
    return glb


def _dominance_rows(market: Market, nodes) -> list[int]:
    """Bit j of entry i is set when nodes[i] weakly dominates nodes[j].

    Dominance is per doctor: Y dominates Yp exactly when the choice
    from the union reproduces Y, C_d(Y_d | Yp_d) == Y_d, for every d.
    So for each doctor the nodes are grouped by their part, each part p
    gets the mask of the nodes whose part it dominates, and a node's row
    is the AND of the masks of its parts.  Each node dominates itself.
    """
    n = len(nodes)
    rows = [(1 << n) - 1] * n
    node_parts = [_parts(market, Y) for Y in nodes]
    for d in set().union(*node_parts):  # a doctor in no part has one group
        parts = [p.get(d, 0) for p in node_parts]
        groups: dict[int, int] = {}
        for j, p in enumerate(parts):
            groups[p] = groups.get(p, 0) | 1 << j
        masks = {
            p: sum(m for q, m in groups.items() if _choose(market, d, p | q) == p)
            for p in groups
        }
        rows = [row & masks[p] for row, p in zip(rows, parts)]
    return [row | 1 << i for i, row in enumerate(rows)]


def _bits(mask: int):
    """The indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def dominance_matrix(market: Market, nodes: list[frozenset]) -> list[list[bool]]:
    """matrix[i][j] == nodes[i] weakly dominates nodes[j].

    Exploits the join closed form: Y dominates Yp exactly when the
    per-doctor choice from the union reproduces Y.  The matrix unpacks
    the bitset rows that ``hasse`` reduces.
    """
    rows = _dominance_rows(market, nodes)
    return [[bool(row >> j & 1) for j in range(len(nodes))] for row in rows]


@dataclass(frozen=True)
class LatticeGraph:
    """Hasse diagram of the envy-free set under the Blair order.

    ``covers`` holds (lower, upper) node-index pairs after transitive
    reduction; ``bottom`` indexes the empty allocation, which is always
    envy-free and below every other envy-free allocation.
    """

    nodes: tuple[frozenset, ...]
    covers: tuple[tuple[int, int], ...]
    stable: tuple[bool, ...]
    bottom: int

    def heights(self) -> list[int]:
        """Longest chain length from the bottom to each node."""
        n = len(self.nodes)
        above: dict[int, list[int]] = {i: [] for i in range(n)}
        indeg = [0] * n
        for lo, hi in self.covers:
            above[lo].append(hi)
            indeg[hi] += 1
        height = [0] * n
        queue = [i for i in range(n) if indeg[i] == 0]
        while queue:
            i = queue.pop()
            for j in above[i]:
                height[j] = max(height[j], height[i] + 1)
                indeg[j] -= 1
                if indeg[j] == 0:
                    queue.append(j)
        return height


def hasse(market: Market) -> LatticeGraph:
    """The Hasse diagram of the envy-free set, with its stable nodes.

    One envy-free search gives the nodes and their stable flags.  With
    below(i) the nodes strictly dominated by node i, as a bitset, the
    covers of i are below(i) minus the union of below(k) over k in
    below(i): O(n^2) big-int operations on the dominance rows.
    """
    nodes, stable = zip(*_search(market, "envy-free"))
    below = [row & ~(1 << i) for i, row in enumerate(_dominance_rows(market, nodes))]
    covers = []
    for i, strict in enumerate(below):
        reach = 0
        for k in _bits(strict):
            reach |= below[k]
        covers.extend((j, i) for j in _bits(strict & ~reach))
    covers.sort()
    return LatticeGraph(
        nodes=nodes, covers=tuple(covers), stable=stable, bottom=nodes.index(frozenset())
    )


def _stable_extremes(market: Market, stable: list[frozenset]) -> tuple:
    """(Blair-greatest, Blair-least) of an enumerated stable set, None where
    missing: the first node whose row is full, the first set in every row."""
    if not stable:
        raise InvariantViolation("stable set is empty; the market violates the choice axioms")
    rows = _dominance_rows(market, stable)
    return (
        next((Y for Y, row in zip(stable, rows) if row.bit_count() == len(stable)), None),
        next((stable[j] for j in _bits(reduce(and_, rows))), None),
    )


def _extremum(Y: frozenset | None) -> frozenset:
    if Y is None:
        raise InvariantViolation("no Blair-extremum in stable set")
    return Y


def doctor_optimal(market: Market) -> frozenset:
    """The stable allocation every doctor weakly prefers (Blair-greatest)."""
    return _extremum(_stable_extremes(market, enumerate_allocations(market, "stable"))[0])


def hospital_optimal(market: Market) -> frozenset:
    """The Blair-least stable allocation (doctors' unanimous worst)."""
    return _extremum(_stable_extremes(market, enumerate_allocations(market, "stable"))[1])


def _node_label(Y: frozenset) -> str:
    """The DOT label of Y, quote and backslash escaped for its string."""
    label = "{" + ", ".join(canon(Y)) + "}" if Y else "∅"
    return label.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(graph: LatticeGraph) -> str:
    """Deterministic Graphviz rendering, bottom-up, stable nodes filled."""
    lines = [
        "digraph envy_free_lattice {",
        "  rankdir=BT;",
        '  node [shape=box, fontname="Helvetica"];',
    ]
    for i, Y in enumerate(graph.nodes):
        style = ' style="bold,filled" fillcolor="lightgrey"' if graph.stable[i] else ""
        lines.append(f'  n{i} [label="{_node_label(Y)}"{style}];')
    for lo, hi in graph.covers:
        lines.append(f"  n{lo} -> n{hi};")
    height = graph.heights()
    for level in sorted(set(height)):
        members = " ".join(f"n{i};" for i, hh in enumerate(height) if hh == level)
        lines.append(f"  {{ rank=same; {members} }}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: LatticeGraph) -> dict:
    return {
        "nodes": [list(canon(Y)) for Y in graph.nodes],
        "covers": [list(edge) for edge in graph.covers],
        "stable": list(graph.stable),
        "bottom": graph.bottom,
    }
