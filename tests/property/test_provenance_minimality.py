"""Property-based check: ``explain`` returns a minimum-height proof.

On transitive closure the minimum height of a proof of ``tc(a, b)`` is
known in closed form: one ``tc`` level per edge of a shortest path from
``a`` to ``b`` over an ``edge`` leaf, so the shortest path length + 1 (the
shortest cycle through ``a`` when ``a == b``).  Every engine must return a
tree of exactly that height after the initial solve and after every
insert/delete epoch — nothing is captured while solving, so the answer
cannot depend on the engine or on the order tuples were derived in.
"""

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engines import explain
from repro.service.session import ENGINES

from tests.unit.engines.helpers import tc_program


def shortest(edges: set[tuple], a, b) -> int:
    """Edges on a shortest non-empty path from ``a`` to ``b``."""
    succ: dict = {}
    for x, y in edges:
        succ.setdefault(x, []).append(y)
    dist = {a: 0}
    queue = deque([a])
    best = None
    while queue:
        x = queue.popleft()
        for y in succ.get(x, ()):
            if y == b and (best is None or dist[x] + 1 < best):
                best = dist[x] + 1
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    assert best is not None, (a, b)
    return best


def edge_strategy(n=5):
    node = st.integers(0, n)
    return st.tuples(node, node)


def check_heights(solvers, edges) -> None:
    for name, solver in solvers.items():
        for a, b in solver.relation("tc"):
            tree = explain(solver, "tc", (a, b))
            assert tree.height() == shortest(edges, a, b) + 1, (name, (a, b))


@settings(max_examples=30, deadline=None)
@given(
    st.sets(edge_strategy(), max_size=10),
    st.lists(
        st.tuples(st.booleans(), st.sets(edge_strategy(), min_size=1, max_size=3)),
        max_size=3,
    ),
)
def test_tc_proofs_have_minimum_height(initial, changes):
    solvers = {}
    for name, engine in ENGINES.items():
        solver = engine(tc_program())
        solver.add_facts("edge", initial)
        solver.solve()
        solvers[name] = solver
    edges = set(initial)
    check_heights(solvers, edges)
    for is_insert, rows in changes:
        change = {"edge": rows}
        for solver in solvers.values():
            if is_insert:
                solver.update(insertions=change)
            else:
                solver.update(deletions=change)
        edges = edges | rows if is_insert else edges - rows
        check_heights(solvers, edges)
