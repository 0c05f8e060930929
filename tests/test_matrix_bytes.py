"""Every named walk matrix pinned by one sha256: each ``MATRIX_BUILDERS``
kind in both modes on six graphs, with the arc index alongside.

Exact entries hash as their type name and ``format_scalar`` rendering, so
an int 1 and a Fraction 1 differ; float entries hash as ``float.hex``.  A
kind the graph does not admit hashes its ``ChainError`` message.  A change
to how the matrices are built must leave the digest alone.
"""

import hashlib

from nbkemeny import (
    ChainError,
    OrientedEdgeIndex,
    build_matrix,
    from_edge_list,
    gen_complete,
    gen_complete_bipartite,
    gen_cycle_barbell,
)
from nbkemeny.chains import MATRIX_BUILDERS
from nbkemeny.ratmath import format_scalar


def _entry(x, exact: bool) -> str:
    if exact:
        return f"{type(x).__name__}:{format_scalar(x)}"
    return float(x).hex()


def _matrix_lines(g, kind: str, exact: bool) -> list[str]:
    try:
        M = build_matrix(g, kind, exact=exact)
    except ChainError as err:
        return [f"{kind} {exact} ChainError {err}"]
    head = f"{kind} {exact} {M.data.dtype} {M.data.shape}"
    return [head] + [" ".join(_entry(x, exact) for x in row) for row in M.data]


def test_matrix_bytes_pinned(petersen):
    graphs = {
        "K4": gen_complete(4),
        "K23": gen_complete_bipartite(2, 3),
        "CB(2,3,4)": gen_cycle_barbell(2, 3, 4),
        "petersen": petersen,
        "triangle+isolated": from_edge_list(4, [(0, 1), (1, 2), (0, 2)]),
        "n=1": from_edge_list(1, []),
    }
    lines = []
    for name, g in graphs.items():
        idx = OrientedEdgeIndex.from_graph(g)
        lines.append(f"{name} arcs={idx.arcs} rev={idx.rev} succ={idx.succ}")
        for kind in MATRIX_BUILDERS:
            for exact in (True, False):
                lines += _matrix_lines(g, kind, exact)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest.startswith("ae8fadc623263d92"), digest
