"""Probe-to-node attribution and embedding-node selection.

Every probe is charged to exactly one tree node: the first probe of an
address goes to the leaf whose update made it; a repeat probe goes to the
lowest common ancestor of that leaf and the leaf of the address's previous
probe.  For an internal node v this splits its probes by the child subtrees
the address travelled between: L(v,k) counts probes leaving child k (the
previous touch was under c_k(v)), R(v,k) counts probes entering child k.
C(v) is the total probe count of the updates in v's subtree.

Embedding selection scans heights h* in {ceil(h/2)..h} for the smallest
trial-averaged total of P over internal nodes of that height, then picks the
node and middle-child index minimizing the averaged L+R, admitting only
nodes whose averaged C stays within ``C_FACTOR`` times the height class
mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PqlabError
from .workload import INTERNAL, Tree

C_FACTOR = 4.0  # admission bound on a candidate's averaged C, in height-class means


@dataclass
class Attribution:
    tree: Tree
    node_of: list[int]                       # per probe: node charged
    pair_of: list[tuple[int, int] | None]    # (i, j) child indices at internal nodes
    leaf_of: list[int]                       # per probe: context leaf


def attribute(probe_log, tree: Tree) -> Attribution:
    node_of: list[int] = []
    pair_of: list[tuple[int, int] | None] = []
    leaf_of: list[int] = []
    last_touch: dict[int, int] = {}
    for seq, rec in enumerate(probe_log):
        leaf = rec.leaf_id
        if leaf is None:
            raise PqlabError(f"probe {seq} has no leaf context")
        prev = last_touch.get(rec.addr)
        if prev is None or prev == leaf:
            node_of.append(leaf)
            pair_of.append(None)
        else:
            v, i, j = tree.lca(prev, leaf)
            if tree.nodes[v].kind != INTERNAL or i is None or i >= j:
                raise PqlabError(
                    f"probe {seq}: leaf {prev} then {leaf} violates pre-order (lca {v}, i={i}, j={j})"
                )
            node_of.append(v)
            pair_of.append((i, j))
        leaf_of.append(leaf)
        last_touch[rec.addr] = leaf
    return Attribution(tree, node_of, pair_of, leaf_of)


@dataclass
class NodeStats:
    node_id: int
    height: int
    kind: str
    p_count: int = 0
    c_count: int = 0
    l_counts: list[int] = field(default_factory=list)  # 1-based child index
    r_counts: list[int] = field(default_factory=list)


@dataclass
class StatsReport:
    tree: Tree
    nodes: list[NodeStats]
    total_probes: int


def node_stats(attribution: Attribution) -> StatsReport:
    tree = attribution.tree
    width = 2 + tree.params.beta + 1
    stats = [
        NodeStats(n.id, n.height, n.kind, 0, 0, [0] * width, [0] * width)
        for n in tree.nodes
    ]
    for node, pair in zip(attribution.node_of, attribution.pair_of):
        st = stats[node]
        st.p_count += 1
        if pair is not None:
            i, j = pair
            st.l_counts[i] += 1
            st.r_counts[j] += 1
    # C(v): probes of the updates in v's subtree, accumulated leaf-to-root.
    for leaf in attribution.leaf_of:
        stats[leaf].c_count += 1
    for node in reversed(tree.nodes):
        if node.parent is not None:
            stats[node.parent].c_count += stats[node.id].c_count
    return StatsReport(tree, stats, len(attribution.node_of))


@dataclass
class EmbeddingChoice:
    h_star: int
    node_id: int
    k: int
    avg_lr: float
    avg_c: float


def find_embedding(reports: list[StatsReport], h: int) -> EmbeddingChoice:
    """Pick (h*, v, k) minimizing trial-averaged probe interaction counts."""
    if not reports:
        raise PqlabError("no trials given")
    if h < 2:
        raise PqlabError("embedding selection needs h >= 2")
    tree = reports[0].tree
    beta = tree.params.beta
    trials = len(reports)

    def avg_p(node_id: int) -> float:
        return sum(r.nodes[node_id].p_count for r in reports) / trials

    def avg_c(node_id: int) -> float:
        return sum(r.nodes[node_id].c_count for r in reports) / trials

    heights = range((h + 1) // 2, h + 1)
    by_height = {
        hh: [n.id for n in tree.internal_nodes() if n.height == hh] for hh in heights
    }
    h_star = min(heights, key=lambda hh: (sum(avg_p(v) for v in by_height[hh]), hh))
    candidates = by_height[h_star]
    mean_c = sum(avg_c(v) for v in candidates) / len(candidates)
    admitted = [v for v in candidates if avg_c(v) <= C_FACTOR * mean_c] or candidates

    best: tuple[float, int, int] | None = None
    for v in admitted:
        for k in range(2, beta + 2):
            lr = sum(r.nodes[v].l_counts[k] + r.nodes[v].r_counts[k] for r in reports) / trials
            cand = (lr, v, k)
            if best is None or cand < best:
                best = cand
    lr, v, k = best
    return EmbeddingChoice(h_star, v, k, avg_lr=lr, avg_c=avg_c(v))
