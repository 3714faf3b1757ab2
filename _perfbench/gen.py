"""Seeded workload generators and engine-independent oracles.

Everything here is plain Python: the expected answers come from the
analytic chain closure or from breadth-first search over the generated
edge set, never from the engine under test.
"""

import json
import random
from collections import deque

RULES = "anc(X, Y) :- par(X, Y).\nanc(X, Y) :- par(X, Z), anc(Z, Y).\n"


def rng(workload, seed, part=""):
    return random.Random(f"{workload}:{seed}:{part}")


def chain(r, n):
    """A chain of n nodes with seeded labels; returns (labels, edges)
    where labels[i] is the i-th node along the chain and the edges are in
    a seeded file order."""
    labels = list(range(1, n + 1))
    r.shuffle(labels)
    edges = [(labels[i], labels[i + 1]) for i in range(n - 1)]
    r.shuffle(edges)
    return labels, edges


def chain_closure(labels):
    """The analytic closure {(l_i, l_j) | i < j} of a chain."""
    return {(labels[i], labels[j])
            for i in range(len(labels)) for j in range(i + 1, len(labels))}


def digraph(r, nodes, edges):
    """`edges` distinct random arcs (no self-loops) over nodes 1..nodes."""
    out = set()
    while len(out) < edges:
        u = r.randint(1, nodes)
        v = r.randint(1, nodes)
        if u != v:
            out.add((u, v))
    result = sorted(out)
    r.shuffle(result)
    return result


def adjacency(edges):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
    return adj


def reach(adj, k):
    """Nodes reachable from k by one or more arcs (BFS)."""
    seen = set()
    todo = deque(adj.get(k, ()))
    while todo:
        v = todo.popleft()
        if v not in seen:
            seen.add(v)
            todo.extend(adj.get(v, ()))
    return seen


def program_text(edges, queries=()):
    lines = [RULES]
    lines.extend(f"par({u}, {v}).\n" for u, v in edges)
    lines.extend(f"?- anc({k}, X).\n" for k in queries)
    return "".join(lines)


def path_forest(r, nodes, length):
    """Disjoint directed paths of `length` nodes over seeded labels
    1..nodes: every seed gives the same shapes, so the same work."""
    labels = list(range(1, nodes + 1))
    r.shuffle(labels)
    edges = [(labels[i], labels[i + 1]) for i in range(nodes - 1)
             if (i + 1) % length]
    r.shuffle(edges)
    return edges


def request_stream(r, nodes, edges, count, hot=64):
    """A closed-loop request mix over the positive `anc` program, in blocks
    of 20 requests: 18 `query anc(k, X)` (k from a hot set 80% of the
    time), one `add` of an arc from a node to a fresh node and, later in
    the block, one `remove` of it, so the database keeps its size and
    every seed sends the same mix.  Returns a list of (request line, kind,
    expected) where `expected` is the BFS answer set of a query over the
    model edge set at that point, or None."""
    nodes = sorted(nodes)
    hot_set = r.sample(nodes, min(hot, len(nodes)))
    adj = adjacency(edges)
    fresh = nodes[-1]
    kinds = []
    for _ in range(count // 20):
        add, remove = sorted(r.sample(range(20), 2))
        kinds += ["add" if j == add else "remove" if j == remove else "query"
                  for j in range(20)]
    added = deque()
    out = []
    for i, kind in enumerate(kinds):
        if kind == "query":
            k = r.choice(hot_set) if r.random() < 0.8 else r.choice(nodes)
            req = {"id": i, "op": "query", "goal": f"anc({k}, X)"}
            out.append((json.dumps(req), kind, reach(adj, k)))
            continue
        if kind == "add":
            fresh += 1
            u, v = r.choice(nodes), fresh
            adj.setdefault(u, set()).add(v)
            added.append((u, v))
        else:
            u, v = added.popleft()
            adj[u].discard(v)
        req = {"id": i, "op": kind, "facts": [f"par({u}, {v})"]}
        out.append((json.dumps(req), kind, None))
    return out


def parse_pair(line):
    """`anc(a, b)` -> (a, b) as ints."""
    inner = line[line.index("(") + 1:line.rindex(")")]
    a, b = inner.split(",")
    return int(a), int(b)


def cli_answers(text):
    """Split `alexander_cli run` output into {goal: set of pairs} plus the
    `% incomplete` marker lines."""
    answers = {}
    notes = []
    goal = None
    for line in text.splitlines():
        if line.startswith("?- "):
            goal = line[3:].rstrip(".")
            answers[goal] = set()
        elif line.startswith("%"):
            notes.append(line)
        elif line and line != "no." and goal is not None:
            answers[goal].add(parse_pair(line))
    return answers, notes
