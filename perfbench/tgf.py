"""Independent reader for the .tgf text format and small interval helpers.

This module deliberately shares no code with the program: the benchmark's
inputs are generated and its outputs are checked against this reading of
the file, so a fault in the program's own loader cannot hide itself.
"""

import re

_WORD = re.compile(r"[A-Za-z0-9]+")


def label_words(label):
    """Lowercase alphanumeric words of a label (docs/query_syntax.md)."""
    return [w.lower() for w in _WORD.findall(label)]


def normalize(intervals):
    """Sorted closed intervals with overlapping and adjacent ones merged."""
    out = []
    for s, e in sorted(intervals):
        if s > e:
            continue
        if out and s <= out[-1][1] + 1:
            if e > out[-1][1]:
                out[-1] = (out[-1][0], e)
        else:
            out.append((s, e))
    return tuple(out)


def intersect(a, b):
    """Intersection of two normalized interval tuples."""
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        s = max(a[i][0], b[j][0])
        e = min(a[i][1], b[j][1])
        if s <= e:
            out.append((s, e))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return tuple(out)


def clip(intervals, timeline):
    return normalize((max(s, 0), min(e, timeline - 1)) for s, e in intervals)


class Graph:
    """Nodes and edges as parallel lists; ids are list positions."""

    def __init__(self, timeline):
        self.timeline = timeline
        self.node_label = []
        self.node_weight = []
        self.node_validity = []
        self.edge_src = []
        self.edge_dst = []
        self.edge_weight = []
        self.edge_validity = []

    @property
    def num_nodes(self):
        return len(self.node_label)

    @property
    def num_edges(self):
        return len(self.edge_src)

    def add_node(self, label, weight, validity):
        self.node_label.append(label)
        self.node_weight.append(weight)
        self.node_validity.append(validity)
        return len(self.node_label) - 1

    def add_edge(self, src, dst, weight, validity):
        self.edge_src.append(src)
        self.edge_dst.append(dst)
        self.edge_weight.append(weight)
        self.edge_validity.append(validity)
        return len(self.edge_src) - 1


def _parse_validity(token, timeline):
    if not token.startswith("@"):
        raise ValueError("validity must start with '@': %r" % token)
    if token == "@*":
        return ((0, timeline - 1),)
    pairs = re.findall(r"\[(-?\d+),(-?\d+)\]", token)
    if "".join("[%s,%s]" % p for p in pairs) != token[1:]:
        raise ValueError("bad validity %r" % token)
    return clip(((int(s), int(e)) for s, e in pairs), timeline)


def load_tgf(path):
    """Parses a .tgf file (docs/file_formats.md)."""
    graph = None
    with open(path, encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.lstrip().startswith("#"):
                continue
            if line.startswith("tgf "):
                continue
            if line.startswith("timeline "):
                graph = Graph(int(line.split()[1]))
                continue
            if graph is None:
                raise ValueError("%s:%d: record before timeline" % (path, lineno))
            if line.startswith("node "):
                parts = line.split(" ", 4)
                if int(parts[1]) != graph.num_nodes:
                    raise ValueError("%s:%d: node ids not dense" % (path, lineno))
                graph.add_node(parts[4] if len(parts) > 4 else "", float(parts[2]),
                               _parse_validity(parts[3], graph.timeline))
            elif line.startswith("edge "):
                parts = line.split()
                src, dst = int(parts[1]), int(parts[2])
                validity = _parse_validity(parts[4], graph.timeline)
                # Edges live within both endpoints (the kClamp policy).
                validity = intersect(validity, intersect(
                    graph.node_validity[src], graph.node_validity[dst]))
                graph.add_edge(src, dst, float(parts[3]), validity)
            else:
                raise ValueError("%s:%d: unknown record" % (path, lineno))
    if graph is None:
        raise ValueError("%s: no timeline record" % path)
    return graph
