"""Independent checker for /v1/search responses.

Reads the graph through perfbench/tgf.py (never through the program) and
checks every result of a response against it:

  * each result is a tree rooted at `root` whose listed edges join listed
    nodes;
  * keyword_nodes[i] matches keyword i: for a text query one of the node's
    lowercase label words equals the keyword, for a match-set query the
    node is in matches[i];
  * `time` equals the intersection of the validities of every listed node
    and edge, and is not empty; the query's predicate holds on it;
  * `total_weight` equals the summed node and edge weights;
  * results come in order under the query's ranking factors, recomputed
    from `time` and `total_weight`;
  * at most k results, and no tree twice.

Run `python3 perfbench/checker.py` for the self-test: doctored responses
that the checker must reject.
"""

import copy
import json
import re
import sys

import tgf

_RANK_FACTORS = (
    ("descending order of relevance", "relevance"),
    ("descending order of result end time", "end-time"),
    ("ascending order of result start time", "start-time"),
    ("descending order of duration", "duration"),
)
_PRED = re.compile(
    r"result time (precedes|follows|meets|overlaps|contains|contained by) "
    r"(?:(\d+)|\[(\d+),(\d+)\])$")


class Query:
    """The parts of a generated query text the checks need."""

    def __init__(self, text):
        ranking = []
        head = text
        if " rank by " in text:
            head, rank_text = text.split(" rank by ", 1)
            for part in rank_text.split(", "):
                names = [name for phrase, name in _RANK_FACTORS if part == phrase]
                if not names:
                    raise ValueError("unknown ranking factor %r" % part)
                ranking.append(names[0])
        self.ranking = ranking or ["relevance"]
        self.predicate = None
        if " result time " in head:
            head, pred = head.split(" result time ", 1)
            m = _PRED.match("result time " + pred)
            if not m:
                raise ValueError("unsupported predicate %r" % pred)
            if m.group(2) is not None:
                a = b = int(m.group(2))
            else:
                a, b = int(m.group(3)), int(m.group(4))
            self.predicate = (m.group(1), a, b)
        self.keywords = [k.strip().lower() for k in head.split(",")]


def predicate_holds(pred, time):
    op, a, b = pred
    first, last = time[0][0], time[-1][1]
    covered = lambda t: any(s <= t <= e for s, e in time)
    if op == "precedes":
        return first < a
    if op == "follows":
        return last > a
    if op == "meets":
        return covered(a) and a in (first, last)
    if op == "overlaps":
        return bool(tgf.intersect(time, ((a, b),)))
    if op == "contains":
        return tgf.intersect(time, ((a, b),)) == ((a, b),)
    if op == "contained by":
        return tgf.intersect(time, ((a, b),)) == time
    raise ValueError(op)


def rank_key(ranking, time, weight):
    """Larger is better in every component (src/search/ranking.h)."""
    key = []
    for factor in ranking:
        if factor == "relevance":
            key.append(-weight)
        elif factor == "end-time":
            key.append(time[-1][1])
        elif factor == "start-time":
            key.append(-time[0][0])
        else:
            key.append(sum(e - s + 1 for s, e in time))
    return key


class Checker:
    def __init__(self, graph):
        self.graph = graph
        self._words = {}

    def words(self, node):
        if node not in self._words:
            self._words[node] = set(tgf.label_words(self.graph.node_label[node]))
        return self._words[node]

    def check(self, request, body, num_nodes=None, num_edges=None):
        """Error strings for one response body (empty = it passed).

        num_nodes / num_edges bound the element ids the response may name
        (the size of the snapshot it was answered from).
        """
        g = self.graph
        num_nodes = g.num_nodes if num_nodes is None else num_nodes
        num_edges = g.num_edges if num_edges is None else num_edges
        try:
            doc = json.loads(body)
        except ValueError as e:
            return ["body is not JSON: %s" % e]
        if doc.get("status") != "ok":
            return ["status is %r" % doc.get("status")]
        query = Query(request["query"])
        matches = request.get("matches")
        results = doc.get("results", [])
        errors = []
        if doc.get("result_count") != len(results):
            errors.append("result_count %r != %d results"
                          % (doc.get("result_count"), len(results)))
        if len(results) > request["k"]:
            errors.append("%d results for k=%d" % (len(results), request["k"]))
        seen, keys = set(), []
        for r, res in enumerate(results):
            where = "result %d: " % r
            try:
                errs, key, sig = self._check_result(
                    res, query, matches, num_nodes, num_edges)
            except (KeyError, TypeError, ValueError, IndexError) as e:
                errs, key, sig = ["malformed (%r)" % e], None, None
            errors.extend(where + e for e in errs)
            if sig is not None:
                if sig in seen:
                    errors.append(where + "duplicate tree")
                seen.add(sig)
            keys.append(key)
        for r in range(1, len(keys)):
            if keys[r - 1] is not None and keys[r] is not None \
                    and keys[r - 1] < keys[r]:
                errors.append("results %d and %d out of rank order"
                              % (r - 1, r))
        return errors

    def _check_result(self, res, query, matches, num_nodes, num_edges):
        g = self.graph
        errors = []
        nodes, edges, root = res["nodes"], res["edges"], res["root"]
        node_set = set(nodes)
        for n in nodes:
            if not 0 <= n < num_nodes:
                return ["node %r outside the snapshot" % n], None, None
        for e in edges:
            if not 0 <= e < num_edges:
                return ["edge %r outside the snapshot" % e], None, None
        if len(node_set) != len(nodes):
            errors.append("repeated node")
        if root not in node_set:
            errors.append("root %d not listed" % root)
        parent = {}
        for e in edges:
            s, d = g.edge_src[e], g.edge_dst[e]
            if s not in node_set or d not in node_set:
                errors.append("edge %d (%d->%d) leaves the node list" % (e, s, d))
                continue
            if d in parent or d == root:
                errors.append("node %d entered twice" % d)
            parent[d] = s
        if len(edges) != len(nodes) - 1:
            errors.append("%d edges for %d nodes" % (len(edges), len(nodes)))
        for n in nodes:
            hops, cur = 0, n
            while cur != root and cur in parent and hops <= len(nodes):
                cur, hops = parent[cur], hops + 1
            if cur != root:
                errors.append("node %d not reached from root %d" % (n, root))
                break
        kw_nodes = res["keyword_nodes"]
        if len(kw_nodes) != len(query.keywords):
            errors.append("%d keyword nodes for %d keywords"
                          % (len(kw_nodes), len(query.keywords)))
        for i, n in enumerate(kw_nodes[:len(query.keywords)]):
            if n not in node_set:
                errors.append("keyword node %d not in the tree" % n)
            elif matches is not None:
                if n not in matches[i]:
                    errors.append("keyword node %d outside match set %d" % (n, i))
            elif query.keywords[i] not in self.words(n):
                errors.append("node %d does not carry keyword %r"
                              % (n, query.keywords[i]))
        expected = ((0, g.timeline - 1),)
        for n in nodes:
            expected = tgf.intersect(expected, g.node_validity[n])
        for e in edges:
            expected = tgf.intersect(expected, g.edge_validity[e])
        time = tuple((int(s), int(e)) for s, e in res["time"])
        if time != expected:
            errors.append("time %r != validity intersection %r"
                          % (list(time), list(expected)))
        if not time:
            errors.append("empty result time")
            return errors, None, None
        if query.predicate is not None and not predicate_holds(query.predicate, time):
            errors.append("predicate %r fails on %r" % (query.predicate, list(time)))
        weight = sum(g.node_weight[n] for n in nodes) + \
            sum(g.edge_weight[e] for e in edges)
        if abs(weight - res["total_weight"]) > 1e-6 * max(1.0, abs(weight)):
            errors.append("total_weight %r != %r" % (res["total_weight"], weight))
        key = rank_key(query.ranking, time, res["total_weight"])
        return errors, key, (root, tuple(sorted(edges)))


def apply_writes(graph, writes):
    """Applies acknowledged ingest bodies by the rules of docs/ingest.md:
    node validity defaults to the whole timeline and is clipped to it, node
    weight defaults to 0 and edge weight to 1, edge validity is intersected
    with both endpoints', and ids continue the base numbering."""
    whole = ((0, graph.timeline - 1),)
    for body in writes:
        first = graph.num_nodes
        for node in body.get("nodes", []):
            validity = node.get("validity")
            validity = whole if validity is None else tgf.clip(
                (tuple(v) for v in validity), graph.timeline)
            graph.add_node(node.get("label", ""), float(node.get("weight", 0.0)),
                           validity)
        for edge in body.get("edges", []):
            src = edge["src"] if "src" in edge else first + edge["src_new"]
            dst = edge["dst"] if "dst" in edge else first + edge["dst_new"]
            validity = edge.get("validity")
            validity = whole if validity is None else tgf.clip(
                (tuple(v) for v in validity), graph.timeline)
            validity = tgf.intersect(validity, tgf.intersect(
                graph.node_validity[src], graph.node_validity[dst]))
            graph.add_edge(src, dst, float(edge.get("weight", 1.0)), validity)


def doctored(checker, request, body):
    """(name, doctored body) pairs, each a fault the checker must catch.

    Needs a response with at least two results of distinct rank keys and a
    result with at least one edge; returns what it can build otherwise.
    """
    doc = json.loads(body)
    results = doc["results"]
    query = Query(request["query"])
    out = []

    def variant(name, mutate):
        d = copy.deepcopy(doc)
        if mutate(d["results"]) is not False:
            out.append((name, json.dumps(d)))

    def drop_edge(rs):
        for r in rs:
            if r["edges"]:
                r["edges"].pop()
                return True
        return False

    def widen_time(rs):
        s, e = rs[0]["time"][-1]
        rs[0]["time"][-1] = [s, e + 1]

    def swap_ranks(rs):
        keys = [rank_key(query.ranking, [tuple(t) for t in r["time"]],
                         r["total_weight"]) for r in rs]
        for i in range(1, len(rs)):
            if keys[i - 1] > keys[i]:
                rs[i - 1], rs[i] = rs[i], rs[i - 1]
                return True
        return False

    def foreign_keyword_node(rs):
        r = rs[0]
        if request.get("matches") is not None:
            outside = set(r["nodes"]) - set(request["matches"][0])
            if outside:
                r["keyword_nodes"][0] = min(outside)
                return True
            candidates = sorted(set(range(max(r["nodes"]) + 2))
                                - set(request["matches"][0]))
            r["keyword_nodes"][0] = candidates[0]
            r["nodes"] = sorted(set(r["nodes"]) | {candidates[0]})
            return True
        keyword = query.keywords[0]
        for n in r["nodes"]:
            if keyword not in checker.words(n):
                r["keyword_nodes"][0] = n
                return True
        return False

    def weight_off_by_one_edge(rs):
        for r in rs:
            if r["edges"]:
                r["total_weight"] += 1.0
                return True
        return False

    if results:
        variant("edge dropped", drop_edge)
        variant("time widened", widen_time)
        variant("two ranks swapped", swap_ranks)
        variant("keyword node outside its match", foreign_keyword_node)
        variant("total_weight off by one edge", weight_off_by_one_edge)
    return out


def self_test_on(checker, request, body):
    """Errors if `body` fails or any doctored copy of it passes."""
    problems = ["reference response rejected: %s" % e
                for e in checker.check(request, body)]
    cases = doctored(checker, request, body)
    names = {name for name, _ in cases}
    for name, bad in cases:
        if not checker.check(request, bad):
            problems.append("doctored response accepted: %s" % name)
    return problems, names


def _fixture():
    """A six-node graph and a correct two-result answer to 'a, b'."""
    g = tgf.Graph(10)
    g.add_node("root r", 0.0, ((0, 9),))        # 0
    g.add_node("alpha a", 1.0, ((0, 9),))       # 1
    g.add_node("beta b", 1.0, ((2, 9),))        # 2
    g.add_node("hub h", 0.5, ((0, 6),))         # 3
    g.add_node("alpha again a", 1.0, ((0, 4),))  # 4
    g.add_node("beta again b", 1.0, ((1, 5),))   # 5
    g.add_edge(0, 1, 1.0, ((0, 9),))  # 0
    g.add_edge(0, 2, 1.0, ((2, 8),))  # 1
    g.add_edge(3, 4, 1.0, ((0, 4),))  # 2
    g.add_edge(3, 5, 2.0, ((1, 5),))  # 3
    request = {"query": "a, b", "k": 3, "bound": "empirical",
               "matches": [[1, 4], [2, 5]]}
    body = json.dumps({"status": "ok", "result_count": 2, "results": [
        {"root": 0, "nodes": [0, 1, 2], "edges": [0, 1],
         "keyword_nodes": [1, 2], "time": [[2, 8]], "total_weight": 4.0},
        {"root": 3, "nodes": [3, 4, 5], "edges": [2, 3],
         "keyword_nodes": [4, 5], "time": [[1, 4]], "total_weight": 5.5},
    ]})
    return g, request, body


def self_test():
    """Problems found feeding the checker a fixture and doctored copies of
    it, once as a match-set and once as a text query (empty = passed)."""
    graph, request, body = _fixture()
    chk = Checker(graph)
    problems, names = self_test_on(chk, request, body)
    results = json.loads(body)["results"]
    text_request = {"query": "alpha, beta rank by ascending order of result "
                    "start time", "k": 3, "bound": "empirical"}
    text_body = json.dumps({"status": "ok", "result_count": 2,
                            "results": [results[1], results[0]]})
    text_problems, text_names = self_test_on(chk, text_request, text_body)
    problems += text_problems
    expected = {"edge dropped", "time widened", "two ranks swapped",
                "keyword node outside its match", "total_weight off by one edge"}
    for missing in sorted(expected - names) + sorted(expected - text_names):
        problems.append("could not build case: %s" % missing)
    return problems


def main():
    problems = self_test()
    for p in problems:
        print("FAIL", p)
    print("checker self-test: %s" % ("passed" if not problems else
                                     "%d problems" % len(problems)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
