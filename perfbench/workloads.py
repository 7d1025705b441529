"""Seeded request generation for the three served workloads.

Everything here is a pure function of the graph file and the seeds, drawn
from a self-contained SplitMix64 generator, so the same seed gives the same
requests on every Python version.

Each workload has a fixed query *population* (drawn once from
POPULATION_SEED, recorded in README.md) and a per-run *schedule* drawn from
the run's --seed: the order of the population in every round (dblp-search,
social-live), the Zipf-popular request stream (social-hot), and the live
writes (social-live). The population stays fixed because a handful of its
queries set the latency tail; drawing a fresh population per run would make
the tail, not the program, decide the figures.
"""

import bisect
import json

import tgf

MASK = (1 << 64) - 1

POPULATION_SEED = 20180416

RANKINGS = (
    ("relevance", ""),
    ("end-time", " rank by descending order of result end time"),
    ("start-time", " rank by ascending order of result start time"),
    ("duration", " rank by descending order of duration"),
)

# dblp validity is append-only (every element lives from its year to the
# last instant), so only predicates that most keyword sets can meet are
# drawn. "meets" and "contained by" hold only for trees made wholly of
# recent elements; a query that few or no trees satisfy makes the search
# exhaust the graph (minutes per query, see CHANGES.md).
PREDICATE_OPS = ("precedes", "follows", "overlaps", "contains")

# Type words name every paper, author or venue; keywords are drawn from the
# title and name vocabulary, which carries the keyword selectivity.
DBLP_TYPE_WORDS = ("paper", "author", "venue")
DBLP_MIN_POSTINGS = 20
DBLP_QUERIES = 192
DBLP_K = 3

SOCIAL_HOT_QUERIES = 200
SOCIAL_HOT_ROUND = 500
SOCIAL_LIVE_QUERIES = 192
SOCIAL_K = 10
MATCHES_MIN, MATCHES_MAX = 50, 400

# Live writes: one node per batch, linked both ways to one base node and to
# the previously written node. The writer sends one write per completed
# read and compacts after every COMPACT_EVERY acknowledged writes:
# one compaction per round of the social-live population.
LIVE_WRITES = 6000
COMPACT_EVERY = 192

SCHEDULE_ROUNDS = 64


class Rng:
    """SplitMix64; stable across Python versions, unlike `random`."""

    def __init__(self, seed):
        self.state = seed & MASK

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        return z ^ (z >> 31)

    def below(self, n):
        return self.next() % n

    def between(self, lo, hi):
        return lo + self.below(hi - lo + 1)

    def uniform(self):
        return (self.next() >> 11) / float(1 << 53)

    def shuffled(self, items):
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def sample(self, n, k):
        """k distinct integers from range(n), in draw order."""
        chosen, out = set(), []
        while len(out) < k:
            v = self.below(n)
            if v not in chosen:
                chosen.add(v)
                out.append(v)
        return out


class Zipf:
    """Rank sampler with P(rank r) proportional to 1 / (r + 1)^s."""

    def __init__(self, n, s=1.0):
        self.cdf = []
        total = 0.0
        for r in range(n):
            total += 1.0 / (r + 1) ** s
            self.cdf.append(total)

    def draw(self, rng):
        return bisect.bisect_left(self.cdf, rng.uniform() * self.cdf[-1])


def _predicate(rng, timeline):
    """A random predicate over the middle 80% of the timeline."""
    op = PREDICATE_OPS[rng.below(len(PREDICATE_OPS))]
    lo, hi = timeline // 10, timeline - 1 - timeline // 10
    a = rng.between(lo, hi)
    if op in ("precedes", "follows"):
        return " result time %s %d" % (op, a)
    max_len = max(2, timeline // 10) if op == "contains" else max(4, timeline // 2)
    b = min(a + 1 + rng.below(max_len), timeline - 1)
    return " result time %s [%d,%d]" % (op, a, b)


def _search(text, k, matches=None):
    body = {"query": text, "k": k, "bound": "empirical"}
    if matches is not None:
        body["matches"] = matches
    return body


def dblp_population(graph):
    """2-4 keyword queries answered through the inverted index.

    The first keyword is drawn Zipf over the vocabulary (words in at least
    DBLP_MIN_POSTINGS labels, by frequency); the others Zipf over the words
    of a node carrying it and of that node's neighbours, so each query names
    terms that occur together the way a reader's would.
    """
    rng = Rng(POPULATION_SEED)
    postings = {}
    for n, label in enumerate(graph.node_label):
        for w in set(tgf.label_words(label)):
            postings.setdefault(w, []).append(n)
    eligible = lambda w: (len(postings[w]) >= DBLP_MIN_POSTINGS
                          and w not in DBLP_TYPE_WORDS)
    by_freq = lambda ws: sorted(ws, key=lambda w: (-len(postings[w]), w))
    vocab = by_freq(w for w in postings if eligible(w))
    vocab_zipf = Zipf(len(vocab))
    neighbours = [[] for _ in range(graph.num_nodes)]
    for s, d in zip(graph.edge_src, graph.edge_dst):
        neighbours[s].append(d)
        neighbours[d].append(s)
    out = []
    for i in range(DBLP_QUERIES):
        first = vocab[vocab_zipf.draw(rng)]
        node = postings[first][rng.below(len(postings[first]))]
        near = {w for v in [node] + neighbours[node]
                for w in tgf.label_words(graph.node_label[v]) if eligible(w)}
        near = by_freq(near - {first})
        keywords = [first]
        want = rng.between(2, 4)
        pools = [(near, Zipf(len(near)))] if near else []
        pools.append((vocab, vocab_zipf))
        for words, zipf in pools:
            for _ in range(64):
                if len(keywords) == want:
                    break
                w = words[zipf.draw(rng)]
                if w not in keywords:  # The parser folds repeated keywords.
                    keywords.append(w)
        text = ", ".join(keywords)
        if rng.below(4) == 0:
            text += _predicate(rng, graph.timeline)
        text += RANKINGS[i % len(RANKINGS)][1]
        out.append(_search(text, DBLP_K))
    return out


def social_population(graph, count, salt):
    """Match-set queries: 2-4 placeholder keywords with explicit matches."""
    rng = Rng(POPULATION_SEED ^ salt)
    out = []
    for i in range(count):
        m = rng.between(2, 4)
        matches = [sorted(rng.sample(graph.num_nodes,
                                     rng.between(MATCHES_MIN, MATCHES_MAX)))
                   for _ in range(m)]
        text = ", ".join("kw%d" % j for j in range(m))
        text += RANKINGS[i % len(RANKINGS)][1]
        out.append(_search(text, SOCIAL_K, matches))
    return out


def round_schedule(rng, population_size, rounds=SCHEDULE_ROUNDS):
    """Every round sends each population member once, in a fresh order."""
    return [rng.shuffled(range(population_size)) for _ in range(rounds)]


def zipf_schedule(rng, population_size, rounds=SCHEDULE_ROUNDS):
    zipf = Zipf(population_size)
    return [[zipf.draw(rng) for _ in range(SOCIAL_HOT_ROUND)]
            for _ in range(rounds)]


def live_writes(graph, rng, seed):
    """(word, body) per write; each write adds one node (docs/ingest.md)."""
    writes = []
    prev = None  # (absolute id, validity) of the previous write
    for i in range(LIVE_WRITES):
        word = "pbs%dw%d" % (seed, i)
        base = rng.below(graph.num_nodes)
        span = graph.node_validity[base][rng.below(len(graph.node_validity[base]))]
        s = rng.between(span[0], span[1])
        e = rng.between(s, span[1])
        validity = ((s, e),)
        node = {"label": "%s ingest" % word, "weight": 0.0,
                "validity": [list(v) for v in validity]}
        edges = [{"src_new": 0, "dst": base, "validity": [[s, e]]},
                 {"src": base, "dst_new": 0, "validity": [[s, e]]}]
        if prev is not None:
            both = tgf.intersect(validity, prev[1])
            if both:
                iv = [list(v) for v in both]
                edges.append({"src_new": 0, "dst": prev[0], "validity": iv})
                edges.append({"src": prev[0], "dst_new": 0, "validity": iv})
        writes.append((word, {"nodes": [node], "edges": edges}))
        prev = (graph.num_nodes + i, validity)
    return writes


def dumps(body):
    return json.dumps(body, separators=(",", ":"), sort_keys=False)
