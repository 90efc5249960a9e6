"""Small TF-IDF toolkit: vectors, cosine, single-linkage clusters, medoids.

Tokens are lowercase alphanumeric runs. IDF is smoothed,
idf(t) = ln((1 + n) / (1 + df(t))) + 1, and vectors are L2-normalized, so
cosine similarity is a plain dot product.

Every float sum is math.fsum, which rounds exactly once and so does not
depend on the order of its terms or on the Python version. Ranking a fixed
pool against many queries goes through a TfidfIndex, built once per pool; its
scores are bit-identical to building the vectors of [query] + docs per call.

When every reason in a list is the same string (ten votes that agree),
dominant_representative returns it without clustering.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Iterable, Sequence

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def term_counts(text: str) -> Counter:
    return Counter(tokenize(text))


def _idf(n: int, df: int) -> float:
    return math.log((1 + n) / (1 + df)) + 1.0


def tfidf_vectors(docs: list[str]) -> list[dict[str, float]]:
    counts = [term_counts(doc) for doc in docs]
    n = len(docs)
    df: Counter = Counter()
    for c in counts:
        df.update(c.keys())
    idf = {t: _idf(n, d) for t, d in df.items()}
    vectors = []
    for c in counts:
        vec = {t: tf * idf[t] for t, tf in c.items()}
        norm = math.sqrt(math.fsum(w * w for w in vec.values()))
        if norm > 0:
            vec = {t: w / norm for t, w in vec.items()}
        vectors.append(vec)
    return vectors


def cosine(u: dict[str, float], v: dict[str, float]) -> float:
    if len(v) < len(u):
        u, v = v, u
    return math.fsum(w * v.get(t, 0.0) for t, w in u.items())


def similarity_matrix(docs: list[str]) -> list[list[float]]:
    vectors = tfidf_vectors(docs)
    n = len(vectors)
    sims = [[0.0] * n for _ in range(n)]
    for i in range(n):
        sims[i][i] = 1.0
        for j in range(i + 1, n):
            s = cosine(vectors[i], vectors[j])
            sims[i][j] = sims[j][i] = s
    return sims


def single_linkage_clusters(sims: list[list[float]], threshold: float) -> list[list[int]]:
    """Union-find single-linkage: any pair at or above the threshold merges."""
    n = len(sims)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if sims[i][j] >= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return [groups[root] for root in sorted(groups)]


def _first_best(ranked: Iterable[tuple[int, float, int]]) -> int:
    """The item of the best (size, score, item) triple: the largest size, then the
    highest score, where scores within 1e-12 tie; a tie goes to the earliest."""
    best = None
    for size, score, item in ranked:
        if best is None or size > best[0] or (size == best[0] and score > best[1] + 1e-12):
            best = (size, score, item)
    return best[2]


def medoid(cluster: list[int], sims: list[list[float]]) -> int:
    """Member with the highest total similarity to its cluster; first wins near ties."""
    return _first_best((1, math.fsum(sims[i][j] for j in cluster), i) for i in cluster)


def dominant_representative(docs: list[str], threshold: float = 0.4) -> str:
    """The medoid of the largest cluster; size ties go to the cluster whose
    medoid is most tightly connected, and tightness within 1e-12 ties, going
    to the earliest cluster."""
    if not docs:
        raise ValueError("no documents to cluster")
    if docs.count(docs[0]) == len(docs):
        return docs[0]
    sims = similarity_matrix(docs)
    ranked = []
    for cluster in single_linkage_clusters(sims, threshold):
        rep = medoid(cluster, sims)
        ranked.append((len(cluster), math.fsum(sims[rep][j] for j in cluster), rep))
    return docs[_first_best(ranked)]


class TfidfIndex:
    """TF-IDF statistics of a fixed pool of documents, for rank_by_similarity.

    The query counts as one more document: n is len(docs) + 1, and a pool
    term's df rises by one when the query has it. The index keeps each
    document's squared weights without the query, in first-occurrence
    order, and postings: term -> (document, position, weight and squared
    weight with the query). A ranking overwrites the shared terms' squares
    in a copy for the norm and sums the dot product over shared terms only.
    The index keeps nothing per call, so threads share it.
    """

    def __init__(self, docs: Sequence[str]):
        counts = [term_counts(doc) for doc in docs]
        df = Counter(t for c in counts for t in c)
        n = len(docs) + 1
        self._idf = {t: _idf(n, d + 1) for t, d in df.items()}  # with the query
        self._unseen_idf = _idf(n, 1)  # a query term no document has
        self._squares: list[list[float]] = []
        self._postings: dict[str, list[tuple[int, int, float, float]]] = {}
        for doc, c in enumerate(counts):
            squares = []
            for pos, (t, tf) in enumerate(c.items()):
                w0, w1 = tf * _idf(n, df[t]), tf * self._idf[t]
                squares.append(w0 * w0)
                self._postings.setdefault(t, []).append((doc, pos, w1, w1 * w1))
            self._squares.append(squares)

    def cosines(self, query_terms: Counter) -> list[float]:
        """Cosine of each document to the query whose term_counts are given,
        bit-identical to cosine() over tfidf_vectors([query] + docs)."""
        weights = [tf * self._idf.get(t, self._unseen_idf) for t, tf in query_terms.items()]
        # every weight is at least 1, so a norm is 0 only for an empty vector
        norm = math.sqrt(math.fsum([w * w for w in weights]))
        squares_of = [squares.copy() for squares in self._squares]
        hits_of: list[list[tuple[float, float]]] = [[] for _ in self._squares]
        for t, q in zip(query_terms, weights):
            q /= norm
            for doc, pos, w, s in self._postings.get(t, ()):
                squares_of[doc][pos] = s
                hits_of[doc].append((w, q))
        scores = []
        for squares, hits in zip(squares_of, hits_of):
            norm = math.sqrt(math.fsum(squares))  # 0 only for an empty document, which has no hits
            scores.append(math.fsum([w / norm * q for w, q in hits]))
        return scores


def rank_by_similarity(query_terms: Counter, index: TfidfIndex) -> list[int]:
    """Indices of the index's documents sorted by descending cosine to the
    query whose term_counts are given; the sort is stable, reversed too."""
    scores = index.cosines(query_terms)
    return sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
