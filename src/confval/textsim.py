"""Small TF-IDF toolkit: vectors, cosine, single-linkage clusters, medoids.

Tokens are lowercase alphanumeric runs. IDF is smoothed,
idf(t) = ln((1 + n) / (1 + df(t))) + 1, and vectors are L2-normalized, so
cosine similarity is a plain dot product.

Ranking a fixed pool against many queries goes through a TfidfIndex, built
once per pool. On each Python version its scores, and so every ranking, are
bit-identical to building the vectors of [query] + docs per call.

When every reason in a list is the same string (ten votes that agree),
dominant_representative returns it without clustering.
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Sequence

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
        norm = math.sqrt(sum(w * w for w in vec.values()))
        if norm > 0:
            vec = {t: w / norm for t, w in vec.items()}
        vectors.append(vec)
    return vectors


def cosine(u: dict[str, float], v: dict[str, float]) -> float:
    if len(v) < len(u):
        u, v = v, u
    return sum(w * v.get(t, 0.0) for t, w in u.items())


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


def medoid(cluster: list[int], sims: list[list[float]]) -> int:
    """Member with the highest total similarity to its cluster; first wins ties."""
    best = cluster[0]
    best_score = -1.0
    for i in cluster:
        score = sum(sims[i][j] for j in cluster)
        if score > best_score + 1e-12:
            best, best_score = i, score
    return best


def dominant_representative(docs: list[str], threshold: float = 0.4) -> str:
    """The medoid of the largest cluster; size ties go to the cluster whose
    medoid is most tightly connected, then to the earliest cluster."""
    if not docs:
        raise ValueError("no documents to cluster")
    if docs.count(docs[0]) == len(docs):
        return docs[0]
    sims = similarity_matrix(docs)
    clusters = single_linkage_clusters(sims, threshold)
    best_cluster = None
    best_rank: tuple[float, float] | None = None
    for cluster in clusters:
        rep = medoid(cluster, sims)
        rank = (float(len(cluster)), sum(sims[rep][j] for j in cluster))
        if best_rank is None or rank > best_rank:
            best_cluster, best_rank = cluster, rank
    return docs[medoid(best_cluster, sims)]


class TfidfIndex:
    """TF-IDF statistics of a fixed pool of documents, for rank_by_similarity.

    The query counts as one more document: n is len(docs) + 1, and a pool
    term's df rises by one when the query has it. The index keeps each
    document's squared weights without the query, in first-occurrence
    order, and postings: term -> (document, position, weight and squared
    weight with the query). A ranking overwrites the shared terms' squares
    in a copy for the norm and sums the dot product over shared terms only,
    in cosine()'s order. A skipped term would add +0.0, which leaves a float
    sum (3.12's compensated sum() too) bit-identical. The index keeps
    nothing per call, so threads share it.
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
        norm = math.sqrt(sum([w * w for w in weights]))
        squares_of = [squares.copy() for squares in self._squares]
        hits_of: list[list[tuple[int, float, float]]] = [[] for _ in self._squares]
        for t, q in zip(query_terms, weights):
            q /= norm
            for doc, pos, w, s in self._postings.get(t, ()):
                squares_of[doc][pos] = s
                hits_of[doc].append((pos, w, q))
        scores = []
        for squares, hits in zip(squares_of, hits_of):
            norm = math.sqrt(sum(squares))  # 0 only for an empty document, which has no hits
            # in document order when it is the smaller vector, as cosine() sums
            if len(squares) < len(weights):
                hits.sort()
            scores.append(sum([w / norm * q for _, w, q in hits], 0.0))
        return scores


def rank_by_similarity(query_terms: Counter, index: TfidfIndex) -> list[int]:
    """Indices of the index's documents sorted by descending cosine to the
    query whose term_counts are given; the sort is stable, reversed too."""
    scores = index.cosines(query_terms)
    return sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
