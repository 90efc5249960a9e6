"""Small TF-IDF toolkit: vectors, cosine, single-linkage clusters, medoids.

Tokens are lowercase alphanumeric runs. IDF is smoothed,
idf(t) = ln((1 + n) / (1 + df(t))) + 1, and vectors are L2-normalized, so
cosine similarity is a plain dot product.

Ranking a fixed pool against many queries goes through a TfidfIndex, built
once per pool. It keeps each document's terms in first-occurrence order with
the two weights each can take: the query either lacks the term (df) or has
it (df + 1), since the query joins the collection. A ranking takes the
query's term counts, so a query ranked against several pools is tokenised
once, and costs work in the pool's term count. Its sums and products run in
the order tfidf_vectors and cosine use, so every score, and every ranking, is
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
    term's df rises by one when the query has it.
    """

    def __init__(self, docs: Sequence[str]):
        counts = [term_counts(doc) for doc in docs]
        df: Counter = Counter()
        for c in counts:
            df.update(c.keys())
        n = len(docs) + 1
        # per term: (idf when the query lacks it, idf when it has it)
        self._idf = {t: (_idf(n, d), _idf(n, d + 1)) for t, d in df.items()}
        self._unseen_idf = _idf(n, 1)  # a query term no document has
        # per document, terms in first-occurrence order, each with its weight
        # and squared weight without and with the query
        self._docs: list[list[tuple[str, float, float, float, float]]] = []
        for c in counts:
            rows = []
            for t, tf in c.items():
                idf_without, idf_with = self._idf[t]
                w0, w1 = tf * idf_without, tf * idf_with
                rows.append((t, w0, w1, w0 * w0, w1 * w1))
            self._docs.append(rows)

    def cosines(self, query_terms: Counter) -> list[float]:
        """Cosine of each document to the query whose term_counts are given,
        bit-identical to cosine() over tfidf_vectors([query] + docs)."""
        query_vec = {}
        for t, tf in query_terms.items():
            idf = self._idf.get(t)
            query_vec[t] = tf * (idf[1] if idf else self._unseen_idf)
        # every weight is at least 1, so a norm is 0 only for an empty vector
        norm = math.sqrt(sum(w * w for w in query_vec.values()))
        query_vec = {t: w / norm for t, w in query_vec.items()}
        scores = []
        for rows in self._docs:
            picked = [(t, w1, s1) if t in query_vec else (t, w0, s0) for t, w0, w1, s0, s1 in rows]
            norm = math.sqrt(sum(s for _, _, s in picked))
            # cosine() iterates the smaller vector, the query on a tie
            if len(picked) < len(query_vec):
                scores.append(sum(w / norm * query_vec.get(t, 0.0) for t, w, _ in picked))
            else:
                doc_vec = {t: w / norm for t, w, _ in picked}
                scores.append(sum(w * doc_vec.get(t, 0.0) for t, w in query_vec.items()))
        return scores


def rank_by_similarity(query_terms: Counter, index: TfidfIndex) -> list[int]:
    """Indices of the index's documents sorted by descending cosine to the
    query whose term_counts are given; stable."""
    scores = index.cosines(query_terms)
    return sorted(range(len(scores)), key=lambda i: (-scores[i], i))
