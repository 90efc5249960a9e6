"""Small TF-IDF toolkit: vectors, cosine, single-linkage clusters, medoids.

Tokens are lowercase alphanumeric runs. IDF is smoothed,
idf(t) = ln((1 + n) / (1 + df(t))) + 1, and vectors are L2-normalized, so
cosine similarity is a plain dot product. Corpora here are tiny (a handful of
reason strings or shot files), so sparse dicts beat pulling in an array stack.

When every reason in a list is the same string (ten votes that agree),
dominant_representative returns it without clustering.
"""

from __future__ import annotations

import math
import re
from collections import Counter

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


def tfidf_vectors(docs: list[str]) -> list[dict[str, float]]:
    counts = [Counter(tokenize(doc)) for doc in docs]
    n = len(docs)
    df: Counter = Counter()
    for c in counts:
        df.update(c.keys())
    idf = {t: math.log((1 + n) / (1 + d)) + 1.0 for t, d in df.items()}
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


def rank_by_similarity(query: str, docs: list[str]) -> list[int]:
    """Indices of docs sorted by descending cosine to the query; stable."""
    vectors = tfidf_vectors([query] + docs)
    query_vec = vectors[0]
    scores = [cosine(query_vec, vec) for vec in vectors[1:]]
    return sorted(range(len(docs)), key=lambda i: (-scores[i], i))
