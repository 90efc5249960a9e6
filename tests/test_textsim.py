import hashlib
import math
from itertools import permutations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from confval import textsim
from confval.misconfig_gen import Label
from confval.prompting import shot_db_from
from confval.textsim import (
    TfidfIndex,
    cosine,
    dominant_representative,
    medoid,
    rank_by_similarity,
    similarity_matrix,
    single_linkage_clusters,
    term_counts,
    tfidf_vectors,
    tokenize,
)


def hand_tfidf_cosine(docs):
    """Independent arithmetic oracle: raw-count TF, idf=ln((1+n)/(1+df))+1,
    L2 normalization, dot-product cosine."""
    token_lists = [tokenize(d) for d in docs]
    vocabulary = sorted({t for tokens in token_lists for t in tokens})
    n = len(docs)
    df = {t: sum(1 for tokens in token_lists if t in tokens) for t in vocabulary}
    rows = []
    for tokens in token_lists:
        weights = []
        for t in vocabulary:
            tf = tokens.count(t)
            weights.append(tf * (math.log((1 + n) / (1 + df[t])) + 1.0))
        norm = math.sqrt(sum(w * w for w in weights))
        rows.append([w / norm if norm else 0.0 for w in weights])
    sims = [[sum(a * b for a, b in zip(u, v)) for v in rows] for u in rows]
    return sims


def test_similarity_matches_hand_computation():
    docs = ["port out of range", "port value out of range", "file missing entirely"]
    ours = similarity_matrix(docs)
    oracle = hand_tfidf_cosine(docs)
    for i in range(3):
        for j in range(3):
            assert abs(ours[i][j] - oracle[i][j]) < 1e-12


def test_dominant_cluster_beats_outlier():
    docs = ["port out of range", "port value out of range", "file missing"]
    sims = hand_tfidf_cosine(docs)
    assert sims[0][1] >= 0.4  # the two port reasons merge
    assert sims[0][2] < 0.4 and sims[1][2] < 0.4
    representative = dominant_representative(docs)
    assert representative in docs[:2]
    # medoid of the pair: equal intra sums, earliest index wins
    assert representative == docs[0]


def test_equal_size_tie_prefers_tighter_cluster():
    docs = ["alpha beta gamma", "alpha beta delta", "omega psi", "omega psi"]
    representative = dominant_representative(docs)
    assert representative == "omega psi"


def test_near_tie_in_tightness_goes_to_the_earliest_cluster():
    # both pairs are identical strings, but one pair's cosine rounds to just
    # under 1.0 and the other's to 1.0: a tie all the same
    docs = ["port out of range"] * 2 + ["value of p looks wrong"] * 2 + ["file missing entirely"]
    assert dominant_representative(docs) == "port out of range"


def test_identical_reasons_collapse():
    docs = ["same reason"] * 5
    assert dominant_representative(docs) == "same reason"


def test_single_document_is_its_own_representative():
    assert dominant_representative(["only"]) == "only"


def test_single_linkage_transitivity():
    # a~b and b~c merge all three even when a and c are far apart
    sims = [
        [1.0, 0.9, 0.1],
        [0.9, 1.0, 0.5],
        [0.1, 0.5, 1.0],
    ]
    clusters = single_linkage_clusters(sims, threshold=0.4)
    assert clusters == [[0, 1, 2]]


def test_medoid_prefers_central_member():
    sims = [
        [1.0, 0.8, 0.1],
        [0.8, 1.0, 0.6],
        [0.1, 0.6, 1.0],
    ]
    assert medoid([0, 1, 2], sims) == 1


def test_rank_by_similarity_orders_by_overlap():
    query = "server port timeout"
    docs = ["disk cache eviction", "server port timeout", "server port"]
    order = rank_by_similarity(term_counts(query), TfidfIndex(docs))
    assert order[0] == 1
    assert order[-1] == 0


# --- reference: the clustering as it was before equal documents were short-cut ---


def _reference_dominant_representative(docs, threshold=0.4):
    if len(docs) == 1:
        return docs[0]
    sims = similarity_matrix(docs)
    clusters = single_linkage_clusters(sims, threshold)
    best_cluster = None
    best_rank = None
    for cluster in clusters:
        rep = medoid(cluster, sims)
        size, tightness = len(cluster), math.fsum(sims[rep][j] for j in cluster)
        # sizes compare exactly, tightness within 1e-12 ties, and the earlier cluster wins a tie
        if best_rank is None or size > best_rank[0] or (size == best_rank[0] and tightness > best_rank[1] + 1e-12):
            best_cluster, best_rank = cluster, (size, tightness)
    return docs[medoid(best_cluster, sims)]


REASON_POOL = [
    "port out of range",
    "port value out of range",
    "Port OUT of range!",
    "range port out",
    "value of p looks wrong",
    "file missing entirely",
    "alpha beta gamma",
    "alpha beta delta",
    "!!!",
    "",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(REASON_POOL), min_size=1, max_size=12))
@example(["port out of range"] * 2 + ["value of p looks wrong"] * 2 + ["file missing entirely"])
def test_matches_reference_on_repeated_documents(docs):
    assert dominant_representative(docs) == _reference_dominant_representative(docs)


def test_equal_documents_skip_clustering(monkeypatch):
    def unexpected(docs):
        raise AssertionError("clustered a list of equal documents")

    monkeypatch.setattr(textsim, "similarity_matrix", unexpected)
    assert dominant_representative(["same reason"] * 10) == "same reason"
    assert dominant_representative(["!!!"] * 3) == "!!!"


# --- reference: ranking as it was before the pool's statistics were indexed ---


def _reference_rank_by_similarity(query, docs):
    vectors = tfidf_vectors([query] + docs)
    query_vec = vectors[0]
    scores = [cosine(query_vec, vec) for vec in vectors[1:]]
    return sorted(range(len(docs)), key=lambda i: (-scores[i], i))


# few words, so documents repeat terms and share them, and scores tie; the
# permuted documents hold equal terms in another order, and must tie exactly
RANK_WORDS = ["port", "dfs", "replication", "timeout", "server", "cache", "ms", "1", "!!!", ""]
rank_documents = st.lists(st.sampled_from(RANK_WORDS), max_size=6).map(" ".join)


@st.composite
def rank_pools(draw):
    shared = draw(st.lists(st.sampled_from(RANK_WORDS), min_size=3, max_size=6))
    permuted = st.permutations(shared).map(" ".join)
    return draw(st.lists(st.one_of(rank_documents, permuted), min_size=1, max_size=15))


def hex_scores(scores):
    return [float(s).hex() for s in scores]


@settings(max_examples=500, deadline=None)
@given(st.one_of(rank_documents, st.permutations(RANK_WORDS[:6]).map(" ".join)), rank_pools())
# cosine() sums over the smaller vector, the index over the shared terms in
# query order; each example gives the two sums different lengths or orders
@example("port dfs replication timeout server cache", ["port ms", "cache server timeout"])  # smaller document
@example("port dfs", ["dfs port timeout", "port dfs ms 1"])  # smaller query
@example("port dfs replication", ["replication dfs port", "port"])  # a tie in length
@example("port dfs", ["cache ms", "port"])  # a document sharing no term with the query
@example("port dfs", ["", "!!!", "dfs"])  # empty documents
@example("", ["port dfs", "cache"])  # an empty query
@example("!!!", ["", "port"])  # a query and a document without a token
def test_index_ranking_matches_reference(query, docs):
    index = TfidfIndex(docs)
    terms = term_counts(query)
    assert rank_by_similarity(terms, index) == _reference_rank_by_similarity(query, docs)
    vectors = tfidf_vectors([query] + docs)
    reference = [cosine(vectors[0], vec) for vec in vectors[1:]]
    assert index.cosines(terms) == reference
    # bit for bit, not only equal
    assert hex_scores(index.cosines(terms)) == hex_scores(reference)
    # the index serves every query alike: a second one sees no state of the first
    assert rank_by_similarity(term_counts(docs[0]), index) == _reference_rank_by_similarity(docs[0], docs)


# --- pinned: the same scores and representatives on every Python version ---

# sha256 over the hex of every score TfidfIndex.cosines gives the six demo
# corpora's eval files against their own and the other projects' shot pools
SIX_DATASETS_COSINES_SHA256 = "43189a7ad08ddc249f3eb8685ff346c3a9fa6f6bbbbb553c53a50c06f93ac07f"
# sha256 over the representatives of the pools below, one a line
REPRESENTATIVES_SHA256 = "ad5c26f215729765136f7959fee851e7adbbf2ea48fb7ffb95b7c98e2828463c"


def test_cosine_scores_are_pinned(six_datasets):
    db = shot_db_from(split for _, split in six_datasets.values())
    digest = hashlib.sha256()
    for project, (_, split) in six_datasets.items():
        for labeled in split.eval_set:
            terms = term_counts(" ".join(labeled.file.names()))
            for label in Label:
                for which in (0, 1):  # the own project's pool, then the others'
                    index = db.index(project, label, which)
                    digest.update(" ".join(hex_scores(index.cosines(terms))).encode() + b"\n")
    assert digest.hexdigest() == SIX_DATASETS_COSINES_SHA256


def test_representatives_are_pinned():
    # repeated reasons make clusters of one size whose tightness can differ
    # only by rounding, so the tie rule picks among them
    pools = [[a] * 2 + [b] * 2 + [c] for a, b, c in permutations(REASON_POOL, 3)]
    pools += [[a] * k + [b] * k for a, b in permutations(REASON_POOL, 2) for k in (2, 3)]
    representatives = "\n".join(dominant_representative(docs) for docs in pools)
    assert hashlib.sha256(representatives.encode()).hexdigest() == REPRESENTATIVES_SHA256
