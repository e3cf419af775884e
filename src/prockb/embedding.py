"""Dense text vectors for stage-1 similarity, and the one vector table.

Two sources: a built-in deterministic embedder that averages signed hashed
character n-grams (n in 3..5), and a plain text file of vectors produced by
any external sentence encoder. Both feed the same cosine-based retrieval.

Embeddings, the stage-1 goal index and pair-feature files are each one
`EmbeddingStore`: ids in row order and one float64 matrix with a row per id.
"""

import hashlib
import math
from pathlib import Path
from typing import Sequence

import numpy as np

from .artifacts import read_vectors, write_vectors
from .corpus import Corpus

NGRAM_SIZES = (3, 4, 5)
MIN_DIM = 8


class _SignedBuckets(dict):
    """n-gram -> signed bucket under one (dim, seed): the n-gram's 64-bit
    blake2b digest keyed by the seed gives bucket ``h % dim`` and sign ``+``
    when the top bit is set, ``-`` otherwise, stored as ``±(bucket + 1)``.
    Each n-gram is hashed on first use; the hasher is a copy of one keyed
    state, which gives the same digest as keying a new one."""

    def __init__(self, dim: int, seed: int):
        super().__init__()
        self.dim = dim
        self.seed = seed
        key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
        self._keyed = hashlib.blake2b(digest_size=8, key=key)

    def __missing__(self, gram: str) -> int:
        hasher = self._keyed.copy()
        hasher.update(gram.encode("utf-8"))
        h = int.from_bytes(hasher.digest(), "little")
        bucket = h % self.dim + 1
        signed = self[gram] = bucket if h & (1 << 63) else -bucket
        return signed


def unit(vec: np.ndarray) -> np.ndarray:
    """`vec` over its Euclidean norm, or `vec` itself when the norm is 0: the
    one vector normalisation of stage 1. A nonzero vector whose squared norm
    is not a normal float is first divided by its largest magnitude."""
    square = float(np.vdot(vec, vec))  # `vec @ vec` bit for bit, without an overflow warning
    if not 2.0**-1022 <= square < math.inf and vec.any():
        vec = vec / np.abs(vec).max()
        square = float(np.vdot(vec, vec))
    return vec / math.sqrt(square) if square else vec


def embed_text(
    text: str,
    dim: int,
    seed: int = 0,
    lowercase: bool = False,
    buckets: _SignedBuckets | None = None,
) -> np.ndarray:
    """Embed text as the mean of signed hashed char n-grams, L2-normalized.

    Identical (text, dim, seed) always yields an identical vector, on any
    platform. Empty text yields the zero vector (cosine against it is 0).
    `buckets` is a memo of n-gram hashes for the same dim and seed, shared
    by the texts of one `embed_corpus` call. The ±1 sums are exact integers,
    so adding them in any order gives the same vector.
    """
    if dim < MIN_DIM:
        raise ValueError(f"dim must be >= {MIN_DIM}, got {dim}")
    if buckets is None:
        buckets = _SignedBuckets(dim, seed)
    elif (buckets.dim, buckets.seed) != (dim, seed):
        raise ValueError(f"n-gram memo is for dim={buckets.dim}, seed={buckets.seed}, "
                         f"not dim={dim}, seed={seed}")
    if not text:
        return np.zeros(dim, dtype=np.float64)
    if lowercase:
        text = text.lower()
    padded = f"<{text}>"
    grams = [padded[i : i + n] for n in NGRAM_SIZES for i in range(len(padded) - n + 1)]
    signed = np.fromiter(map(buckets.__getitem__, grams), dtype=np.int64, count=len(grams))
    vec = np.bincount(np.abs(signed) - 1, weights=np.sign(signed), minlength=dim)
    return unit(vec / len(grams))


class EmbeddingStore:
    """Immutable vector table: `ids` in row order, `row` (id -> row) and one
    float64 `matrix` of shape (len(ids), dim). An id is a string, or for
    pair features a (step_id, goal_id) tuple."""

    def __init__(self, ids: Sequence, matrix: np.ndarray):
        self.ids = list(ids)
        self.row = {row_id: row for row, row_id in enumerate(self.ids)}
        self.matrix = matrix

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __len__(self) -> int:
        return len(self.ids)

    def __contains__(self, key) -> bool:
        return key in self.row

    def __getitem__(self, key) -> np.ndarray:
        return self.matrix[self.row[key]]  # a KeyError names the id


def embed_corpus(corpus: Corpus, dim: int, seed: int = 0, lowercase: bool = False) -> EmbeddingStore:
    """Embed every goal title and step text with the built-in embedder,
    hashing each distinct n-gram once; rows are in corpus order, each goal
    before its steps."""
    buckets = _SignedBuckets(dim, seed)
    texts: dict[str, str] = {}
    for article in corpus.articles:
        texts[article.goal_id] = article.title
        texts.update((step.step_id, step.text) for step in article.steps)
    rows = (embed_text(text, dim, seed, lowercase, buckets) for text in texts.values())
    return EmbeddingStore(texts, np.fromiter(rows, np.dtype((np.float64, dim)), len(texts)))


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Read a vector file: header ``dim=<d>``, then rows ``id v1 ... vd``."""
    return EmbeddingStore(*read_vectors(path, 1))


def save_embeddings(store: EmbeddingStore, path: str | Path) -> None:
    write_vectors(path, store.dim, zip(store.ids, store.matrix))
