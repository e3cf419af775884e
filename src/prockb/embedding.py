"""Dense text vectors for stage-1 similarity.

Two sources: a built-in deterministic embedder that averages signed hashed
character n-grams (n in 3..5), and a plain text file of vectors produced by
any external sentence encoder. Both feed the same cosine-based retrieval.
"""

import hashlib
import math
from pathlib import Path

import numpy as np

from .artifacts import read_vectors, write_vectors
from .corpus import Corpus

NGRAM_SIZES = (3, 4, 5)
MIN_DIM = 8


def _hash64(data: bytes, seed: int) -> int:
    key = (seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    digest = hashlib.blake2b(data, digest_size=8, key=key).digest()
    return int.from_bytes(digest, "little")


def embed_text(text: str, dim: int, seed: int = 0, lowercase: bool = False) -> np.ndarray:
    """Embed text as the mean of signed hashed char n-grams, L2-normalized.

    Identical (text, dim, seed) always yields an identical vector, on any
    platform. Empty text yields the zero vector (cosine against it is 0).
    """
    if dim < MIN_DIM:
        raise ValueError(f"dim must be >= {MIN_DIM}, got {dim}")
    vec = np.zeros(dim, dtype=np.float64)
    if not text:
        return vec
    if lowercase:
        text = text.lower()
    padded = f"<{text}>"
    count = 0
    for n in NGRAM_SIZES:
        for i in range(len(padded) - n + 1):
            h = _hash64(padded[i : i + n].encode("utf-8"), seed)
            sign = 1.0 if h & (1 << 63) else -1.0
            vec[h % dim] += sign
            count += 1
    vec /= count
    norm = math.sqrt(float(vec @ vec))
    if norm > 0.0:
        vec /= norm
    return vec


def cosine(u, v) -> float:
    """Cosine similarity; 0 if either vector has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    nu = math.sqrt(float(u @ u))
    nv = math.sqrt(float(v @ v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    c = float(u @ v) / (nu * nv)
    return max(-1.0, min(1.0, c))


class EmbeddingStore:
    """Immutable id -> vector map with a single dimension."""

    def __init__(self, dim: int, vectors: dict[str, np.ndarray]):
        self.dim = dim
        self._vectors = vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def __contains__(self, key: str) -> bool:
        return key in self._vectors

    def __getitem__(self, key: str) -> np.ndarray:
        try:
            return self._vectors[key]
        except KeyError:
            raise KeyError(f"no embedding for id {key!r}") from None

    def ids(self) -> list[str]:
        return list(self._vectors)


def embed_corpus(corpus: Corpus, dim: int, seed: int = 0, lowercase: bool = False) -> EmbeddingStore:
    """Embed every goal title and step text with the built-in embedder."""
    vectors: dict[str, np.ndarray] = {}
    for article in corpus.articles:
        vectors[article.goal_id] = embed_text(article.title, dim, seed, lowercase)
        for step in article.steps:
            vectors[step.step_id] = embed_text(step.text, dim, seed, lowercase)
    return EmbeddingStore(dim=dim, vectors=vectors)


def load_embeddings(path: str | Path) -> EmbeddingStore:
    """Read a vector file: header ``dim=<d>``, then rows ``id v1 ... vd``."""
    dim, vectors = read_vectors(path, 1)
    return EmbeddingStore(dim=dim, vectors=vectors)


def save_embeddings(store: EmbeddingStore, path: str | Path) -> None:
    write_vectors(path, store.dim, ((row_id, store[row_id]) for row_id in store.ids()))
