"""Seeded random streams with deterministic replay and draw counting.

Each phase of a trial draws from its own named stream so that changing how
one phase consumes randomness cannot shift the draws seen by another.  A
stream is identified by (seed, label); the label is hashed with crc32 (a
fixed function, unlike Python's salted hash) into the numpy seed sequence.
Identical (seed, label, draw index) always yields an identical draw.

Bernoulli draws are counted per stream; exposure bookkeeping elsewhere is
audited against these counters.
"""

import zlib

import numpy as np

from .errors import InvalidInputError

__all__ = ["SeededRng", "STREAM_LABELS", "streams"]

# canonical stream labels used by the trial pipeline
STREAM_LABELS = ("phase1", "permutation", "designation", "sprinkling", "closure")


class SeededRng:
    """PCG64-backed random source for one (seed, stream label) pair."""

    def __init__(self, seed: int, stream: str):
        self.seed = int(seed)
        if self.seed < 0:
            raise InvalidInputError(f"need seed >= 0, got {seed}")
        self.stream = stream
        crc = zlib.crc32(stream.encode("utf-8"))
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence([self.seed, crc])))
        self.n_bernoulli = 0

    def bernoulli(self, prob: float) -> bool:
        """One counted Bernoulli(prob) draw."""
        self.n_bernoulli += 1
        return bool(self._gen.random() < prob)

    def bernoulli_many(self, k: int, prob: float) -> list[bool]:
        """k counted Bernoulli(prob) draws, in stream order.

        PCG64's random(k) yields the same doubles as k scalar random()
        calls, so this consumes the stream exactly as k bernoulli() calls.
        """
        self.n_bernoulli += k
        return (self._gen.random(k) < prob).tolist()

    def bernoulli_matrix(self, rows: int, cols: int, prob: float) -> np.ndarray:
        """Bulk Bernoulli(prob) draws as a boolean (rows, cols) array.

        Counts as rows*cols draws; consumes the stream in row-major order.
        """
        self.n_bernoulli += rows * cols
        return self._gen.random((rows, cols)) < prob

    def uniform_permutation(self, n: int) -> tuple[int, ...]:
        """Uniform permutation image on 1..n."""
        return tuple(int(v) + 1 for v in self._gen.permutation(n))

    def choice(self, seq):
        """Uniform element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[int(self._gen.integers(0, len(seq)))]

    def sample(self, seq, k: int) -> list:
        """k distinct elements of seq, uniform without replacement, in draw order."""
        if k > len(seq):
            raise ValueError(f"cannot sample {k} from {len(seq)} elements")
        idx = self._gen.choice(len(seq), size=k, replace=False)
        return [seq[i] for i in idx.tolist()]

    def integers(self, low: int, high: int) -> int:
        """Uniform integer in [low, high)."""
        return int(self._gen.integers(low, high))

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, stream={self.stream!r}, bernoulli={self.n_bernoulli})"


def streams(seed: int) -> dict[str, SeededRng]:
    """One stream per canonical label for a trial seed, in label order."""
    return {label: SeededRng(seed, label) for label in STREAM_LABELS}
