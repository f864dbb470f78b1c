"""Deterministic random number generation.

Every stochastic component in the reproduction draws randomness from a
:class:`DeterministicRng` derived from a single root seed, so entire
deployments (network jitter, attacker timing, diversity layouts, IDS
training traffic) replay bit-identically for a given seed.
"""

from __future__ import annotations

import hashlib
import random


class DeterministicRng:
    """A tree of named random streams rooted at one integer seed.

    Child streams are derived by hashing the parent seed with the child
    name, so adding a new consumer never perturbs the draws seen by
    existing consumers (unlike sharing one ``random.Random``).

    The ``random.Random`` behind a stream is built on its first draw.
    Most streams of a world are never drawn from; until then a stream
    is its seed and path, and pickles as no more than that.
    """

    def __init__(self, seed: int, path: str = "root"):
        self._seed = seed
        self._path = path
        self._random = None

    @staticmethod
    def _derive_int(seed: int, path: str) -> int:
        digest = hashlib.sha256(f"{seed}/{path}".encode()).digest()
        return int.from_bytes(digest[:8], "big")

    def _stream(self) -> random.Random:
        stream = self._random
        if stream is None:
            stream = self._random = random.Random(
                self._derive_int(self._seed, self._path))
        return stream

    @property
    def path(self) -> str:
        return self._path

    def child(self, name: str) -> "DeterministicRng":
        """Return an independent stream identified by ``name``."""
        return DeterministicRng(self._seed, f"{self._path}/{name}")

    # Convenience proxies for the draws the codebase needs.  Exposing a
    # curated surface (rather than subclassing random.Random) keeps the
    # determinism contract auditable.
    def random(self) -> float:
        return self._stream().random()

    def uniform(self, a: float, b: float) -> float:
        return self._stream().uniform(a, b)

    def randint(self, a: int, b: int) -> int:
        return self._stream().randint(a, b)

    def choice(self, seq):
        return self._stream().choice(seq)

    def sample(self, population, k: int):
        return self._stream().sample(population, k)

    def shuffle(self, seq) -> None:
        self._stream().shuffle(seq)

    def gauss(self, mu: float, sigma: float) -> float:
        return self._stream().gauss(mu, sigma)

    def expovariate(self, lambd: float) -> float:
        return self._stream().expovariate(lambd)

    def getrandbits(self, k: int) -> int:
        return self._stream().getrandbits(k)

    def bytes(self, n: int) -> bytes:
        return self._stream().getrandbits(n * 8).to_bytes(n, "big")

    def __repr__(self) -> str:
        return f"DeterministicRng(seed={self._seed}, path={self._path!r})"
