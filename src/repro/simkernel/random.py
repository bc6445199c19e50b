"""Named, deterministic random streams.

Every stochastic decision in the simulator draws from a *named stream*
obtained from the simulation's :class:`RandomRegistry`.  Stream seeds
are derived from the master seed and the stream name, so adding a new
consumer of randomness never perturbs the draws seen by existing
consumers — a property that keeps regression baselines stable as the
code base grows.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Sequence


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit stream seed from ``master_seed`` and ``name``.

    Uses BLAKE2b rather than ``hash()`` so the derivation is stable
    across processes and Python versions (``PYTHONHASHSEED`` immunity).
    """
    digest = hashlib.blake2b(
        f"{master_seed}:{name}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class RandomRegistry:
    """Factory and cache of named :class:`random.Random` streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use."""
        stream = self._streams.get(name)
        if stream is None:
            stream = random.Random(derive_seed(self.master_seed, name))
            self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RandomRegistry":
        """A child registry whose master seed is derived from ``name``."""
        return RandomRegistry(derive_seed(self.master_seed, name))

    def __contains__(self, name: str) -> bool:
        return name in self._streams


class ZipfianGenerator:
    """Zipfian-distributed integers in ``[0, item_count)``.

    This is the standard YCSB generator (Gray et al.'s algorithm): item
    popularity follows a Zipf distribution with exponent ``theta``
    (0.99 in YCSB's default configuration), computed in O(1) per draw
    after an O(n)-free closed-form setup using the zeta approximation.
    """

    def __init__(self, item_count: int, theta: float = 0.99, rng: random.Random = None):
        if item_count <= 0:
            raise ValueError(f"item_count must be positive, got {item_count}")
        if not 0.0 < theta < 1.0:
            raise ValueError(f"theta must be in (0, 1), got {theta}")
        self.item_count = item_count
        self.theta = theta
        self._rng = rng or random.Random(0)
        self._zetan = self._zeta(item_count, theta)
        self._zeta2 = self._zeta(2, theta)
        self._alpha = 1.0 / (1.0 - theta)
        if item_count <= 2:
            # The closed-form eta degenerates for tiny populations
            # (division by zero at n == 2); draws fall back to direct
            # weighted sampling in :meth:`next`.
            self._eta = 0.0
        else:
            self._eta = (1.0 - (2.0 / item_count) ** (1.0 - theta)) / (
                1.0 - self._zeta2 / self._zetan
            )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        """Draw one zipfian-distributed item index."""
        if self.item_count <= 2:
            weights = [1.0 / (i ** self.theta) for i in range(1, self.item_count + 1)]
            return self._rng.choices(range(self.item_count), weights=weights)[0]
        u = self._rng.random()
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(
            self.item_count * (self._eta * u - self._eta + 1.0) ** self._alpha
        )


class ScrambledZipfian:
    """YCSB's scrambled zipfian: zipfian popularity, hashed item identity.

    Spreads the hot items uniformly over the key space, which matters
    for stores with range-partitioned internals.
    """

    def __init__(self, item_count: int, theta: float = 0.99, rng: random.Random = None):
        self.item_count = item_count
        self._zipf = ZipfianGenerator(item_count, theta, rng)

    def next(self) -> int:
        raw = self._zipf.next()
        return fnv1a_64(raw) % self.item_count


def fnv1a_64(value: int) -> int:
    """64-bit FNV-1a hash of an integer, as used by YCSB's scrambler."""
    fnv_offset = 0xCBF29CE484222325
    fnv_prime = 0x100000001B3
    hashed = fnv_offset
    for _ in range(8):
        octet = value & 0xFF
        value >>= 8
        hashed ^= octet
        hashed = (hashed * fnv_prime) & 0xFFFFFFFFFFFFFFFF
    return hashed


def largest_remainder_allocation(total: int, weights: Sequence[float]) -> list:
    """Split ``total`` integer units proportionally to ``weights``.

    Uses the largest-remainder (Hamilton) method so the parts always sum
    exactly to ``total``.  Used to synthesize the vulnerability dataset
    with category counts matching the paper's percentages exactly.
    """
    if total < 0:
        raise ValueError(f"total must be non-negative, got {total}")
    if not weights:
        raise ValueError("weights must be non-empty")
    if any(w < 0 for w in weights):
        raise ValueError("weights must be non-negative")
    weight_sum = float(sum(weights))
    if weight_sum == 0.0:
        raise ValueError("weights must not all be zero")
    quotas = [total * (w / weight_sum) for w in weights]
    floors = [int(q) for q in quotas]
    shortfall = total - sum(floors)
    remainders = sorted(
        range(len(weights)), key=lambda i: (quotas[i] - floors[i], -i), reverse=True
    )
    for i in remainders[:shortfall]:
        floors[i] += 1
    return floors
