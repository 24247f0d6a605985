"""Deterministic seed derivation for replica-parallel runs.

Every stream used anywhere in the package is keyed by hashing a master seed
with integer tags, so replicas (and the per-vertex draws of a lazily grown
tree) are independent of scheduling and iteration order.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1

# stream namespaces
TAG_REPLICA = 0x01
TAG_TREE = 0x02
TAG_SIM = 0x07
TAG_EXPERIMENT = 0x08


def splitmix64(z: int) -> int:
    """One splitmix64 mixing step (public-domain constants)."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def mix(*parts: int) -> int:
    """Combine integers into one well-mixed 64-bit seed."""
    h = 0x8F1BBCDCBFA53E0B
    for p in parts:
        h = splitmix64(h ^ (p & _MASK64))
    return h


def replica_seed(master_seed: int, index: int) -> int:
    """Seed for replica `index` of a run with the given master seed."""
    return mix(master_seed, TAG_REPLICA, index)
