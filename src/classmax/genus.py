"""Genus numbers and non-genus parts of class numbers."""

from __future__ import annotations


def genus_number_cyclic(p: int, n_ramified: int) -> int:
    """Genus number p^(N-1) of a degree-p cyclic field with N ramified primes."""
    if n_ramified < 1:
        raise ValueError("need N >= 1")
    return p ** (n_ramified - 1)


def nongenus_part(class_number: int, genus_number: int) -> int:
    """h = H / g.  Non-divisibility means an upstream computation bug."""
    if class_number < 1 or genus_number < 1:
        raise ValueError("H and g must be positive")
    q, r = divmod(class_number, genus_number)
    if r:
        raise ArithmeticError(
            f"genus number {genus_number} does not divide class number {class_number}"
        )
    return q
