"""Base values A_q(n, d, k): best known sizes of constant-dimension codes.

The construction formulas consume these as black-box inputs.  A lookup
resolves, in order: an explicit entry (shipped file or caller-supplied),
then the analytic rules below, else it fails loudly with the missing key.

Analytic rules (all exact):
  * k = 0 or k = n .............................. 1
  * orthogonal-complement duality ............... A_q(n,d,k) = A_q(n,d,n-k)
  * d > 2*min(k, n-k) ........................... 1 (no two distinct words)
  * d <= 2 ...................................... whole Grassmannian
  * d = 2k, k | n ............................... spread (q^n-1)/(q^k-1)
  * d = 2k, r = n mod k, k > (q^r-1)/(q-1) ...... (q^n - q^{k+r})/(q^k-1) + 1
    (the exact maximum partial-spread size in this parameter regime)
"""

from __future__ import annotations

from importlib import resources
from typing import Dict, Optional, Tuple

from .counting import gauss_binomial
from .errors import RegistryMiss
from .gf import _named

Key = Tuple[int, int, int, int]  # (q, n, d, k)


class BaseBoundRegistry:
    def __init__(self, entries: Optional[Dict[Key, Tuple[int, str]]] = None):
        self.entries: Dict[Key, Tuple[int, str]] = dict(entries or {})

    def add(self, q: int, n: int, d: int, k: int, value: int, source: str) -> None:
        """Records A_q(n,d,k) = value; ValueError for a value below 1, as
        every A_q(n,d,k) with 0 <= k <= n is at least 1."""
        if value < 1:
            raise ValueError(f"A_{q}({n},{d},{k}) = {_named(value, 'value')} is below 1")
        self.entries[(q, n, d, k)] = (int(value), source)

    def lookup(self, q: int, n: int, d: int, k: int) -> Tuple[int, str]:
        """Value and source for A_q(n,d,k); raises RegistryMiss otherwise."""
        if not (0 <= k <= n) or q < 2:
            raise RegistryMiss(q, n, d, k)
        if d % 2:
            d += 1  # subspace distances are even
        if (q, n, d, k) in self.entries:
            return self.entries[(q, n, d, k)]
        if k in (0, n):
            return 1, "trivial: k in {0, n}"
        kk = min(k, n - k)
        if (q, n, d, kk) in self.entries:
            value, src = self.entries[(q, n, d, kk)]
            return value, src + " (complement)"
        if d > 2 * kk:
            return 1, "trivial: d exceeds the diameter"
        if d <= 2:
            return gauss_binomial(n, kk, q), "whole Grassmannian"
        if d == 2 * kk:
            r = n % kk
            if r == 0:
                return (q**n - 1) // (q**kk - 1), "spread"
            if kk > (q**r - 1) // (q - 1):
                return (q**n - q ** (kk + r)) // (q**kk - 1) + 1, "partial spread"
        raise RegistryMiss(q, n, d, k)

    def get(self, q: int, n: int, d: int, k: int) -> int:
        return self.lookup(q, n, d, k)[0]

    def merge_text(self, text: str) -> None:
        """Parse `q n d k value source...` lines (# comments allowed); a
        line refused is named by its 1-based number in a ValueError."""
        for number, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 5)
            try:
                if len(parts) < 5:
                    raise ValueError(f"need q n d k value, got {len(parts)} fields")
                q, n, d, k, value = (int(x) for x in parts[:5])
                self.add(q, n, d, k, value, parts[5] if len(parts) > 5 else "unspecified")
            except ValueError as exc:
                raise ValueError(f"registry line {number}: {exc}") from None

    def to_text(self) -> str:
        lines = ["# q n d k value source"]
        for (q, n, d, k), (value, source) in sorted(self.entries.items()):
            lines.append(f"{q} {n} {d} {k} {value} {source}")
        return "\n".join(lines) + "\n"


_shipped: Optional[BaseBoundRegistry] = None


def shipped_registry() -> BaseBoundRegistry:
    """The registry distributed with the package (cached, treat as read-only)."""
    global _shipped
    if _shipped is None:
        reg = BaseBoundRegistry()
        ref = resources.files("cdckit.data").joinpath("registry.txt")
        reg.merge_text(ref.read_text())
        _shipped = reg
    return _shipped
