"""Matrix/unknown reordering.

The paper's Section VI-A observation that motivates this module: PR02R
and HV15R have nearly identical value distributions, but "the ordering
of non-zero values in HV15R may lead neighboring Krylov vector values to
have a similar magnitude, mitigating the effects observed in PR02R".
In other words, FRSZ2's block-floating-point quality is an *ordering*
property of the unknowns — so a reordering pass can rescue FRSZ2 on
hostile problems.

Provided orderings:

* reverse Cuthill-McKee (:func:`reverse_cuthill_mckee`) — the classic
  bandwidth-reducing BFS ordering; clusters strongly coupled (and hence
  similarly scaled) unknowns.
* magnitude grouping (:func:`magnitude_ordering`) — sorts unknowns by
  the log-magnitude of a scale vector (e.g. the matrix row norms or a
  prototype residual), directly packing same-exponent values into the
  same FRSZ2 blocks.  This is the idealized "friendly ordering" that
  turns a PR02R into an HV15R.  :func:`frsz2_kill_fraction` measures
  what it fixes: the share of blocks that mix exponents too far apart.
* :func:`permute_system` / :class:`Permutation` — apply a symmetric
  permutation to ``A``, ``b`` and back-permute the solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.blocks import DEFAULT_BLOCK_SIZE
from ..core.ieee754 import effective_biased_exponent, significand53, to_bits
from .csr import CSRMatrix

__all__ = [
    "Permutation",
    "reverse_cuthill_mckee",
    "magnitude_ordering",
    "frsz2_kill_fraction",
    "permute_system",
]


@dataclass(frozen=True)
class Permutation:
    """A permutation of the unknowns: ``new[i] = old[perm[i]]``."""

    perm: np.ndarray

    def __post_init__(self) -> None:
        p = np.asarray(self.perm, dtype=np.int64)
        object.__setattr__(self, "perm", p)
        if p.ndim != 1:
            raise ValueError("permutation must be 1-D")
        check = np.zeros(p.size, dtype=bool)
        if p.size:
            if p.min() < 0 or p.max() >= p.size:
                raise ValueError("permutation indices out of range")
            check[p] = True
            if not check.all():
                raise ValueError("not a permutation (duplicate indices)")

    @property
    def n(self) -> int:
        return self.perm.size

    @property
    def inverse(self) -> "Permutation":
        inv = np.empty(self.n, dtype=np.int64)
        inv[self.perm] = np.arange(self.n)
        return Permutation(inv)

    def apply_vector(self, v: np.ndarray) -> np.ndarray:
        """Reorder a vector into the new numbering."""
        v = np.asarray(v)
        if v.shape != (self.n,):
            raise ValueError(f"expected vector of length {self.n}")
        return v[self.perm]

    def apply_matrix(self, a: CSRMatrix) -> CSRMatrix:
        """Symmetric permutation ``P A P^T`` of a square matrix."""
        if a.shape[0] != a.shape[1] or a.shape[0] != self.n:
            raise ValueError("matrix shape does not match the permutation")
        inv = self.inverse.perm
        coo = a.to_coo()
        from .coo import COOMatrix

        return COOMatrix(
            a.shape, inv[coo.rows], inv[coo.cols], coo.data
        ).to_csr()


def _adjacency(a: CSRMatrix):
    """Symmetrized adjacency as (indptr, indices) without self loops."""
    coo = a.to_coo()
    rows = np.concatenate([coo.rows, coo.cols])
    cols = np.concatenate([coo.cols, coo.rows])
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    if rows.size:
        uniq = np.empty(rows.size, dtype=bool)
        uniq[0] = True
        uniq[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        rows, cols = rows[uniq], cols[uniq]
    n = a.shape[0]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, rows + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, cols


def reverse_cuthill_mckee(a: CSRMatrix) -> Permutation:
    """Reverse Cuthill-McKee ordering of a square sparse matrix.

    BFS from a minimum-degree start node within each connected
    component, visiting neighbours in increasing-degree order; the final
    order is reversed (the "R" in RCM).
    """
    if a.shape[0] != a.shape[1]:
        raise ValueError("RCM requires a square matrix")
    n = a.shape[0]
    indptr, indices = _adjacency(a)
    degree = np.diff(indptr)
    visited = np.zeros(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    pos = 0
    # deterministic component starts: lowest degree, ties by index
    start_order = np.lexsort((np.arange(n), degree))
    for start in start_order:
        if visited[start]:
            continue
        visited[start] = True
        order[pos] = start
        pos += 1
        head = pos - 1
        while head < pos:
            u = order[head]
            head += 1
            nbrs = indices[indptr[u] : indptr[u + 1]]
            fresh = nbrs[~visited[nbrs]]
            if fresh.size:
                fresh = fresh[np.lexsort((fresh, degree[fresh]))]
                visited[fresh] = True
                order[pos : pos + fresh.size] = fresh
                pos += fresh.size
    return Permutation(order[::-1].copy())


def magnitude_ordering(scale: np.ndarray) -> Permutation:
    """Order unknowns by log-magnitude of a scale vector.

    Zeros sort first; ties keep their original relative order (stable),
    so a well-scaled problem is left essentially untouched.  Grouping by
    magnitude is precisely what FRSZ2's shared block exponent wants: the
    values inside each 32-element block then span few binades.
    """
    scale = np.asarray(scale, dtype=np.float64)
    if scale.ndim != 1:
        raise ValueError("scale must be a vector")
    mag = np.abs(scale)
    key = np.where(mag > 0, np.log2(np.where(mag > 0, mag, 1.0)), -np.inf)
    return Permutation(np.argsort(key, kind="stable"))


def frsz2_kill_fraction(v: np.ndarray) -> float:
    """Fraction of the FRSZ2 blocks of ``v`` (32 values each) holding a
    nonzero value more than ``l - 2 = 30`` binades below the block's
    largest exponent, which frsz2_32 stores as zero.  Zeros are never
    killed; an empty ``v`` gives 0."""
    bits = to_bits(np.asarray(v, dtype=np.float64))
    if bits.size == 0:
        return 0.0
    bs = DEFAULT_BLOCK_SIZE
    # biased exponents are >= 1, so 0 marks a zero (or padding) member
    e = np.zeros(-(-bits.size // bs) * bs, dtype=np.int64)
    e[: bits.size] = np.where(
        significand53(bits) != 0, effective_biased_exponent(bits), 0)
    e = e.reshape(-1, bs)
    killed = (e.max(axis=1)[:, None] - e > 30) & (e > 0)
    return float(killed.any(axis=1).mean())


def permute_system(
    a: CSRMatrix, b: np.ndarray, perm: Permutation
) -> "tuple[CSRMatrix, np.ndarray]":
    """Apply a symmetric permutation to the system ``A x = b``.

    Returns ``(P A P^T, P b)``; solve that system for ``y`` and recover
    ``x = perm.inverse.apply_vector(y)``... i.e. ``x[perm] = y``.
    """
    return perm.apply_matrix(a), perm.apply_vector(b)
