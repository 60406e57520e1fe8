"""Trigonometric basis on [0,1], empiric inner product and discrete Fourier transform.

Everything here is exact linear algebra on the equidistant design grid
x_j = j/n with odd n: the sampled basis vectors form an orthonormal basis
of R^n under the empiric inner product (u, v)_n = (1/n) sum u_l v_l.
Analysis and synthesis on the grid are one real FFT each (Cooley and Tukey
1965); `basis_eval_matrix` is the one dense evaluator, and its value on the
grid, `basis_matrix`, is the reference the tests hold the FFTs to.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

__all__ = [
    "DesignGrid",
    "SampledFunction",
    "TrigPolynomial",
    "trig_basis_eval",
    "basis_matrix",
    "basis_eval_matrix",
    "serial_matmul",
    "row_dots",
    "pack_spectrum",
    "fourier_rows",
    "grid_values",
    "discrete_fourier",
    "trig_series",
    "as_sampled",
]

# entries per block of a chunked evaluation or a Monte Carlo block: 2 MiB of
# float64, one core's L2 cache on a 2-vCPU host
BLOCK_ENTRIES = 2**18
# OpenBLAS multiplies in the calling thread up to 2^18 multiply-adds a product
# (65536 times its default GEMM_MULTITHREAD_THRESHOLD of 4), and up to 10000
# entries a dot product
SERIAL_MULADDS = 2**18
SERIAL_ROWS = 256  # rows of a padded row block, at most
SERIAL_DOT = 10000


@dataclass(frozen=True)
class DesignGrid:
    """Equidistant design x_j = j/n, j = 1..n, with n odd."""

    n: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.n, numbers.Integral) or self.n < 1 or self.n % 2 == 0:
            raise ValueError(f"design size must be an odd positive integer, got n={self.n!r}")
        pts = np.arange(1, self.n + 1, dtype=float) / self.n
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


class SampledFunction:
    """A real function on [0,1] evaluable anywhere; `on_grid` samples it on a design grid."""

    def __init__(self, fn, name: str = ""):
        self._fn = fn
        self.name = name

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=float))

    def on_grid(self, grid: DesignGrid) -> np.ndarray:
        return self(grid.points)

    def l2_norm_sq(self) -> float:
        """Integral of the square over [0,1] (fixed Simpson rule)."""
        from .models import simpson_integral  # local import to avoid a cycle

        return simpson_integral(lambda x: self(x) ** 2)


def as_sampled(f, name: str = "") -> SampledFunction:
    return f if isinstance(f, SampledFunction) else SampledFunction(f, name=name)


class TrigPolynomial(SampledFunction):
    """Finite expansion sum_j c_j phi_j with exact coefficients and norms."""

    def __init__(self, coeffs, name: str = ""):
        self.coeffs = np.asarray(coeffs, dtype=float)
        super().__init__(lambda x: trig_series(self.coeffs, x), name=name)

    def fourier_coeff(self, j: int) -> float:
        return float(self.coeffs[j - 1]) if j <= len(self.coeffs) else 0.0

    def l2_norm_sq(self) -> float:
        return float(np.sum(self.coeffs**2))


def trig_basis_eval(j: int, x):
    """phi_1 = 1; phi_j = sqrt(2) cos(2 pi [j/2] x) for even j, sin for odd j >= 3."""
    if j < 1:
        raise ValueError(f"basis index must be >= 1, got {j}")
    x = np.asarray(x, dtype=float)
    if j == 1:
        return np.ones_like(x)
    arg = 2.0 * np.pi * (j // 2) * x
    return np.sqrt(2.0) * (np.cos(arg) if j % 2 == 0 else np.sin(arg))


def basis_eval_matrix(d: int, x) -> np.ndarray:
    """(len(x), d) matrix of phi_1..phi_d at points x or on a DesignGrid x: the one dense evaluator.

    On a DesignGrid, phi_j(l/n) is read at the exact phase (q l mod n) / n from
    tables of the n angles, in row chunks of at most BLOCK_ENTRIES entries; the
    phases q l are int32 while q n < 2^31.
    """
    q = np.arange(1, d // 2 + 1)
    if isinstance(x, DesignGrid):
        n = x.n
        angles = 2.0 * np.pi * np.arange(n) / n
        cos, sin = np.sqrt(2.0) * np.cos(angles), np.sqrt(2.0) * np.sin(angles)
        mat = np.empty((n, d))
        mat[:, 0] = 1.0
        rows = max(1, BLOCK_ENTRIES // d)
        q = q.astype(np.int32 if len(q) * n < 2**31 else np.int64)  # every phase q l <= q n fits
        for lo in range(0, n, rows):
            phase = np.outer(np.arange(lo + 1, min(lo + rows, n) + 1, dtype=q.dtype), q)
            np.remainder(phase, n, out=phase)
            mat[lo : lo + rows, 1::2] = cos[phase]
            mat[lo : lo + rows, 2::2] = sin[phase[:, : (d - 1) // 2]]
        return mat
    angles = 2.0 * np.pi * np.outer(np.asarray(x, dtype=float).ravel(), q)
    cos, sin = np.cos(angles), np.sin(angles[:, : (d - 1) // 2])
    mat = np.empty((len(cos), d))
    mat[:, :1] = 1.0
    mat[:, 1::2] = np.sqrt(2.0) * cos
    mat[:, 2::2] = np.sqrt(2.0) * sin
    return mat


@lru_cache(maxsize=3)
def _basis_matrix(n: int) -> np.ndarray:
    # column j-1 holds phi_j sampled on the grid; n odd so columns are orthonormal
    mat = basis_eval_matrix(n, DesignGrid(n))
    mat.flags.writeable = False
    return mat


def basis_matrix(grid: DesignGrid) -> np.ndarray:
    """(n, n) matrix of phi_j(x_l), read-only and cached per n; the tests' dense reference."""
    return _basis_matrix(grid.n)


def serial_matmul(a, b, first: int) -> np.ndarray:
    """a (..., B, k) @ b (k, d) in row blocks of <= SERIAL_ROWS rows and SERIAL_MULADDS multiply-adds.

    BLAS then computes every block in the calling thread, unless one row alone
    exceeds SERIAL_MULADDS: such a one-row block runs as gemv, which OpenBLAS
    threads.  On a shared 2-vCPU machine a threaded product of a study block's
    size can wait milliseconds for its second thread, far longer than the
    product itself takes.  Every block has one fixed height (a partial first or
    last block is padded with zero rows in one reused zero block), and the blocks
    are aligned at multiples of it counting a's rows from `first`, so row i gets
    the same bits wherever a starts and however many
    rows follow it: numpy runs a one-row product as gemv, OpenBLAS rounds gemm
    differently at different row counts, and it rounds the last (height mod 4)
    rows of a block differently from the others.  A Monte Carlo block's n-length
    product passes its first replicate's index; a product over a whole cell's
    replicates, as in `score_cell`, and any other caller pass 0.  The row cap
    bounds the padding for a narrow product; a 1-d `a` is one product.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        return a @ b
    rows = min(SERIAL_ROWS, max(1, SERIAL_MULADDS // (a.shape[-1] * b.shape[-1])))
    B = a.shape[-2]
    out, pad = np.empty(a.shape[:-2] + (B,) + b.shape[-1:]), None
    for lo in range(-(first % rows), B, rows):
        top, bottom = max(lo, 0), min(lo + rows, B)
        if bottom - top == rows:
            np.matmul(a[..., top:bottom, :], b, out=out[..., top:bottom, :])
            continue
        if pad is None:  # one zero block for the partial first and last blocks
            pad = np.zeros(a.shape[:-2] + (rows, a.shape[-1]))
        held = (..., slice(top - lo, bottom - lo), slice(None))
        pad[held] = a[..., top:bottom, :]
        out[..., top:bottom, :] = (pad @ b)[held]
        pad[held] = 0.0  # zero rows again: a stale row could raise a floating-point warning of its own
    return out


def row_dots(a, b) -> np.ndarray:
    """a_r . b_r for every pair of rows over the last axis, leading axes broadcast.

    Each dot sums, in order, equal chunks of at most SERIAL_DOT entries, each one
    BLAS dot in the calling thread, so its bits follow neither the thread count
    (a threaded dot sums one partial dot per thread) nor the other rows.  Up to
    2 SERIAL_DOT entries the chunks are the ones two threads take.  Rows of
    different lengths raise ValueError.
    """
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    k = a.shape[-1]
    if b.shape[-1] != k:
        raise ValueError(f"rows differ in length: {a.shape} and {b.shape}")
    size = -(-k // -(-k // SERIAL_DOT))
    chunks = (a[..., None, lo : lo + size] @ b[..., lo : lo + size, None] for lo in range(0, k, size))
    return sum(chunks)[..., 0, 0]


def pack_spectrum(F, n: int) -> np.ndarray:
    """Coefficients (..., n) of phi_1..phi_n, n odd, from DFT bins F_q (..., >= (n+1)/2).

    The one map from FFT bins to basis indices: phi_1 takes Re F_0, phi_{2q}
    takes sqrt(2) Re F_q and phi_{2q+1} takes -sqrt(2) Im F_q.
    """
    if n < 1 or n % 2 == 0:
        raise ValueError(f"transform length must be odd and positive, got n={n}")
    ri = np.ascontiguousarray(F[..., : (n + 1) // 2], dtype=complex).view(float)
    out = ri[..., 1:] * math.sqrt(2.0)  # sqrt(2) (Im F_0, Re F_1, Im F_1, ...)
    out[..., 0] = ri[..., 0]
    out[..., 2::2] *= -1.0
    return out


def fourier_rows(Y) -> np.ndarray:
    """theta_hat_j = (Y, phi_j)_n along the last axis (odd length n), by one real FFT.

    Reversed and conjugated, the FFT puts x_n = 1, i.e. 0, first without a rolled copy.
    """
    Y = np.asarray(Y, dtype=float)
    return pack_spectrum(np.fft.rfft(Y[..., ::-1], norm="forward").conj(), Y.shape[-1])


def grid_values(c) -> np.ndarray:
    """sum_j c_j phi_j(l/n), l = 1..n, along the last axis: `fourier_rows` inverted.

    The half spectrum is the conjugate of the one `pack_spectrum` maps to c;
    reversing the inverse FFT undoes the conjugation and puts x_n last.
    """
    c = np.asarray(c, dtype=float)
    n = c.shape[-1]
    if n % 2 == 0:
        raise ValueError(f"transform length must be odd and positive, got n={n}")
    X = np.zeros(c.shape[:-1] + ((n + 1) // 2,), dtype=complex)
    X[..., 0] = c[..., 0]
    X.view(float)[..., 2:] = c[..., 1:] / math.sqrt(2.0)  # Re X_1, Im X_1, Re X_2, ...
    return np.fft.irfft(X, n, norm="forward")[..., ::-1]


def discrete_fourier(Y, grid: DesignGrid) -> np.ndarray:
    """theta_hat_j = (Y, phi_j)_n for j = 1..n, as an (n,) array.

    `grid_values` inverts it: the sampled basis is an orthonormal basis of R^n,
    so the round trip reproduces Y at the design points to rounding error.
    """
    Y = np.asarray(Y, dtype=float)
    if Y.shape != (grid.n,):
        raise ValueError(f"observation vector must have length n={grid.n}")
    return fourier_rows(Y)


def trig_series(coeffs, x):
    """Evaluate sum_j coeffs[j-1] phi_j(x) at arbitrary points, in blocks of BLOCK_ENTRIES entries."""
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    xf = x.ravel()
    chunk = max(1, BLOCK_ENTRIES // max(1, len(coeffs)))
    out = np.empty(x.size)
    for lo in range(0, x.size, chunk):
        out[lo : lo + chunk] = basis_eval_matrix(len(coeffs), xf[lo : lo + chunk]) @ coeffs
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)

