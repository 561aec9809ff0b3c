"""Circulant and BCCB matrix algebra performed on eigenvalues.

Conventions, fixed once and used by every module:

- ``dft``/``idft`` are unitary (``norm="ortho"``), so ``||dft(x)|| == ||x||``.
- A circulant of order n is stored by its first row (the *base*); each row
  of the dense matrix is the base cyclically shifted one position to the
  right of the row above.  Its eigenvalues are ``eigs = sqrt(n) * dft(base)``
  which equals the unnormalized ``np.fft.fft(base)``.
- A type-(m, n) BCCB is stored by its n x m base grid with eigenvalue grid
  ``fft2(base)``.  Vectors interact with BCCB operators in column-major
  (Fortran) order: a length-nm vector is the column stack of an n x m grid.
- ``BccbMatrix.matvec`` applies ``idft2(eigs * dft2(x))``; ``dense()``
  realizes exactly that operator.  For the symmetric bases used by all
  covariance matrices this coincides with the Kronecker product of the
  first-row circulant factors.

Half spectra.  Every grid the sampler transforms is real (d, c, w*) or the
Hermitian-symmetric eigen grid of a real operator (theta, theta_d,
|lam_w0|^2, lam_A), so the sweep keeps only the half spectrum of the
*vertical* axis: ``rdft2(x) = rfft2(x, axes=(1, 0), norm="ortho")``, the
leading ``n_v//2 + 1`` rows of ``dft2(x)``, inverted by ``irdft2(X, n_v)``
(``irfft2`` with ``s=(n_h, n_v)``); a column uses ``rfft``/``irfft``.
Conjugation maps row l to row -l, so the rows 0 and n_v/2 are their own
partners and every other kept row stands for itself and one dropped row:
a sum over the full grid of a term that conjugation leaves unchanged is
the sum over the half grid with row weights 1 on rows 0 and n_v/2 and 2
elsewhere (``HalfSpectrum.weights``).  n_v is always even on the lattice
(``OddLattice``).  The eigen grids of the model constants are kept full and
read as leading-row views ``theta[:rows]``, never copied; ``half_to_full``
rebuilds a full spectrum for callers that want one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, OddLattice, SingularCirculant

#: relative floor below which a circulant eigenvalue counts as singular
SINGULAR_RTOL = 1e-12


def dft(x):
    return np.fft.fft(x, norm="ortho")


def idft(x):
    return np.fft.ifft(x, norm="ortho")


def dft2(grid):
    return np.fft.fft2(grid, norm="ortho")


def idft2(grid):
    return np.fft.ifft2(grid, norm="ortho")


def rdft2(grid):
    """Unitary half spectrum of a real n_v x n_h grid, (n_v//2 + 1) x n_h."""
    return np.fft.rfft2(grid, axes=(1, 0), norm="ortho")


def irdft2(spec, n_v):
    """Real n_v x n_h grid whose unitary half spectrum is ``spec``."""
    return np.fft.irfft2(spec, s=(spec.shape[1], n_v), axes=(1, 0), norm="ortho")


@functools.lru_cache(maxsize=64)
def half_weights(n):
    """Multiplicity of each half-spectrum row of a length-n real axis.

    1 on row 0 and, for even n, on row n/2; 2 on every other row.  The
    array is shared, so it is read-only.
    """
    weights = np.full(n // 2 + 1, 2.0)
    weights[0] = 1.0
    if n % 2 == 0:
        weights[-1] = 1.0
    weights.flags.writeable = False
    return weights


def half_to_full(spec, n):
    """Full spectrum along axis 0 from the half spectrum of a real length-n
    axis; a second axis, if any, is the complex transform of the columns."""
    spec = np.asarray(spec)
    tail = np.conj(spec[1:n - spec.shape[0] + 1][::-1])
    if spec.ndim == 2:
        tail = tail[:, (-np.arange(spec.shape[1])) % spec.shape[1]]
    return np.concatenate([spec, tail])


def half_quadform(spec, weights):
    """Sum over the full grid of |x^|^2 times a symmetric grid g, from the
    half spectrum ``spec``; ``weights`` is g on the half grid times the row
    weights."""
    return float(np.vdot(weights, spec.real**2 + spec.imag**2))


@dataclass(frozen=True)
class HalfSpectrum:
    """Half-spectrum constants of real n_v x n_h lattice grids.

    ``weights`` are the row multiplicities and ``weight_grid`` the same
    broadcast over the columns.  ``centre_sign`` is (-1)^l: the half
    spectrum of a kernel centred at n_v/2, as ``kernel_eigs`` centres it,
    is its ``rfft`` times this sign.
    """

    weights: np.ndarray
    weight_grid: np.ndarray
    centre_sign: np.ndarray

    @classmethod
    def build(cls, n_v, n_h):
        if n_v % 2:
            raise OddLattice(f"vertical order must be even, got {n_v}")
        weights = half_weights(n_v)
        return cls(weights, np.tile(weights[:, None], (1, n_h)),
                   (-1.0) ** np.arange(weights.size))

    @property
    def rows(self):
        return self.weights.size

    def kernel_eigs(self, w_star):
        """Half column eigenvalues of the centred convolution with ``w_star``."""
        return np.fft.rfft(w_star) * self.centre_sign


def _real_if_close(x, rtol=1e-10):
    scale = np.abs(x).max() if x.size else 0.0
    if scale == 0.0 or np.abs(x.imag).max() <= rtol * max(scale, 1.0):
        return np.ascontiguousarray(x.real)
    return x


@dataclass(frozen=True)
class CirculantMatrix:
    """Order-n circulant stored as base vector plus eigenvalue vector."""

    order: int
    base: np.ndarray
    eigs: np.ndarray

    @classmethod
    def from_base(cls, base):
        base = np.asarray(base)
        if base.ndim != 1 or base.size == 0:
            raise DimensionMismatch("circulant base must be a non-empty vector")
        return cls(base.size, base, np.fft.fft(base))

    @classmethod
    def from_eigs(cls, eigs):
        eigs = np.asarray(eigs, dtype=complex)
        if eigs.ndim != 1 or eigs.size == 0:
            raise DimensionMismatch("eigenvalue vector must be non-empty")
        return cls(eigs.size, _real_if_close(np.fft.ifft(eigs)), eigs)

    def dense(self):
        idx = np.arange(self.order)
        return self.base[(idx[None, :] - idx[:, None]) % self.order]

    def matvec(self, x):
        x = np.asarray(x)
        if x.shape[-1] != self.order:
            raise DimensionMismatch("vector length does not match circulant order")
        y = np.fft.fft(self.eigs * np.fft.ifft(x, axis=-1), axis=-1)
        if np.isrealobj(x) and np.isrealobj(self.base):
            return y.real
        return y

    def transpose(self):
        n = self.order
        rev = np.arange(n)
        rev = (-rev) % n
        return CirculantMatrix(n, self.base[rev], self.eigs[rev])

    def inverse(self):
        mags = np.abs(self.eigs)
        if mags.min() <= SINGULAR_RTOL * mags.max():
            raise SingularCirculant(
                f"eigenvalue magnitude ratio below {SINGULAR_RTOL:g}"
            )
        return CirculantMatrix.from_eigs(1.0 / self.eigs)


def circ_from_base(base):
    return CirculantMatrix.from_base(base)


def base_from_eigs(eigs):
    return _real_if_close(np.fft.ifft(np.asarray(eigs, dtype=complex)))


def circ_op(op, a, b=None):
    """Closed-under operation on circulants, carried out on eigenvalues.

    ``op`` is one of ``add``, ``mul``, ``transpose``, ``inverse``.
    """
    if op in ("add", "mul"):
        if b is None:
            raise DimensionMismatch(f"{op} needs two operands")
        if a.order != b.order:
            raise DimensionMismatch("circulant orders differ")
        if op == "add":
            return CirculantMatrix(a.order, a.base + b.base, a.eigs + b.eigs)
        return CirculantMatrix.from_eigs(a.eigs * b.eigs)
    if op == "transpose":
        return a.transpose()
    if op == "inverse":
        return a.inverse()
    raise ValueError(f"unknown circulant op {op!r}")


@dataclass(frozen=True)
class BccbMatrix:
    """Block-circulant with circulant blocks, type (num_blocks, block_order)."""

    block_order: int
    num_blocks: int
    base: np.ndarray
    eigs: np.ndarray

    @classmethod
    def from_base(cls, base):
        base = np.asarray(base)
        if base.ndim != 2:
            raise DimensionMismatch("BCCB base must be a 2-d grid")
        n, m = base.shape
        return cls(n, m, base, np.fft.fft2(base))

    @classmethod
    def from_eigs(cls, eigs):
        eigs = np.asarray(eigs, dtype=complex)
        if eigs.ndim != 2:
            raise DimensionMismatch("BCCB eigenvalue grid must be 2-d")
        n, m = eigs.shape
        return cls(n, m, _real_if_close(np.fft.ifft2(eigs)), eigs)

    @classmethod
    def from_kron(cls, outer: CirculantMatrix, inner: CirculantMatrix):
        """Assemble ``outer (x) inner``; eigen grid is the factor outer product."""
        base = np.outer(inner.base, outer.base)
        eigs = np.outer(inner.eigs, outer.eigs)
        return cls(inner.order, outer.order, base, eigs)

    @property
    def size(self):
        return self.block_order * self.num_blocks

    def apply_grid(self, grid):
        grid = np.asarray(grid)
        if grid.shape[-2:] != (self.block_order, self.num_blocks):
            raise DimensionMismatch("grid shape does not match BCCB type")
        y = np.fft.ifft2(self.eigs * np.fft.fft2(grid, axes=(-2, -1)), axes=(-2, -1))
        if np.isrealobj(grid) and np.isrealobj(self.base):
            # Hermitian-symmetric eigenvalues guarantee a real result
            return _real_if_close(y)
        return y

    def matvec(self, x):
        x = np.asarray(x)
        if x.shape != (self.size,):
            raise DimensionMismatch(
                f"expected vector of length {self.size}, got shape {x.shape}"
            )
        grid = x.reshape((self.block_order, self.num_blocks), order="F")
        return np.ravel(self.apply_grid(grid), order="F")

    def dense(self):
        n, m = self.block_order, self.num_blocks
        flat = np.arange(n * m)
        ri, rj = flat % n, flat // n
        return self.base[
            (ri[:, None] - ri[None, :]) % n, (rj[:, None] - rj[None, :]) % m
        ]


# --- convolution-structure operators -------------------------------------

def centering_permutation(n_v):
    """Permutation with ones exactly on the +-n_v/2 diagonals.

    Maps the blur vector, whose effective support sits around index n_v/2,
    onto the base of the column convolution operator.  Requires even order.
    """
    if n_v % 2:
        raise OddLattice(f"vertical order must be even, got {n_v}")
    p = np.zeros((n_v, n_v))
    idx = np.arange(n_v)
    p[idx, (idx + n_v // 2) % n_v] = 1.0
    return p


def kernel_eigs(columns, axis=0):
    """Per-column action eigenvalues of the centered circular convolution.

    ``columns`` holds one convolution kernel per column (length n_v each,
    support centered at n_v/2).  Column j of the result diagonalizes the
    operator "convolve with column j":  y = idft(eigs * dft(x)).
    """
    n_v = columns.shape[axis]
    if n_v % 2:
        raise OddLattice(f"vertical order must be even, got {n_v}")
    return np.fft.fft(np.roll(columns, -(n_v // 2), axis=axis), axis=axis)


def convolve_columns(w_star, grid):
    """Circular convolution of each grid column with the blur vector."""
    n_v = w_star.size
    if n_v % 2:
        raise OddLattice(f"vertical order must be even, got {n_v}")
    theta = np.fft.rfft(np.roll(w_star, -(n_v // 2)))
    shaped = theta[:, None] if grid.ndim == 2 else theta
    return np.fft.irfft(shaped * np.fft.rfft(grid, axis=0), n_v, axis=0)


@dataclass(frozen=True)
class ConvolutionOperators:
    """The convolution-structure matrices tied to one (w*, image) pair.

    ``w_eigs``/``gamma_eigs``/``b_eigs`` are action eigenvalue grids: column
    j diagonalizes the order-n_v circulant block acting on column j.
    """

    n_v: int
    n_h: int
    perm: np.ndarray
    w0: CirculantMatrix
    w_eigs: np.ndarray
    gamma_eigs: np.ndarray
    b_eigs: np.ndarray | None = None

    def apply_w(self, grid):
        """W c: convolve every image column with the blur."""
        return np.fft.ifft(self.w_eigs * np.fft.fft(grid, axis=0), axis=0).real

    def apply_gamma(self, w_star):
        """Gamma w*: same product as W c, written as a linear map of w*."""
        what = np.fft.fft(w_star)
        return np.fft.ifft(self.gamma_eigs * what[:, None], axis=0).real

    def apply_b(self, w_star):
        if self.b_eigs is None:
            raise DimensionMismatch("no mean-image convolution operator built")
        what = np.fft.fft(w_star)
        return np.fft.ifft(self.b_eigs * what[:, None], axis=0).real


def build_convolution_ops(w_star, image, mean_image=None):
    """Build W0, W, Gamma (and optionally B) for a blur vector and image grid."""
    w_star = np.asarray(w_star, dtype=float)
    image = np.asarray(image, dtype=float)
    n_v = w_star.size
    if n_v % 2:
        raise OddLattice(f"vertical order must be even, got {n_v}")
    if image.ndim != 2 or image.shape[0] != n_v:
        raise DimensionMismatch("image grid must be n_v x n_h")
    n_h = image.shape[1]

    perm = centering_permutation(n_v)
    # first row of the dense convolution operator: w*[(n_v/2 - j) mod n_v]
    first_row = w_star[(n_v // 2 - np.arange(n_v)) % n_v]
    w0 = CirculantMatrix.from_base(first_row)

    theta_w = kernel_eigs(w_star)
    w_eigs = np.tile(theta_w[:, None], (1, n_h))
    gamma_eigs = kernel_eigs(image)
    b_eigs = kernel_eigs(np.asarray(mean_image, dtype=float)) if mean_image is not None else None
    return ConvolutionOperators(n_v, n_h, perm, w0, w_eigs, gamma_eigs, b_eigs)
