"""Design construction: centering, block partitions, least squares, R^2 split.

The intercept is handled by centering and is never a column of X, so p always
counts slopes. Least squares factors the n rows once, by Householder QR, and
then works on small triangles; normal equations are never formed, so the
extreme column scalings of the drifting-sequence experiments stay tractable.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (DataError, DimensionMismatch, RankDeficient)

RANK_RTOL = 1e-10
ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class BlockPartition:
    """Ordered partition of the predictor indices {0..p-1} into k blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __init__(self, blocks) -> None:
        object.__setattr__(
            self, "blocks", tuple(tuple(int(i) for i in b) for b in blocks))
        self._validate()

    def _validate(self) -> None:
        if len(self.blocks) < 1:
            raise DimensionMismatch("partition needs at least one block")
        seen: set[int] = set()
        for b in self.blocks:
            if len(b) == 0:
                raise DimensionMismatch("empty block in partition")
            if seen & set(b):
                raise DimensionMismatch("partition blocks overlap")
            seen |= set(b)
        if seen != set(range(len(seen))):
            raise DimensionMismatch(
                "partition must cover 0..p-1 with no gaps")

    @property
    def k(self) -> int:
        return len(self.blocks)

    @property
    def p(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.blocks)

    @staticmethod
    def single(p: int) -> "BlockPartition":
        return BlockPartition([tuple(range(p))])

    @staticmethod
    def contiguous(sizes) -> "BlockPartition":
        out, start = [], 0
        for s in sizes:
            out.append(tuple(range(start, start + int(s))))
            start += int(s)
        return BlockPartition(out)


@dataclass(frozen=True)
class CenteredDesign:
    """Centered response and column-centered full-rank predictor matrix."""

    y: np.ndarray
    X: np.ndarray
    partition: BlockPartition
    y_mean: float = 0.0
    x_means: np.ndarray | None = None

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        X = np.asarray(self.X, dtype=float)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise DimensionMismatch(
                f"X {X.shape} incompatible with y {y.shape}")
        n, p = X.shape
        if n <= p:
            raise DimensionMismatch(f"need n > p, got n={n}, p={p}")
        if self.partition.p != p:
            raise DimensionMismatch(
                f"partition covers {self.partition.p} columns, X has {p}")
        scale = max(np.max(np.abs(X)), 1.0)
        tol = 1e-10 * n * scale
        if np.max(np.abs(X.sum(axis=0))) > tol:
            raise DimensionMismatch("X columns are not centered")
        yscale = max(np.max(np.abs(y)), 1.0)
        if abs(float(y.sum())) > 1e-10 * n * yscale:
            raise DimensionMismatch("y is not centered")
        if self.x_means is None:
            object.__setattr__(self, "x_means", np.zeros(p))

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    def block(self, i: int) -> np.ndarray:
        return self.X[:, list(self.partition.blocks[i])]


@dataclass(frozen=True)
class FitSummary:
    """Every statistic the Bayes-factor and shrinkage formulas consume.

    one_minus_r2 carries rss / yty directly so 1 - R^2 stays accurate when
    R^2 rounds to 1 in doubles.
    """

    n: int
    p: int
    p_i: tuple[int, ...]
    alpha_hat: float
    beta_hat_ls: np.ndarray
    sigma2_hat: float
    r2: float
    r2_blocks: np.ndarray
    yty: float
    one_minus_r2: float
    block_orthogonal: bool


def rank_check(X: np.ndarray, what: str) -> None:
    """Raise RankDeficient when X's singular values span more than
    1/RANK_RTOL."""
    if min(X.shape) == 0:
        return
    sv = np.linalg.svd(X, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < RANK_RTOL * sv[0]:
        raise RankDeficient(
            f"{what} numerically rank-deficient "
            f"(singular value ratio {sv[-1] / max(sv[0], 1e-300):.2e})")


def center_design(X_raw: np.ndarray, y_raw: np.ndarray,
                  partition: BlockPartition) -> CenteredDesign:
    """Remove column means from X_raw and the mean from y_raw."""
    X_raw = np.asarray(X_raw, dtype=float)
    y_raw = np.asarray(y_raw, dtype=float)
    if X_raw.ndim != 2 or y_raw.ndim != 1 or X_raw.shape[0] != len(y_raw):
        raise DimensionMismatch(
            f"X {X_raw.shape} incompatible with y {y_raw.shape}")
    n, p = X_raw.shape
    if n <= p:
        raise DimensionMismatch(f"need n > p, got n={n}, p={p}")
    x_means = X_raw.mean(axis=0)
    y_mean = float(y_raw.mean())
    X = X_raw - x_means
    y = y_raw - y_mean
    rank_check(X, "centered design")
    return CenteredDesign(y=y, X=X, partition=partition, y_mean=y_mean,
                          x_means=x_means)


def _xy_triangle(d: CenteredDesign) -> np.ndarray:
    """R of [X | y] = Q [R | r_y]: the one factorization a fit or a search
    makes."""
    return np.linalg.qr(np.column_stack([d.X, d.y]), mode="r")


def _rank_check_all(R: np.ndarray) -> None:
    """`rank_check` on the triangle of X, once per fit or search, for R of
    shape (..., p+1, p+1): raises for the first triangle at fault.

    R[:p, :p] has X's singular values, so this repeats the check
    `center_design` makes, for a design built directly. The singular
    values of any column subset of X, and of any residualized block of one,
    lie between X's extremes, so it bounds every model of a search. The
    per-model diagonal check in `_subset_triangles` misses a pair such as
    [q1, 1e11 q1 + q2], whose triangle has a unit diagonal.
    """
    X = R[..., :-1, :-1]
    X = X.reshape((-1,) + X.shape[-2:])
    bad = _rank_faults(X)
    if bad.any():
        rank_check(X[int(bad.argmax())], "centered design")


def _rank_faults(stack: np.ndarray) -> np.ndarray:
    """The matrices of a stack that `rank_check` would refuse."""
    sv = np.linalg.svd(stack, compute_uv=False)
    return (sv[:, 0] == 0.0) | (sv[:, -1] < RANK_RTOL * sv[:, 0])


def _subset_triangles(R: np.ndarray, cols: np.ndarray,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The triangles of [R[:, c] | r_y], one per row c of cols, with each
    model's R^2 and 1-R^2. R may be a stack of shape (..., p+1, p+1), one
    triangle per design; the results then have its leading axes, then one
    axis over the rows of cols.

    A submodel S fits r_y on R[:, S] exactly as it fits y on X[:, S]. The
    triangle of [R[:, S] | r_y] holds the model's own triangle R_S,
    u = Q_S^T y in its last column above the diagonal, and the residual
    norm on the diagonal below u. So fit^2 = |u|^2 and RSS is one squared
    entry, never a difference, and nothing here depends on n. Raises
    RankDeficient when a triangle's diagonal spans more than 1/RANK_RTOL.
    """
    p = R.shape[-1] - 1
    m, s = cols.shape
    lead = R.shape[:-2]
    stack = np.concatenate(
        [R[..., :, cols].swapaxes(-3, -2),
         np.broadcast_to(R[..., None, :, p:], lead + (m, p + 1, 1))],
        axis=-1)
    tri = np.linalg.qr(stack, mode="r")
    diag = np.abs(np.diagonal(tri[..., :s, :s], axis1=-2, axis2=-1))
    if np.any((diag.min(axis=-1) == 0.0)
              | (diag.min(axis=-1) < RANK_RTOL * diag.max(axis=-1))):
        raise RankDeficient("least-squares system rank-deficient")
    u = tri[..., :s, s]
    fit2 = np.sum(u * u, axis=-1)
    rss = tri[..., s, s] ** 2
    total = fit2 + rss
    r2 = np.divide(fit2, total, out=np.zeros(total.shape), where=total > 0)
    omr2 = np.divide(rss, total, out=np.ones(total.shape), where=total > 0)
    return tri, r2, omr2


def fit_least_squares(d: CenteredDesign) -> FitSummary:
    """Joint LS fit with the projection-based per-block R^2 decomposition,
    from the triangle of [X | y]: beta solves R[:p, :p] beta = r_y, and
    block i's R^2 is that of the model holding block i alone.

    RSS is |y - X beta|^2, one more pass over the n rows, not the
    triangle's R[p, p]^2: near saturation the explicit residual keeps
    1 - R^2 closer to its rounding floor eps / sqrt(1 - R^2) (0.53 times
    it at worst, against 1.75 times for R[p, p]^2, over 150 badly scaled
    draws with 1 - R^2 near 1e-12). A search reads R[p, p]^2
    (`_subset_triangles`), where no model has rows of its own.
    """
    n, p = d.n, d.p
    R = _xy_triangle(d)
    _rank_check_all(R)
    # LU of a triangle pivots nowhere: this is back-substitution
    beta = np.linalg.solve(R[:p, :p], R[:p, p])
    fit2 = float(R[:p, p] @ R[:p, p])
    resid = d.y - d.X @ beta
    rss = float(resid @ resid)
    dof = n - p - 1
    sigma2_hat = rss / dof if dof > 0 else 0.0
    r2 = fit2 / (fit2 + rss) if fit2 + rss > 0 else 0.0
    yty = float(d.y @ d.y)
    one_minus_r2 = rss / (fit2 + rss) if fit2 + rss > 0 else 1.0
    r2_blocks = np.array([_subset_triangles(R, np.array([cols]))[1][0]
                          for cols in d.partition.blocks])
    return FitSummary(
        n=n, p=p, p_i=d.partition.sizes, alpha_hat=d.y_mean,
        beta_hat_ls=beta, sigma2_hat=sigma2_hat, r2=r2,
        r2_blocks=r2_blocks, yty=yty, one_minus_r2=one_minus_r2,
        block_orthogonal=check_block_orthogonality(d))


def check_block_orthogonality(d: CenteredDesign) -> bool:
    """True iff max_(i != j) |X_i^T X_j| <= ORTHO_TOL * max column norm^2."""
    k = d.partition.k
    if k == 1:
        return True
    scale = float(np.max(np.sum(d.X * d.X, axis=0)))
    if scale == 0.0:
        return True
    for i in range(k):
        Xi = d.block(i)
        for j in range(i + 1, k):
            if np.max(np.abs(Xi.T @ d.block(j))) > ORTHO_TOL * scale:
                return False
    return True


def block_orthogonalize(d: CenteredDesign,
                        ) -> tuple[CenteredDesign, np.ndarray]:
    """Successive residualization: Q_1 = X_1, Q_j = (I - P_(Q_<j)) X_j.

    Returns the new design plus the block upper-triangular T with X = Q T,
    so fitted values are preserved and coefficients map as kappa = T beta.
    With X = U R in block order, residualized block j is U_j R_jj: so
    Q = U blockdiag(R_jj), T = blockdiag(R_jj)^-1 R, and block j's rank check
    runs on R_jj, which has the residualized block's singular values.
    """
    part = d.partition
    # work in block-contiguous order, then scatter back
    order = [i for b in part.blocks for i in b]
    U, R = np.linalg.qr(d.X[:, order])
    Q = np.empty_like(U)
    T = np.eye(d.p)
    edges = np.cumsum((0,) + part.sizes)
    for bi, (e0, e1) in enumerate(zip(edges[:-1], edges[1:])):
        Rjj = R[e0:e1, e0:e1]
        rank_check(Rjj, f"residualized block {bi + 1}")
        Q[:, e0:e1] = U[:, e0:e1] @ Rjj
        # LU of a triangle pivots nowhere: this is back-substitution
        T[e0:e1, e1:] = np.linalg.solve(Rjj, R[e0:e1, e1:])
    # map back to original column order
    inv = np.argsort(order)
    new_d = CenteredDesign(y=d.y, X=Q[:, inv], partition=part,
                           y_mean=d.y_mean, x_means=d.x_means)
    return new_d, T[np.ix_(inv, inv)]


def load_csv_design(path: str, response: str,
                    block_columns: list[list[str]],
                    ) -> tuple[np.ndarray, np.ndarray, BlockPartition,
                               list[str]]:
    """Read a headed CSV into raw response/predictor arrays plus partition.

    block_columns lists predictor column names per block; every predictor
    used must appear in exactly one block. The header is read with `csv`,
    the body in one pass of `np.loadtxt`, whose parse of a decimal or
    exponent spelling is bitwise the one `float()` gives. Blank lines are
    skipped; cells may be quoted.
    """
    try:
        with open(path, newline="") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise DataError(f"{path}: empty file, header row required")
            flat = _check_columns(header, response, block_columns)
            with warnings.catch_warnings():
                # a header-only file: reported below as a DataError
                warnings.filterwarnings("ignore", "loadtxt: input contained")
                data = np.loadtxt(fh, delimiter=",", ndmin=2, quotechar='"',
                                  comments=None)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}")
    except ValueError as exc:  # from np.loadtxt
        _raise_csv_defect(path, len(header), f"non-numeric cell ({exc})")
    if data.shape[0] == 0:
        raise DataError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        _raise_csv_defect(path, len(header), f"ragged rows ({data.shape[1]} "
                          f"cells per row, header {len(header)})")
    col_of = {name: i for i, name in enumerate(header)}
    y_raw = data[:, col_of[response]]
    X_raw = data[:, [col_of[c] for c in flat]]
    partition = BlockPartition.contiguous([len(b) for b in block_columns])
    return X_raw, y_raw, partition, flat


def _check_columns(header: list[str], response: str,
                   block_columns: list[list[str]]) -> list[str]:
    """The predictor names in block order, after checking that the header
    holds each of them and the response, and that none repeats."""
    if response not in header:
        raise DataError(f"response column {response!r} not in header")
    flat = [c for b in block_columns for c in b]
    if len(set(flat)) != len(flat):
        raise DataError("a predictor column appears in two blocks")
    for c in flat:
        if c not in header:
            raise DataError(f"predictor column {c!r} not in header")
        if c == response:
            raise DataError(f"column {c!r} is both response and predictor")
    if not flat:
        raise DataError("no predictor columns configured")
    return flat


def _raise_csv_defect(path: str, width: int, reason: str):
    """Raise a DataError naming the first row whose cell count differs from
    the header's, or else giving `reason`."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row and len(row) != width:
                raise DataError(
                    f"{path}: ragged rows (line {reader.line_num}: "
                    f"{len(row)} cells, header {width})")
    raise DataError(f"{path}: {reason}")
