"""Partitions, centering, least squares, and block orthogonalization."""

import csv

import mpmath
import numpy as np
import pytest

from blockhyperg.design import (BlockPartition, CenteredDesign,
                                block_orthogonalize, center_design,
                                check_block_orthogonality,
                                fit_least_squares, load_csv_design)
from blockhyperg.errors import (DataError, DimensionMismatch, RankDeficient)


def _random_design(n=40, sizes=(2, 3), seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, sum(sizes)))
    y = rng.normal(size=n) + X @ rng.normal(size=sum(sizes))
    return center_design(X, y, BlockPartition.contiguous(sizes))


class TestBlockPartition:
    def test_basic_properties(self):
        part = BlockPartition([(0, 1), (2,)])
        assert part.k == 2 and part.p == 3 and part.sizes == (2, 1)

    def test_contiguous_and_single(self):
        assert BlockPartition.contiguous((2, 2)).blocks == ((0, 1), (2, 3))
        assert BlockPartition.single(3).blocks == ((0, 1, 2),)

    def test_rejects_overlap_gap_empty(self):
        with pytest.raises(DimensionMismatch):
            BlockPartition([(0, 1), (1, 2)])
        with pytest.raises(DimensionMismatch):
            BlockPartition([(0,), (2,)])
        with pytest.raises(DimensionMismatch):
            BlockPartition([(0,), ()])
        with pytest.raises(DimensionMismatch):
            BlockPartition([])


class TestCentering:
    def test_center_design_removes_means(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 3)) + 5.0
        y = rng.normal(size=30) - 2.0
        d = center_design(X, y, BlockPartition.single(3))
        assert abs(d.y.sum()) < 1e-9
        assert np.max(np.abs(d.X.sum(axis=0))) < 1e-9
        assert d.y_mean == pytest.approx(y.mean())
        np.testing.assert_allclose(d.x_means, X.mean(axis=0))

    def test_uncentered_input_rejected(self):
        X = np.ones((10, 1))
        with pytest.raises(DimensionMismatch):
            CenteredDesign(y=np.zeros(10), X=X,
                           partition=BlockPartition.single(1))

    def test_rank_deficiency_detected(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 2))
        X = np.column_stack([X, X[:, 0] + X[:, 1]])
        with pytest.raises(RankDeficient):
            center_design(X, rng.normal(size=20),
                          BlockPartition.single(3))

    def test_needs_more_rows_than_columns(self):
        with pytest.raises(DimensionMismatch):
            center_design(np.eye(3), np.arange(3.0),
                          BlockPartition.single(3))


class TestFit:
    def test_matches_lstsq(self):
        d = _random_design()
        fit = fit_least_squares(d)
        want = np.linalg.lstsq(d.X, d.y, rcond=None)[0]
        np.testing.assert_allclose(fit.beta_hat_ls, want, atol=1e-10)
        resid = d.y - d.X @ want
        dof = d.n - d.p - 1
        assert fit.sigma2_hat == pytest.approx(resid @ resid / dof)
        assert fit.r2 == pytest.approx(
            1.0 - (resid @ resid) / (d.y @ d.y), abs=1e-12)
        assert fit.r2 + fit.one_minus_r2 == pytest.approx(1.0, abs=1e-12)

    def test_block_r2_sums_on_orthogonal_design(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(50, 5))
        X -= X.mean(axis=0)
        q, _ = np.linalg.qr(X)
        y = rng.normal(size=50)
        y -= y.mean()
        d = CenteredDesign(y=y, X=q, partition=BlockPartition.contiguous(
            (2, 3)))
        fit = fit_least_squares(d)
        assert fit.block_orthogonal
        assert float(fit.r2_blocks.sum()) == pytest.approx(fit.r2,
                                                           abs=1e-12)

    def test_near_saturated_badly_scaled_against_mpmath(self):
        # 1-R^2 about 1e-13..1e-12, column scales 1e-3 to 1e3, correlated
        # columns; the reference is a 50-digit fit of the same doubles.
        # 1 - R^2 carries an error of order eps / sqrt(1 - R^2) from the
        # rounding of y itself, whatever the factorization
        eps = np.finfo(float).eps
        with mpmath.workdps(50):
            for seed in range(8):
                rng = np.random.default_rng(seed)
                scales = np.logspace(-3.0, 3.0, 5)
                Z = rng.normal(size=(30, 5))
                Z[:, 1:] += 0.5 * Z[:, :1]
                X = Z * scales
                y = X @ (rng.normal(size=5) / scales) + 1e-6 * rng.normal(
                    size=30)
                d = center_design(X, y, BlockPartition.contiguous((2, 1, 2)))
                fit = fit_least_squares(d)
                Xm, ym = mpmath.matrix(d.X.tolist()), mpmath.matrix(
                    d.y.tolist())
                yty = mpmath.fsum(v ** 2 for v in ym)
                beta = mpmath.lu_solve(Xm.T * Xm, Xm.T * ym)
                omr2 = mpmath.fsum(v ** 2 for v in ym - Xm * beta) / yty
                assert 1e-14 < omr2 < 1e-11
                assert abs(fit.one_minus_r2 - omr2) <= 4 * eps * omr2 / (
                    mpmath.sqrt(omr2))
                for j in range(5):
                    assert abs(fit.beta_hat_ls[j] - beta[j]) <= 1e-12 * abs(
                        beta[j])
                for i, cols in enumerate(d.partition.blocks):
                    Xi = mpmath.matrix(d.X[:, list(cols)].tolist())
                    fitted = Xi * mpmath.lu_solve(Xi.T * Xi, Xi.T * ym)
                    want = mpmath.fsum(v ** 2 for v in fitted) / yty
                    assert abs(fit.r2_blocks[i] - want) <= 1e-13 * want

    def test_saturated_dof(self):
        rng = np.random.default_rng(9)
        d = center_design(rng.normal(size=(4, 3)), rng.normal(size=4),
                          BlockPartition.single(3))
        assert fit_least_squares(d).sigma2_hat == 0.0


class TestOrthogonalize:
    def test_factorization_and_orthogonality(self):
        d = _random_design(sizes=(2, 2, 1), seed=7)
        assert not check_block_orthogonality(d)
        q, T = block_orthogonalize(d)
        assert check_block_orthogonality(q)
        np.testing.assert_allclose(q.X @ T, d.X, atol=1e-9)
        # T is unit lower-triangular in block structure: same fitted values
        f0 = d.X @ fit_least_squares(d).beta_hat_ls
        f1 = q.X @ fit_least_squares(q).beta_hat_ls
        np.testing.assert_allclose(f0, f1, atol=1e-9)

    def test_t_has_identity_diagonal_blocks(self):
        for part in (BlockPartition.contiguous((2, 2, 1)),
                     BlockPartition([(0, 3), (1, 2), (4,)])):
            rng = np.random.default_rng(11)
            d = center_design(rng.normal(size=(30, 5)), rng.normal(size=30),
                              part)
            _, T = block_orthogonalize(d)
            for b in part.blocks:
                assert np.array_equal(T[np.ix_(b, b)], np.eye(len(b)))

    def test_coefficients_map_through_t(self):
        d = _random_design(sizes=(3, 2), seed=8)
        q, T = block_orthogonalize(d)
        beta = fit_least_squares(d).beta_hat_ls
        kappa = fit_least_squares(q).beta_hat_ls
        np.testing.assert_allclose(T @ beta, kappa, atol=1e-9)

    def test_noncontiguous_partition(self):
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 4))
        part = BlockPartition([(0, 3), (1, 2)])
        d = center_design(X, rng.normal(size=30), part)
        q, T = block_orthogonalize(d)
        assert check_block_orthogonality(q)
        np.testing.assert_allclose(q.X @ T, d.X, atol=1e-9)


class TestCsv:
    def _write(self, path, header, rows):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            w.writerows(rows)

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "d.csv"
        rng = np.random.default_rng(0)
        data = rng.normal(size=(12, 3))
        self._write(path, ["y", "a", "b"], data.tolist())
        X, y, part, names = load_csv_design(str(path), "y", [["b"], ["a"]])
        np.testing.assert_allclose(y, data[:, 0])
        np.testing.assert_allclose(X[:, 0], data[:, 2])  # b first
        assert part.sizes == (1, 1)
        assert names == ["b", "a"]

    def test_error_modes(self, tmp_path):
        path = tmp_path / "d.csv"
        self._write(path, ["y", "a"], [[1.0, 2.0]])
        with pytest.raises(DataError):
            load_csv_design(str(path), "missing", [["a"]])
        with pytest.raises(DataError):
            load_csv_design(str(path), "y", [["a"], ["a"]])
        with pytest.raises(DataError):
            load_csv_design(str(path), "y", [["y"]])
        with pytest.raises(DataError):
            load_csv_design(str(tmp_path / "nope.csv"), "y", [["a"]])
        bad = tmp_path / "bad.csv"
        self._write(bad, ["y", "a"], [[1.0, "zzz"]])
        with pytest.raises(DataError):
            load_csv_design(str(bad), "y", [["a"]])

    def _load_text(self, tmp_path, text):
        path = tmp_path / "t.csv"
        path.write_text(text)
        return load_csv_design(str(path), "y", [["a"]])

    def test_ragged_row_names_its_line(self, tmp_path):
        with pytest.raises(DataError, match=r"ragged rows \(line 3"):
            self._load_text(tmp_path, "y,a\n1,2\n3\n4,5\n")
        with pytest.raises(DataError, match=r"ragged rows \(line 2"):
            self._load_text(tmp_path, "y,a\n1,2,3\n")

    @pytest.mark.parametrize("text", ["y,a\n1,2\n3,4\n\n",
                                      "y,a\n1,2\n\n3,4\n",
                                      "y,a\r\n1,2\r\n3,4\r\n"])
    def test_blank_lines_skipped(self, tmp_path, text):
        X, y, _, _ = self._load_text(tmp_path, text)
        assert y.tolist() == [1.0, 3.0] and X[:, 0].tolist() == [2.0, 4.0]

    def test_quoted_cell_and_single_row(self, tmp_path):
        X, y, _, _ = self._load_text(tmp_path, 'y,a\n"1.5",-2e-3\n')
        assert X.shape == (1, 1) and y.tolist() == [1.5]
        assert X[0, 0] == -2e-3

    def test_header_only_and_non_numeric(self, tmp_path):
        with pytest.raises(DataError, match="no data rows"):
            self._load_text(tmp_path, "y,a\n")
        with pytest.raises(DataError, match="non-numeric cell"):
            self._load_text(tmp_path, "y,a\n1,zzz\n")
        # a spelling only float() accepts
        with pytest.raises(DataError, match="non-numeric cell"):
            self._load_text(tmp_path, "y,a\n1_0,2\n")

    def test_bitwise_equal_to_float(self, tmp_path):
        rng = np.random.default_rng(2)
        vals = rng.normal(size=3000) * 10.0 ** rng.uniform(-300, 300, 3000)
        vals[:8] = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                    -0.0, 0.1, 1.0 / 3.0, 1e-300, 1e300]
        cells = [repr(float(v)) for v in vals]
        rows = [cells[i:i + 3] for i in range(0, len(cells), 3)]
        path = tmp_path / "x.csv"
        self._write(path, ["y", "a", "b"], rows)
        X, y, _, _ = load_csv_design(str(path), "y", [["a", "b"]])
        got = np.column_stack([y, X]).ravel()
        want = np.array([float(c) for c in cells])
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
