"""Tests for the synthetic dataset generators, standardization and CSV I/O."""

import csv

import numpy as np
import pytest

from miclust import DataMatrix, make_circles, make_gaussian_blobs, standardize
from miclust.data import load_csv, make_rng, save_csv, write_csv


def test_make_rng_is_reproducible():
    a = make_rng(7).normal(size=5)
    b = make_rng(7).normal(size=5)
    assert np.array_equal(a, b)


def test_make_rng_accepts_generator_passthrough():
    gen = make_rng(3)
    assert make_rng(gen) is gen


def test_circles_shapes_and_labels():
    dm = make_circles(200, 0.05, 0.1, 0)
    assert dm.values.shape == (200, 2)
    assert dm.labels.shape == (200,)
    assert set(np.unique(dm.labels)) == {0, 1}
    # outer ring gets the ceil(n/2) share and label 0
    assert int((dm.labels == 0).sum()) == 100


def test_circles_odd_n_split():
    dm = make_circles(7, 0.0, 0.5, 0)
    assert int((dm.labels == 0).sum()) == 4
    assert int((dm.labels == 1).sum()) == 3


def test_circles_noiseless_radii():
    dm = make_circles(100, 0.0, 0.25, 0)
    r = np.linalg.norm(dm.values, axis=1)
    assert np.allclose(r[dm.labels == 0], 1.0)
    assert np.allclose(r[dm.labels == 1], 0.25)


def test_circles_rejects_bad_arguments():
    with pytest.raises(ValueError):
        make_circles(1, 0.05, 0.1, 0)
    with pytest.raises(ValueError):
        make_circles(100, -0.1, 0.1, 0)
    with pytest.raises(ValueError):
        make_circles(100, 0.05, 1.5, 0)


def test_blobs_single_row():
    dm = make_gaussian_blobs(np.array([[0.0, 0.0]]), 1.0, 1, 0)
    assert dm.values.shape == (1, 2)
    assert dm.labels.tolist() == [0]


def test_blobs_component_means_recovered():
    means = np.array([[0.0, 0.0], [50.0, 0.0]])
    dm = make_gaussian_blobs(means, 0.1, 500, 0)
    for k in range(2):
        got = dm.values[dm.labels == k].mean(axis=0)
        assert np.allclose(got, means[k], atol=0.05)


def test_standardize_zero_mean_unit_std():
    dm = make_circles(200, 0.05, 0.1, 0)
    out = standardize(dm)
    assert np.allclose(out.values.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.values.std(axis=0), 1.0, atol=1e-12)
    assert np.array_equal(out.labels, dm.labels)


def test_standardize_rejects_constant_column():
    dm = DataMatrix(np.array([[1.0, 2.0], [1.0, 3.0]]), None)
    with pytest.raises(ValueError, match="column 0"):
        standardize(dm)


def test_datamatrix_rejects_non_finite():
    with pytest.raises(ValueError):
        DataMatrix(np.array([[np.nan, 0.0]]), None)


def test_datamatrix_rejects_label_length_mismatch():
    with pytest.raises(ValueError):
        DataMatrix(np.zeros((3, 2)), np.array([0, 1]))


def test_csv_round_trip_with_labels(tmp_path):
    dm = make_circles(50, 0.05, 0.1, 3)
    path = tmp_path / "circles.csv"
    save_csv(dm, path)
    back = load_csv(path)
    assert np.array_equal(back.values, dm.values)
    assert np.array_equal(back.labels, dm.labels)


def test_csv_round_trip_without_labels(tmp_path):
    dm = DataMatrix(make_rng(0).normal(size=(10, 3)), None)
    path = tmp_path / "plain.csv"
    save_csv(dm, path)
    back = load_csv(path)
    assert np.array_equal(back.values, dm.values)
    assert back.labels is None


def _save_csv_row_loop(X, path):
    """`save_csv` as it was, one `writerow` per sample; kept as its oracle."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        header = [f"f{j}" for j in range(X.d)]
        if X.labels is not None:
            header.append("label")
        writer.writerow(header)
        for i in range(X.n):
            row = [repr(float(v)) for v in X.values[i]]
            if X.labels is not None:
                row.append(str(int(X.labels[i])))
            writer.writerow(row)


def _csv_cases():
    gen = make_rng(5)
    awkward = np.array([[0.0, -0.0, 1e-310], [1e308, -1e308, 0.1], [1 / 3, -2.5e-5, 123456789.0]])
    yield pytest.param(DataMatrix(awkward, np.array([0, 1, 2])), id="awkward-floats")
    yield pytest.param(DataMatrix(np.array([[7.0]]), np.array([3])), id="one-by-one")
    for n, d in ((1, 4), (17, 1), (250, 3)):
        values = gen.normal(size=(n, d)) * 10.0 ** gen.integers(-8, 8, size=(n, d))
        yield pytest.param(DataMatrix(values, gen.integers(0, 5, size=n)), id=f"n{n}-d{d}")
    yield pytest.param(make_circles(101, 0.05, 0.3, 2), id="circles")


@pytest.mark.parametrize("labelled", [True, False], ids=["labels", "no-labels"])
@pytest.mark.parametrize("dm", list(_csv_cases()))
def test_save_csv_matches_the_row_loop_byte_for_byte(tmp_path, dm, labelled):
    dm = dm if labelled else DataMatrix(dm.values)
    save_csv(dm, tmp_path / "new.csv")
    _save_csv_row_loop(dm, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_write_csv_writes_the_header_then_the_rows(tmp_path):
    write_csv(tmp_path / "t.csv", ["a", "b"], iter([(0, "x"), (1, "y,z")]))
    assert (tmp_path / "t.csv").read_bytes() == b'a,b\r\n0,x\r\n1,"y,z"\r\n'


@pytest.mark.parametrize("labels", [[0.5, 1.5], [0.0, np.nan], [[0], [1]]], ids=["fractions", "nan", "2d"])
def test_labels_a_cast_would_change_are_rejected(labels):
    with pytest.raises(ValueError, match="labels must be 1-d integers"):
        DataMatrix(np.zeros((2, 2)), labels)


def test_integral_float_labels_are_kept_as_integers():
    dm = DataMatrix(np.zeros((2, 2)), [1.0, 0.0])
    assert dm.labels.dtype == np.int64 and dm.labels.tolist() == [1, 0]
