"""``scripts/csv_digest.py --compare``: the statistical comparator that judges
a change which alters numbers on purpose, on hand-made pairs of directories."""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
import csv_digest  # noqa: E402

_HEADER = "# seed=0\nlambda,sr,ar_mean,ar_stderr\n"


def _write(directory: pathlib.Path, name: str, rows: list[str]) -> None:
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(_HEADER + "".join(row + "\n" for row in rows))


@pytest.fixture
def old(tmp_path):
    _write(tmp_path / "old", "frontier.csv", ["0,1.5,2,0.01", "inf,1.75,1.25,0.02"])
    _write(tmp_path / "old", "same.csv", ["0,1,1,0.5"])
    return tmp_path / "old"


def test_pairs_means_with_their_stderr():
    assert csv_digest.stderr_column("ar_mean") == "ar_stderr"
    assert csv_digest.stderr_column("ar_kf_mean") == "ar_kf_stderr"
    assert csv_digest.stderr_column("cross_term") == "cross_stderr"
    assert csv_digest.stderr_column("sr") == ""


def test_identical_directories_pass(old, capsys):
    assert csv_digest.compare_dirs(old, old) == 0
    assert "2 of 2 files identical" in capsys.readouterr().err


def test_mean_within_four_stderr_passes(tmp_path, old, capsys):
    # |z| = 0.03 / hypot(0.01, 0.01) = 2.1; sr moves by 2 ** -52 relative
    _write(tmp_path / "new", "frontier.csv", ["0,1.5000000000000002,2.03,0.01",
                                              "inf,1.75,1.25,0.02"])
    _write(tmp_path / "new", "same.csv", ["0,1,1,0.5"])
    assert csv_digest.compare_dirs(tmp_path / "new", old) == 0
    err = capsys.readouterr().err
    assert "frontier.csv: ar_mean max |z| 2.12\n" in err
    assert "frontier.csv: sr max relative deviation 1.48e-16\n" in err
    assert "1 of 2 files identical" in err


def test_mean_beyond_four_stderr_fails_unless_allowed(tmp_path, old, capsys):
    # the second row's mean moves by 0.2, |z| = 0.2 / hypot(0.02, 0.02) = 7.1
    _write(tmp_path / "new", "frontier.csv", ["0,1.5,2,0.01", "inf,1.75,1.05,0.02"])
    assert csv_digest.compare_dirs(tmp_path / "new", old) == 1
    assert "frontier.csv: ar_mean max |z| 7.07 FAIL" in capsys.readouterr().err
    assert csv_digest.compare_dirs(tmp_path / "new", old, ["frontier.csv:ar_mean"]) == 0
    assert "frontier.csv: ar_mean max |z| 7.07 (allowed)" in capsys.readouterr().err


def test_changed_row_count_fails(tmp_path, old, capsys):
    _write(tmp_path / "new", "frontier.csv", ["0,1.5,2,0.01"])
    assert csv_digest.compare_dirs(tmp_path / "new", old) == 1
    assert "the header or the row count changed" in capsys.readouterr().err
