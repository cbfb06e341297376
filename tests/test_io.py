"""Weight files: numpy's parse, and the line-by-line one that names a bad line."""

import warnings

import numpy as np
import pytest

from modpoisson.io import read_weights_csv


def read_quietly(path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return read_weights_csv(path)


def test_weights_file_skips_comments_and_blank_lines_with_crlf(tmp_path):
    path = tmp_path / "w.csv"
    path.write_bytes(b"# weights\r\n0.25\r\n\r\n  0.5 # half\r\n1e-3\r\n")
    assert read_quietly(path) == [0.25, 0.5, 0.001]


def test_weights_file_round_trips_every_float(tmp_path):
    weights = np.random.default_rng(5).uniform(0.0, 0.05, 1000).tolist()
    path = tmp_path / "w.csv"
    path.write_text("".join(f"{w!r}\n" for w in weights))
    assert read_quietly(path) == weights


@pytest.mark.parametrize("text", ["", "# no weights\n\n"])
def test_empty_weights_file_is_no_weights_and_no_warning(tmp_path, text):
    path = tmp_path / "w.csv"
    path.write_text(text)
    assert read_quietly(path) == []


@pytest.mark.parametrize("text, lineno, token", [
    ("# c\r\n0.25\r\n\r\n0.5 0.25\r\n", 4, "0.5 0.25"),
    ("0.1 0.2\n", 1, "0.1 0.2"),
    ("0.1 0.2\n0.3 0.4\n", 1, "0.1 0.2"),
    ("0.25\n0.5,0.25\n", 2, "0.5,0.25"),
    ("0.25\nabc # note\n", 2, "abc"),
], ids=["two-values-crlf", "one-line-of-two", "every-line-of-two", "comma", "bad-token"])
def test_weights_file_names_its_first_bad_line(tmp_path, text, lineno, token):
    path = tmp_path / "w.csv"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as info:
        read_quietly(path)
    assert str(info.value) == f"{path}:{lineno}: not a probability: {token!r}"


def test_weights_file_accepts_what_float_accepts(tmp_path):
    # underscores and non-ASCII digits are refused by numpy's parser, so the
    # line-by-line read, which takes them as float() does, serves them
    path = tmp_path / "w.csv"
    path.write_text("0.2_5\n١\n")
    assert read_quietly(path) == [0.25, 1.0]
