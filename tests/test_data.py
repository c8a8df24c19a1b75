"""Parser, container and feature-statistics tests."""

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from svmscreen import (
    DataFormatError,
    Dataset,
    parse_sparse_text,
    read_sparse_file,
    serialize_sparse_text,
)
from svmscreen import data, kernels

from conftest import random_dataset


def test_parse_two_sample_example():
    ds = parse_sparse_text("+1 1:2\n-1 2:1\n")
    assert ds.n_samples == 2
    assert ds.n_features == 2
    np.testing.assert_array_equal(ds.labels, [1.0, -1.0])
    np.testing.assert_array_equal(ds.to_dense(), [[2.0, 0.0], [0.0, 1.0]])


def test_parse_skips_comments_blanks_and_crlf():
    text = "# header\r\n\r\n+1 1:1.5 3:2\r\n\n# tail\n-1 2:-4\n"
    ds = parse_sparse_text(text)
    assert ds.n_samples == 2
    assert ds.n_features == 3
    np.testing.assert_array_equal(ds.to_dense(), [[1.5, 0.0, 2.0], [0.0, -4.0, 0.0]])


def test_parse_maps_labels_by_sign():
    ds = parse_sparse_text("3 1:1\n0 1:1\n-2.5 1:1\n")
    np.testing.assert_array_equal(ds.labels, [1.0, -1.0, -1.0])


@pytest.mark.parametrize(
    "text, message",
    [
        ("x 1:1\n", "line 1: bad label token 'x'"),
        ("+1 1:1\n-1 oops\n", "line 2: expected index:value, got 'oops'"),
        ("+1 a:1\n", "line 1: expected index:value, got 'a:1'"),
        ("+1 1:b\n", "line 1: expected index:value, got '1:b'"),
        ("+1 0:1\n", "line 1: indices are 1-based, got 0"),
        ("+1 2:1 2:3\n", "line 1: index 2 is not increasing"),
        ("+1 3:1 2:3\n", "line 1: index 2 is not increasing"),
        ("# only comments\n", "no data lines found"),
        ("+1\n-1\n", "no features present in any line"),
        ("+1 1.5:3\n", "line 1: expected index:value, got '1.5:3'"),
        ("+1 1e0:3\n", "line 1: expected index:value, got '1e0:3'"),
        ("+1 1:\n", "line 1: expected index:value, got '1:'"),
        ("+1 :1\n", "line 1: expected index:value, got ':1'"),
        ("+1 1:2:3\n", "line 1: expected index:value, got '1:2:3'"),
        ("+1 1_0:1\n", "line 1: expected index:value, got '1_0:1'"),
        ("+1 1:1_0\n", "line 1: expected index:value, got '1:1_0'"),
        ("+1 1:nan(1)\n", "line 1: expected index:value, got '1:nan(1)'"),
        ("+1 1:nan\n", "line 1: feature values must be finite, got '1:nan'"),
        ("+1 1:-Infinity\n", "line 1: feature values must be finite, got '1:-Infinity'"),
        ("+1 1:2 2:1e999\n", "line 1: feature values must be finite, got '2:1e999'"),
        ("+1 3:nan 2:1\n", "line 1: feature values must be finite, got '3:nan'"),
        ("+1 2147483648:1\n", "line 1: index 2147483648 exceeds the largest allowed index 2147483647"),
        (
            "+1 1:1\n-1 99999999999999999999:1\n",
            "line 2: index 99999999999999999999 exceeds the largest allowed index 2147483647",
        ),
        # The first bad line in file order is named, whichever check finds it.
        ("+1 1:1\n-1 2:1 1:1\nx 1:1\n", "line 2: index 1 is not increasing"),
        ("+1 1:1\n-1 1:1e999\n-1 oops\n", "line 2: feature values must be finite, got '1:1e999'"),
        ("+1 5:1\n\n-1 1:1 0:1\n-1 oops\n", "line 3: indices are 1-based, got 0"),
        # Rejecting a long line takes time linear in its length.
        (
            "+1 " + " ".join(f"{j}:{'1' * 12}" for j in range(1, 40)) + " x\n",
            "line 1: expected index:value, got 'x'",
        ),
    ],
)
def test_parse_error_messages(text, message):
    with pytest.raises(DataFormatError) as err:
        parse_sparse_text(text)
    assert str(err.value) == message


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


def _assert_same_arrays(ds, expected):
    assert (ds.n_samples, ds.n_features) == (expected.n_samples, expected.n_features)
    for name in ("col_ptr", "row_idx", "labels"):
        np.testing.assert_array_equal(getattr(ds, name), getattr(expected, name))
    np.testing.assert_array_equal(_bits(ds.values), _bits(expected.values))


def reference_parse(text):
    """Token-by-token reading of the documented format, built with loops.

    parse_sparse_text must return the same arrays or raise the same message.
    """
    labels, rows = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        try:
            label = float(tokens[0])
        except ValueError:
            raise DataFormatError(f"line {lineno}: bad label token {tokens[0]!r}") from None
        row, previous = [], 0
        for token in tokens[1:]:
            head, sep, tail = token.partition(":")
            try:
                if not (sep and re.fullmatch("[+-]?[0-9]+", head)):
                    raise ValueError
                if not tail.isascii() or "_" in tail:
                    raise ValueError
                index, value = int(head), float(tail)
            except ValueError:
                raise DataFormatError(f"line {lineno}: expected index:value, got {token!r}") from None
            if index < 1:
                raise DataFormatError(f"line {lineno}: indices are 1-based, got {index}")
            if index > 2**31 - 1:
                raise DataFormatError(
                    f"line {lineno}: index {index} exceeds the largest allowed index {2**31 - 1}"
                )
            if index <= previous:
                raise DataFormatError(f"line {lineno}: index {index} is not increasing")
            if not np.isfinite(value):
                raise DataFormatError(f"line {lineno}: feature values must be finite, got {token!r}")
            row.append((index - 1, value))
            previous = index
        labels.append(1.0 if label > 0 else -1.0)
        rows.append(row)
    if not labels:
        raise DataFormatError("no data lines found")
    m = max((row[-1][0] + 1 for row in rows if row), default=0)
    if m == 0:
        raise DataFormatError("no features present in any line")
    columns = [([], []) for _ in range(m)]
    for i, row in enumerate(rows):
        for j, value in row:
            columns[j][0].append(i)
            columns[j][1].append(value)
    return Dataset.from_columns(columns, labels)


FUZZ_TOKENS = [
    "1:1", "2:-0.5", "3:1e-3", "+4:.25", "5:7.", "7:-0.0", "9:1E+2", "12:5e-324", "2:1", "1:2",
    "0:1", "-3:1", "2147483648:1", "1:nan", "1:-inf", "1:1e999", "1:nan(2)",
    "1.5:3", "1e0:3", "1:", ":1", "1:2:3", "1_0:1", "1:1_0", "oops", "a:1", "1:b", "1:0x10",
]
FUZZ_LABELS = ["+1", "-1", "1", "0", "-2.5", "1e0", "x", "#", "#c"]
FUZZ_SPACES = [" ", "  ", "\t", "\u00a0", "\x1f", " \t "]
FAULT_KINDS = (
    "bad label", "expected index:value", "1-based", "exceeds", "not increasing",
    "finite", "no data", "no features",
)


def test_parse_matches_token_by_token_reference():
    rng = np.random.default_rng(3)
    outcomes = set()
    for trial in range(600):
        lines = []
        for _ in range(rng.integers(1, 5)):
            if rng.random() < 0.1:
                lines.append(str(rng.choice(["", "   ", "# note"])))
                continue
            # Mostly well-formed lines: increasing indices from a clean vocabulary.
            if rng.random() < 0.6:
                cols = np.sort(rng.choice(40, rng.integers(0, 5), replace=False)) + 1
                tokens = [f"{c}:{rng.standard_normal():.4g}" for c in cols]
                label = str(rng.choice(FUZZ_LABELS[:6]))
            else:
                tokens = list(rng.choice(FUZZ_TOKENS, rng.integers(0, 4)))
                label = str(rng.choice(FUZZ_LABELS))
            line = label
            for token in tokens:
                line += str(rng.choice(FUZZ_SPACES)) + token
            lines.append(line + str(rng.choice(["", " ", "\t"])))
        text = str(rng.choice(["\n", "\r\n"])).join(lines) + "\n"
        try:
            expected = reference_parse(text)
        except DataFormatError as err:
            with pytest.raises(DataFormatError) as got:
                parse_sparse_text(text)
            assert str(got.value) == str(err), text
            outcomes.add(next(kind for kind in FAULT_KINDS if kind in str(err)))
            continue
        ds = parse_sparse_text(text)
        outcomes.add("ok")
        assert (ds.n_samples, ds.n_features) == (expected.n_samples, expected.n_features), text
        for name in ("col_ptr", "row_idx", "labels"):
            np.testing.assert_array_equal(getattr(ds, name), getattr(expected, name), err_msg=text)
        np.testing.assert_array_equal(_bits(ds.values), _bits(expected.values), err_msg=text)
    assert outcomes == {"ok", *FAULT_KINDS}


@pytest.mark.parametrize(
    "text",
    [
        # \x0b, \x0c and \x1c end a line, so the pair after them is read as a label.
        *(f"+1 1:1{sep}2:3\n-1 1:2\n" for sep in ("\x0b", "\x0c", "\x1c", "\x1f", " ")),
        "+1 1:1 \t\x1f \u00a0\u2003 2:3\t \n-1\t\t1:2  \x1f3:4\n",
        "+1 +0005:1\n",
        "+1 -0:1\n",
        "+1 1:+.5e-3\n",
        "+1 1:-0.0\n",
        "+1 1:7.\n",
        "+1 1e3:2\n",
        "+1 1:1.2.3\n",
        "+1 1:e5\n",
        "+1 1:--5\n",
        "+1 " + "1" * 25 + ":1\n",
        "+1 1:1\n-1\n+1 2:5\n",
        "+1\n-1 2:1 1:1\n",
        "+1 1:1\n-1 2:.5",
        "+1 1:1\n-1",
    ],
)
def test_grammar_corners_match_reference(text):
    try:
        expected = reference_parse(text)
    except DataFormatError as err:
        with pytest.raises(DataFormatError) as got:
            parse_sparse_text(text)
        assert str(got.value) == str(err)
        return
    _assert_same_arrays(parse_sparse_text(text), expected)


# Lines with comments, CRLF ends, tabs, \x1f and a label alone.  An ASCII
# file is read as bytes; Unicode whitespace sends it through str.split() first.
VALID_TEXT = (
    "# header\r\n+1 1:0.5\t3:-2\r\n\r\n-1 2:1e-3  4:7.\r\n"
    "# note\n+1\n-1 1:+.25\x1f5:-0.0 \n+1\t6:3"
)


@pytest.mark.parametrize(
    "text", [VALID_TEXT, VALID_TEXT.replace("-1 2", "-1\u00a02").replace("  4", "\u20034")]
)
def test_valid_file_never_reaches_the_line_scan(monkeypatch, text):
    expected = reference_parse(text)

    def scan(*args):
        raise AssertionError("a valid file reached the per-line scan")

    monkeypatch.setattr(data, "_line_fault", scan)
    _assert_same_arrays(parse_sparse_text(text), expected)


def test_a_warning_from_the_record_read_rejects_the_file(monkeypatch):
    # Some numpy releases read "1.0" into an integer field through a float
    # and only emit a DeprecationWarning; the parser must still reject it.
    def lenient_loadtxt(*args, **kwargs):
        warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
        return np.array([(1, 2.0)], dtype=[("index", np.int64), ("value", np.float64)])

    monkeypatch.setattr(np, "loadtxt", lenient_loadtxt)
    with pytest.raises(DataFormatError) as err:
        parse_sparse_text("+1 1.0:2\n")
    assert str(err.value) == "line 1: expected index:value, got '1.0:2'"


def test_parse_accepts_any_whitespace_and_signed_indices():
    text = "+1\t1:1\t+2:-3\n-1 1:.5\u00a0 3:2.\x1f4:1e-3  \n"
    ds = parse_sparse_text(text)
    np.testing.assert_array_equal(ds.to_dense(), [[1.0, -3.0, 0.0, 0.0], [0.5, 0.0, 2.0, 1e-3]])


def test_parsed_values_equal_float_bit_for_bit():
    rng = np.random.default_rng(11)
    # Random bit patterns cover both signs and every exponent, subnormals included.
    patterns = rng.integers(0, 2**64, 4000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([
        patterns[np.isfinite(patterns)],
        rng.uniform(-1, 1, 500) * 2.0**-1022,  # subnormals
        rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(299, 300, 500),
        rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-300, -299, 500),
        [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308],
    ])
    rng.shuffle(values)
    n = 20
    rows = np.arange(values.size) % n
    # One entry per column keeps the entries in file order.
    columns = [(np.array([i]), np.array([v])) for i, v in zip(rows, values)]
    labels = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    ds = Dataset.from_columns(columns, labels)
    back = parse_sparse_text(serialize_sparse_text(ds))
    np.testing.assert_array_equal(_bits(back.values), _bits(values))

    digits = rng.integers(0, 10, (2000, 17))
    exponents = rng.integers(-330, 310, 2000)
    tokens = [
        "%s%d.%se%d" % (sign, d[0], "".join(map(str, d[1:])), e)
        for sign, d, e in zip(rng.choice(["", "-", "+"], 2000), digits, exponents)
    ]
    tokens += ["%.25e" % v for v in values]
    tokens = [t for t in tokens if np.isfinite(float(t))]
    text = "+1 " + " ".join(f"{j + 1}:{t}" for j, t in enumerate(tokens)) + "\n"
    back = parse_sparse_text(text)
    np.testing.assert_array_equal(_bits(back.values), _bits([float(t) for t in tokens]))


def test_parse_peak_memory_stays_near_the_text_size():
    rng = np.random.default_rng(5)
    n, per_row, m = 2000, 50, 20000
    lines = []
    for i in range(n):
        cols = np.sort(rng.choice(m, per_row, replace=False)) + 1
        vals = rng.standard_normal(per_row)
        lines.append(("+1" if i % 2 else "-1") + "".join(f" {c}:{v:.6g}" for c, v in zip(cols, vals)))
    text = "\n".join(lines) + "\n"
    tracemalloc.start()
    try:
        parse_sparse_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * len(text)


def test_index_beyond_physical_memory_is_a_parse_error(monkeypatch):
    # With the probe at 1600 bytes, index 99 needs 16 * 100 bytes and fits
    # while index 100 needs 1616 and does not; nothing large is allocated.
    monkeypatch.setattr(data, "_physical_memory", lambda: 1600)
    assert parse_sparse_text("+1 99:1\n").n_features == 99
    with pytest.raises(DataFormatError, match=r"^line 3: index 100 needs 1616 bytes"):
        parse_sparse_text("+1 1:1\n# comment\n-1 5:2 100:1\n")


def test_serialize_parse_round_trip():
    rng = np.random.default_rng(7)
    for trial in range(20):
        ds = random_dataset(rng, n=rng.integers(2, 9), m=rng.integers(1, 12), density=0.5)
        if ds.values.size == 0:
            continue  # an all-zero matrix has no text representation
        back = parse_sparse_text(serialize_sparse_text(ds))
        # Trailing all-zero columns are unrepresentable in the text format.
        assert back.n_features <= ds.n_features
        np.testing.assert_array_equal(back.labels, ds.labels)
        dense = ds.to_dense()
        np.testing.assert_array_equal(back.to_dense(), dense[:, : back.n_features])
        assert np.all(dense[:, back.n_features :] == 0.0)


def test_read_sparse_file(tmp_path):
    target = tmp_path / "toy.txt"
    target.write_text("+1 1:2\n-1 2:1\n", encoding="utf-8")
    ds = read_sparse_file(target)
    assert ds.n_samples == 2
    np.testing.assert_array_equal(ds.to_dense(), [[2.0, 0.0], [0.0, 1.0]])


def test_read_sparse_file_skips_a_byte_order_mark(tmp_path):
    text = "+1 1:2\n-1 2:1.5 3:-4\n"
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    want, got = read_sparse_file(plain), read_sparse_file(marked)
    assert (got.n_samples, got.n_features) == (want.n_samples, want.n_features) == (2, 3)
    for name in ("col_ptr", "row_idx", "values", "labels"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def test_from_dense_round_trip_and_exact_nonzeros():
    x = np.array([[0.0, 1.0, -2.0], [3.0, 0.0, 0.0]])
    ds = Dataset.from_dense(x, [1, -1])
    np.testing.assert_array_equal(ds.to_dense(), x)
    idx, vals = ds.column(1)
    np.testing.assert_array_equal(idx, [0])
    np.testing.assert_array_equal(vals, [1.0])
    idx, vals = ds.column(0)
    np.testing.assert_array_equal(idx, [1])


def test_from_dense_maps_labels_by_sign():
    ds = Dataset.from_dense(np.ones((3, 1)), [2.0, 0.0, -7.0])
    np.testing.assert_array_equal(ds.labels, [1.0, -1.0, -1.0])


@pytest.mark.parametrize(
    "matrix", [np.float64(1.0), np.array([1.0, 2.0, 0.0]), np.ones((3, 2, 2))], ids=["0d", "1d", "3d"]
)
def test_from_dense_needs_a_2d_matrix(matrix):
    # A 1-d array would iterate as scalars and a 3-d one as matrices.
    with pytest.raises(ValueError, match=f"matrix must be 2-d, not {np.ndim(matrix)}-d"):
        Dataset.from_dense(matrix, [1, -1, 1])


def test_subset_preserves_columns_and_order():
    rng = np.random.default_rng(11)
    ds = random_dataset(rng, 6, 8, density=0.6)
    sub = ds.subset([5, 0, 3])
    dense = ds.to_dense()
    np.testing.assert_array_equal(sub.to_dense(), dense[:, [5, 0, 3]])
    np.testing.assert_array_equal(sub.labels, ds.labels)


def test_subset_matches_per_column_reference():
    # The column-by-column construction subset used to run, kept as the
    # reference for its one-gather form.
    def reference(ds, indices):
        cols = [ds.column(j) for j in indices]
        return Dataset.from_columns(cols, ds.labels, n_samples=ds.n_samples)

    rng = np.random.default_rng(37)
    x = rng.normal(size=(9, 7))
    x[rng.random(size=x.shape) >= 0.4] = 0.0
    x[:, [0, 3, 6]] = 0.0  # empty first, middle and last columns
    y = random_dataset(rng, 9, 1).labels
    datasets = [
        Dataset.from_dense(x, y),
        Dataset.from_dense(rng.normal(size=(9, 7)), y),
        Dataset.from_dense(np.zeros((9, 7)), y),  # no stored entries at all
    ]
    index_sets = [[0, 1, 2, 3, 4, 5, 6], [6, 0, 3], [2, 2, 5, 2], [5, 1, 4, 0], [3], [6]]
    for ds in datasets:
        for indices in index_sets:
            sub, ref = ds.subset(indices), reference(ds, indices)
            for name in ("n_samples", "n_features", "n_pos", "n_neg"):
                assert getattr(sub, name) == getattr(ref, name)
            for name in ("col_ptr", "row_idx", "values", "labels"):
                got, want = getattr(sub, name), getattr(ref, name)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)


def test_column_norms_are_stored_once():
    # The norms and the statistics live in buffers of their own, whichever
    # is built first: the stats are three rows, none of them the norms, and
    # sq_norm holds a fresh sum's values bit for bit.  A subset takes the
    # kept columns' norms as an array of k values, not a row of a larger one.
    rng = np.random.default_rng(47)
    x = rng.normal(size=(8, 6)) * (rng.random(size=(8, 6)) < 0.5)
    y = random_dataset(rng, 8, 1).labels
    for first in ("sq_norm", "stats"):
        ds = Dataset.from_dense(x, y)
        fresh = kernels.column_sq_norms(ds.col_ptr, ds.values)
        getattr(ds, first)
        assert ds.stats.shape == (3, 6)
        assert not np.shares_memory(ds.sq_norm, ds.stats)
        assert ds.sq_norm.shape == (6,) and ds.sq_norm.base is None
        assert ds.sq_norm.tobytes() == fresh.tobytes()
        sub = ds.subset([4, 1, 1])
        assert sub.sq_norm.shape == (3,) and sub.sq_norm.base is None
        assert sub.sq_norm.tobytes() == fresh[[4, 1, 1]].tobytes()


def test_subset_hands_down_the_statistics_bit_for_bit():
    # A subset of a Dataset that has built its column norms takes them
    # indexed by the kept columns, equal bit for bit to a fresh sum on the
    # subset; before the parent builds them the child has none of its own.
    # The child's stats come from its own pass, equal bit for bit to the
    # parent's rows: each column's sums read the same entries in order.
    rng = np.random.default_rng(43)
    x = rng.normal(size=(9, 7)) * 10.0 ** rng.uniform(-2, 2, 7)
    x[rng.random(size=x.shape) >= 0.4] = 0.0
    x[:, [0, 3, 6]] = 0.0  # empty first, middle and last columns
    y = random_dataset(rng, 9, 1).labels
    for ds in (Dataset.from_dense(x, y), Dataset.from_dense(rng.normal(size=(9, 7)), y)):
        for indices in ([0, 1, 2, 3, 4, 5, 6], [6, 0, 3], [2, 2, 5, 2], [5, 1, 4, 0], [3]):
            assert "sq_norm" not in ds.subset(indices).__dict__
        ds.stats, ds.sq_norm  # built on first use
        for indices in ([0, 1, 2, 3, 4, 5, 6], [6, 0, 3], [2, 2, 5, 2], [5, 1, 4, 0], [3]):
            sub = ds.subset(indices)
            assert "sq_norm" in sub.__dict__ and "stats" not in sub.__dict__
            fresh = kernels.column_sq_norms(sub.col_ptr, sub.values)
            assert sub.sq_norm.tobytes() == fresh.tobytes()
            assert sub.sq_norm.tobytes() == ds.sq_norm[indices].tobytes()
            rows = zip(("dot_y", "dot_one", "proj_y_norm"), sub.stats, ds.stats[:, indices])
            for name, got, want in rows:
                assert got.tobytes() == want.tobytes(), name


def test_column_restricted_rmatvec_matches_full_product(monkeypatch):
    rng = np.random.default_rng(41)
    x = rng.normal(size=(9, 7))
    x[rng.random(size=x.shape) >= 0.4] = 0.0
    x[:, [0, 3, 6]] = 0.0  # empty first, middle and last columns
    y = random_dataset(rng, 9, 1).labels
    u = rng.normal(size=9)
    sparse, dense = Dataset.from_dense(x, y), Dataset.from_dense(rng.normal(size=(9, 7)), y)
    assert sparse.dense_block is None and dense.dense_block is not None
    gathers = []
    entries = kernels.column_entries

    def counted(col_ptr, cols):
        gathers.append(cols)
        return entries(col_ptr, cols)

    monkeypatch.setattr(kernels, "column_entries", counted)
    # Fewer than half the 7 features are gathered on sparse data; 4 or more
    # take the full product, as dense data always does.
    index_sets = [[0, 1, 2, 3, 4, 5, 6], [6, 0, 3], [2, 2, 5, 2], [5, 1, 4, 0], [3], []]
    for indices in index_sets:
        cols = np.array(indices, dtype=np.int64)
        # Each column sums its stored entries in the same order either way.
        for ds in (sparse, dense):
            gathers.clear()
            assert ds.rmatvec(u, cols=cols).tobytes() == ds.rmatvec(u)[cols].tobytes()
            gathered = ds is sparse and 2 * cols.size < 7
            assert len(gathers) == int(gathered), indices


def test_column_restricted_rmatvec_takes_any_index_sequence():
    # Like subset, rmatvec takes a list, a tuple or an unsorted array of
    # indices, and each gives those rows of the full product bit for bit.
    rng = np.random.default_rng(53)
    x = rng.normal(size=(20, 30))
    y = random_dataset(rng, 20, 1).labels
    u = rng.normal(size=20)
    sparse = Dataset.from_dense(x * (rng.random(size=x.shape) < 0.2), y)
    dense = Dataset.from_dense(x, y)
    assert sparse.dense_block is None and dense.dense_block is not None
    for ds in (sparse, dense):
        full = ds.rmatvec(u)
        for cols in ([1, 2], (29, 0, 7), np.array([17, 3, 3, 11]), list(range(29, 0, -2))):
            assert ds.rmatvec(u, cols=cols).tobytes() == full[np.array(cols)].tobytes()


def test_products_need_a_vector_of_the_right_length():
    # The sparse products would read only the first entries of a long
    # vector and fail on a short one with an IndexError; BLAS refuses both.
    rng = np.random.default_rng(67)
    x = rng.normal(size=(8, 12))
    y = random_dataset(rng, 8, 1).labels
    sparse = Dataset.from_dense(x * (rng.random(size=x.shape) < 0.3), y)
    dense = Dataset.from_dense(x, y)
    assert sparse.dense_block is None and dense.dense_block is not None
    for ds in (sparse, dense):
        for size in (0, 7, 10, 64):
            with pytest.raises(ValueError, match=r"sample vector must have shape \(8,\)"):
                ds.rmatvec(np.ones(size))
            with pytest.raises(ValueError, match=r"sample vector must have shape \(8,\)"):
                ds.rmatvec(np.ones(size), cols=[1, 2])
        for size in (0, 11, 17):
            with pytest.raises(ValueError, match=r"weights must have shape \(12,\)"):
                ds.matvec(np.ones(size))
        with pytest.raises(ValueError, match=r"weights must have shape \(12,\), not \(12, 1\)"):
            ds.matvec(np.ones((12, 1)))
        # The right lengths still give the products.
        np.testing.assert_allclose(ds.rmatvec(np.ones(8)), ds.to_dense().sum(axis=0))
        np.testing.assert_allclose(ds.matvec(np.ones(12)), ds.to_dense().sum(axis=1))


def test_column_restricted_rmatvec_of_no_features_is_empty():
    # np.asarray of an empty list or tuple is float64; it still selects no
    # feature.  A nonempty float or boolean index is still refused, and a
    # subset still needs a feature.
    rng = np.random.default_rng(61)
    x = rng.normal(size=(8, 12))
    y = random_dataset(rng, 8, 1).labels
    u = rng.normal(size=8)
    sparse = Dataset.from_dense(x * (rng.random(size=x.shape) < 0.3), y)
    dense = Dataset.from_dense(x, y)
    assert sparse.dense_block is None and dense.dense_block is not None
    for ds in (sparse, dense):
        for cols in ([], (), np.array([], dtype=np.int64)):
            out = ds.rmatvec(u, cols=cols)
            assert out.shape == (0,) and out.dtype == np.float64
        for cols in ([1.0], (0.0, 2.0), [True] * 12, np.array([0.0])):
            with pytest.raises(ValueError, match="feature indices must be integers"):
                ds.rmatvec(u, cols=cols)
        for cols in ([], ()):
            with pytest.raises(ValueError, match="need at least one feature"):
                ds.subset(cols)


def test_matvec_with_few_nonzero_weights_matches_full_product(monkeypatch):
    rng = np.random.default_rng(43)
    x = rng.normal(size=(60, 800))
    x[rng.random(size=x.shape) >= 0.4] = 0.0
    empty = [0, 400, 799]  # empty first, middle and last columns
    x[:, empty] = 0.0
    y = random_dataset(rng, 60, 1).labels
    large, small = Dataset.from_dense(x, y), Dataset.from_dense(x[:, :100], y)
    assert large.dense_block is None and large.values.size >= data.SPARSE_MATVEC_FROM
    assert small.dense_block is None and small.values.size < data.SPARSE_MATVEC_FROM
    gathers = []
    entries = kernels.column_entries

    def counted(col_ptr, cols):
        gathers.append(cols)
        return entries(col_ptr, cols)

    monkeypatch.setattr(kernels, "column_entries", counted)
    for ds in (large, small):
        m = ds.n_features
        weights = [np.zeros(m)]  # all zero
        for k in (1, 5, m // 8 - 1, m // 8):
            v = np.zeros(m)
            v[rng.choice(m, size=k, replace=False)] = rng.normal(size=k)
            weights.append(v)
        v = np.zeros(m)
        v[[j for j in empty if j < m]] = 1.0  # nonzero on empty columns alone
        v[1] = -0.0
        weights.append(v)
        for v in weights:
            gathers.clear()
            # Skipped products are exact zeros; the rest sum in entry order.
            full = kernels.csc_matvec(ds.col_ptr, ds.row_idx, ds.values, v, ds.n_samples)
            assert ds.matvec(v).tobytes() == full.tobytes()
            gathered = ds is large and 8 * np.count_nonzero(v) < m
            assert len(gathers) == int(gathered)


def test_feature_indices_outside_the_range_are_rejected():
    # A negative index does not count from the end, and one past the last
    # feature is named as such rather than failing inside the gather.
    ds = Dataset.from_dense(np.arange(1.0, 7.0).reshape(2, 3), [1.0, -1.0])
    u = np.ones(2)
    for indices in ([-2], [0, 3], [-1, 1], [7]):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            ds.subset(indices)
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            ds.rmatvec(u, cols=np.array(indices, dtype=np.int64))
    with pytest.raises(ValueError, match="1-d"):
        ds.subset([[0, 1]])
    with pytest.raises(ValueError, match="at least one feature"):
        ds.subset([])
    np.testing.assert_array_equal(ds.subset([1]).to_dense(), [[2.0], [5.0]])


def test_column_outside_the_range_is_rejected():
    # As for subset: a negative index does not count from the end (col_ptr
    # slicing would read another feature's entries), and one past the last
    # feature is named as such rather than failing with an IndexError.
    ds = Dataset.from_dense(np.arange(1.0, 7.0).reshape(2, 3), [1.0, -1.0])
    for j in (-2, -1, 3):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            ds.column(j)
    for j in range(3):
        rows, values = ds.column(j)
        np.testing.assert_array_equal(rows, [0, 1])
        np.testing.assert_array_equal(values, [j + 1.0, j + 4.0])


def test_feature_indices_must_be_integers():
    # A boolean mask is not read as indices (subset once took [True, False,
    # True] as features [1, 0, 1]), and float indices are not truncated.
    ds = Dataset.from_dense(np.arange(1.0, 13.0).reshape(4, 3), [1.0, -1.0, 1.0, -1.0])
    u = np.ones(4)
    for indices in (np.array([True, False, True]), np.array([0.0, 2.0]), np.array([1.7])):
        with pytest.raises(ValueError, match="must be integers"):
            ds.subset(indices)
        with pytest.raises(ValueError, match="must be integers"):
            ds.rmatvec(u, cols=indices)
    for j in (True, 1.0, np.float64(2.0)):
        with pytest.raises(ValueError, match="must be integers"):
            ds.column(j)
    np.testing.assert_array_equal(ds.subset([0, 2]).to_dense(), ds.to_dense()[:, [0, 2]])
    narrow = ds.subset(np.array([2], dtype=np.int32))
    np.testing.assert_array_equal(narrow.to_dense(), ds.to_dense()[:, [2]])
    np.testing.assert_array_equal(ds.rmatvec(u, cols=np.array([1, 2])), ds.rmatvec(u)[1:])


def test_subset_child_is_a_valid_dataset():
    # A child is built without _validate, from the columns of a valid
    # Dataset; it passes it, and equals the Dataset built from the same
    # arrays, down to the column norms it was handed and the statistics it
    # builds.  A parent's stats are not handed down.
    rng = np.random.default_rng(47)
    x = rng.normal(size=(9, 7))
    x[rng.random(size=x.shape) >= 0.4] = 0.0
    x[:, [0, 3, 6]] = 0.0  # empty first, middle and last columns
    y = random_dataset(rng, 9, 1).labels
    for build in (None, "sq_norm", "stats"):
        for parent in (Dataset.from_dense(x, y), Dataset.from_dense(rng.normal(size=(9, 7)), y)):
            if build is not None:
                getattr(parent, build)
            for indices in ([0, 1, 2, 3, 4, 5, 6], [6, 0, 3], [2, 2, 5, 2], [3]):
                sub = parent.subset(indices)
                sub._validate()
                ref = Dataset(sub.n_samples, sub.n_features, sub.col_ptr, sub.row_idx,
                              sub.values, sub.labels)
                assert (sub.n_samples, sub.n_features) == (ref.n_samples, ref.n_features)
                for name in ("col_ptr", "row_idx", "values", "labels"):
                    got, want = getattr(sub, name), getattr(ref, name)
                    assert got.dtype == want.dtype and got.flags.c_contiguous
                    assert got.tobytes() == want.tobytes(), name
                # The stats and the column norms are built apart, so only a
                # parent that built its norms hands them down.
                handed = {name for name in ("stats", "sq_norm") if name in sub.__dict__}
                assert handed == ({"sq_norm"} if build == "sq_norm" else set())
                assert sub.sq_norm.tobytes() == ref.sq_norm.tobytes()
                assert sub.stats.tobytes() == ref.stats.tobytes()


def test_dense_block_from_half_the_cells_stored():
    # 4 x 3 = 12 cells: 6 stored entries get a block, 5 do not.
    x = np.zeros((4, 3))
    x[:2, :] = [[1.0, -2.0, 3.0], [4.0, 5.0, -6.0]]
    y = [1.0, -1.0, 1.0, -1.0]
    half = Dataset.from_dense(x, y)
    assert half.values.size == 6
    block = half.dense_block
    assert block.flags.f_contiguous
    np.testing.assert_array_equal(block, x)
    x[1, 2] = 0.0
    assert Dataset.from_dense(x, y).dense_block is None

    # A dense subset of a sparse dataset gets a block of its own.
    rng = np.random.default_rng(29)
    wide = rng.normal(size=(20, 30))
    wide[rng.random(size=wide.shape) >= 0.1] = 0.0
    wide[:, [4, 17]] = rng.normal(size=(20, 2))
    ds = Dataset.from_dense(wide, random_dataset(rng, 20, 1).labels)
    assert ds.dense_block is None
    np.testing.assert_array_equal(ds.subset([17, 4]).dense_block, wide[:, [17, 4]])


def test_gram_for_dense_data_at_most_as_wide_as_tall():
    # [X, 1, y]'[X, 1, y], cached; None without a dense block or for m > n.
    rng = np.random.default_rng(37)
    x = rng.normal(size=(12, 5))
    ds = Dataset.from_dense(x, random_dataset(rng, 12, 1).labels)
    b = np.column_stack([x, np.ones(12), ds.labels])
    np.testing.assert_allclose(ds.gram, b.T @ b, rtol=1e-13, atol=1e-13)
    np.testing.assert_array_equal(ds.gram, ds.gram.T)
    assert ds.gram is ds.gram
    square = Dataset.from_dense(x[:5], ds.labels[:5])
    assert square.gram.shape == (7, 7)

    wide = Dataset.from_dense(rng.normal(size=(5, 6)), ds.labels[:5])
    assert wide.dense_block is not None and wide.gram is None
    sparse = x.copy()
    sparse[rng.random(size=x.shape) >= 0.3] = 0.0
    sparse = Dataset.from_dense(sparse, ds.labels)
    assert sparse.dense_block is None and sparse.gram is None


def test_block_gathers_rows_and_columns():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(12, 9))
    x[rng.random(size=x.shape) >= 0.3] = 0.0
    x[:, 4] = 0.0
    y = random_dataset(rng, 12, 1).labels
    rows = np.array([10, 0, 3, 7, 11])
    cols = np.array([8, 4, 0, 5])
    sparse = Dataset.from_dense(x, y)
    dense = Dataset.from_dense(np.where(x == 0.0, 1.0, x), y)
    assert sparse.dense_block is None and dense.dense_block is not None
    for ds in (sparse, dense):
        expected = ds.to_dense()[np.ix_(rows, cols)]
        np.testing.assert_array_equal(ds.block(rows, cols), expected)
        assert ds.block(rows, cols[:0]).shape == (5, 0)


def test_column_index_for_sparse_data_only():
    # The column of every stored entry; dense data runs on its block and
    # builds none.
    x = np.array([[0.0, 1.0, 0.0, 2.0], [0.0, 0.0, 0.0, 3.0], [4.0, 0.0, 0.0, 5.0]])
    ds = Dataset.from_dense(x, [1.0, -1.0, 1.0])
    assert ds.dense_block is None
    np.testing.assert_array_equal(ds.column_index, [0, 1, 3, 3, 3])
    assert ds.column_index is ds.column_index
    assert Dataset.from_dense(np.ones((3, 2)), [1.0, -1.0, 1.0]).column_index is None

    # A sparse subset indexes its own entries, not its parent's.
    sub = ds.subset([1, 2, 0])
    assert sub.dense_block is None
    np.testing.assert_array_equal(sub.column_index, [0, 2])
    assert not np.shares_memory(sub.column_index, ds.column_index)
    np.testing.assert_array_equal(sub.rmatvec(np.array([1.0, 2.0, 3.0])), [1.0, 0.0, 12.0])


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda d: d.update(labels=np.array([1.0, 2.0])), "labels must be exactly"),
        (lambda d: d.update(col_ptr=np.array([0, 1])), "col_ptr length"),
        (lambda d: d.update(col_ptr=np.array([1, 1, 2])), "col_ptr must start at 0 and end at nnz"),
        (lambda d: d.update(row_idx=np.array([0, 5])), "row indices out of range"),
        (
            lambda d: d.update(row_idx=np.array([1, 1]), col_ptr=np.array([0, 2, 2])),
            "row indices must be strictly increasing within a column",
        ),
    ],
)
def test_container_validation(mutate, message):
    fields = dict(
        n_samples=2,
        n_features=2,
        col_ptr=np.array([0, 1, 2]),
        row_idx=np.array([0, 1]),
        values=np.array([2.0, 1.0]),
        labels=np.array([1.0, -1.0]),
    )
    mutate(fields)
    with pytest.raises(ValueError, match=message):
        Dataset(**fields)


def test_class_counts_are_read_from_the_labels():
    # The class counts come from the labels alone: the constructor takes
    # none that could disagree with them and turn lambda_max's bias around.
    rng = np.random.default_rng(0)
    y = np.array([1.0] * 7 + [-1.0] * 3)
    ds = Dataset.from_dense(rng.normal(size=(10, 30)), y)
    assert (ds.n_pos, ds.n_neg) == (7, 3)
    arrays = (ds.col_ptr, ds.row_idx, ds.values, ds.labels)
    with pytest.raises(TypeError):
        Dataset(ds.n_samples, ds.n_features, *arrays, n_pos=3, n_neg=7)
    lam_cap, bias, _ = ds.lambda_max
    assert bias == (7 - 3) / 10
    assert lam_cap == float(np.max(np.abs(ds.to_dense().T @ (y - bias))))


def test_container_rejects_nonfinite_values():
    with pytest.raises(ValueError, match="feature values must be finite"):
        Dataset(
            n_samples=1,
            n_features=1,
            col_ptr=np.array([0, 1]),
            row_idx=np.array([0]),
            values=np.array([np.inf]),
            labels=np.array([1.0]),
        )


def test_feature_stats_match_dense_recompute():
    rng = np.random.default_rng(23)
    for trial in range(30):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(1, 15))
        ds = random_dataset(rng, n, m, density=float(rng.uniform(0.2, 1.0)))
        dot_y, dot_one, proj_y_norm = ds.stats
        fhat = ds.labels[:, None] * ds.to_dense()
        np.testing.assert_allclose(dot_y, fhat.T @ ds.labels, atol=1e-12)
        np.testing.assert_allclose(dot_one, fhat.sum(axis=0), atol=1e-12)
        np.testing.assert_allclose(ds.sq_norm, (fhat * fhat).sum(axis=0), atol=1e-12)
        proj = fhat - np.outer(ds.labels, dot_y / n)
        np.testing.assert_allclose(proj_y_norm, np.linalg.norm(proj, axis=0), atol=1e-9)
        # pythagoras ties the four columns together
        np.testing.assert_allclose(proj_y_norm**2 + dot_y**2 / n, ds.sq_norm, atol=1e-9)


def test_feature_stats_zero_and_constant_columns():
    # fhat_j = y * f_j is collinear with y exactly when f_j is constant,
    # so zero and constant columns are the ones with proj_y_norm == 0.
    y = np.array([1.0, -1.0, 1.0])
    x = np.column_stack([np.zeros(3), np.ones(3), 2.5 * np.ones(3)])
    ds = Dataset.from_dense(x, y)
    stats = ds.stats
    dot_y, _, proj_y_norm = stats
    np.testing.assert_allclose(proj_y_norm, 0.0, atol=1e-12)
    np.testing.assert_allclose(dot_y, [0.0, 3.0, 7.5])
    assert ds.stats is stats  # cached on the Dataset
