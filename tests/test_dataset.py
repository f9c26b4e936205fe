import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specprec import (DataError, DataMatrix, UsageError, center, load_csv,
                      split, standardize, write_csv)
from specprec.dataset import row_scale


def test_load_zero_matrix(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text("0,0\n0,0\n0,0\n")
    d = load_csv(path)
    assert d.n_vars == 3 and d.n_samples == 2
    assert not d.values.any()
    assert d.mean is None


def test_orientation_symmetry(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("g1,g2,g3\n1,2,3\n4,5,6\n")
    d = load_csv(path, has_header=True, orientation="samples-as-rows")
    assert d.n_vars == 3 and d.n_samples == 2
    assert d.variable_names == ("g1", "g2", "g3")
    np.testing.assert_array_equal(d.values, [[1, 4], [2, 5], [3, 6]])
    path2 = tmp_path / "v.csv"
    path2.write_text("1,4\n2,5\n3,6\n")
    d2 = load_csv(path2, orientation="variables-as-rows")
    np.testing.assert_array_equal(d.values, d2.values)


def test_integer_fixture_byte_roundtrip(tmp_path):
    fixture = "1,2,3\n4,5,6\n7,8,9\n10,11,12\n"
    path = tmp_path / "f.csv"
    path.write_text(fixture)
    d = load_csv(path)
    np.testing.assert_array_equal(d.values, np.arange(1, 13).reshape(4, 3))
    out = tmp_path / "out.csv"
    write_csv(d, out)
    assert out.read_text().replace("\r\n", "\n") == fixture


@pytest.mark.parametrize("text,kind", [
    ("1,2\n3\n", "ragged"),
    ("1,x\n3,4\n", "parse"),
    ("1,inf\n3,4\n", "finite"),
])
def test_load_errors(tmp_path, text, kind):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError) as exc:
        load_csv(path)
    assert exc.value.context  # coordinates reported


def _both_readers(path, delimiter=",", has_header=False):
    """(loadtxt reader's result or None, cell parser's result or DataError)."""
    from specprec.dataset import _parse_cells, _parse_text

    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError:
        fast = None
    else:
        # the text as open(..., newline="") reads it
        fast = _parse_text(text, delimiter, has_header)
    try:
        cells = _parse_cells(path, delimiter, has_header)
    except DataError as exc:
        cells = exc
    return fast, cells


_ROWS = [[1.0, 2.0], [3.0, 4.0]]


# files at the edge of the loadtxt reader: each reads as the cell parser
# reads it, to the same values or the same error and place in the file
@pytest.mark.parametrize("raw,has_header,fast,want", [
    (b'"1",2\n3,"4"\n', False, True, _ROWS),
    (b" 1 , 2 \n3,4\t\n", False, True, _ROWS),
    ("\ufeff\xa01,2\n3,4\n".encode(), False, True, _ROWS),  # a mark, a no-break space
    (b"1_0,2\n3,4\n", False, False, [[10.0, 2.0], [3.0, 4.0]]),
    ("\uff11,2\n3,4\n".encode(), False, False, _ROWS),  # a full-width digit
    (b"1,nan\n3,4\n", False, False,
     ("non-finite value in data", {"row": 0, "col": 1, "cell": "nan"})),
    (b"a,b\n1,2\n-inf,4\n", True, False,
     ("non-finite value in data", {"row": 2, "col": 0, "cell": "-inf"})),
    (b"1,1e999\n3,4\n", False, False,
     ("non-finite value in data", {"row": 0, "col": 1, "cell": "1e999"})),
    (b"1,\n3,4\n", False, False,
     ("cell does not parse as a number", {"row": 0, "col": 1, "cell": ""})),
    (b"1\n  \n2\n", False, False,
     ("cell does not parse as a number", {"row": 1, "col": 0, "cell": "  "})),
    (b"1,2\n3\n", False, False, ("ragged row", {"row": 1, "expected": 2, "got": 1})),
    (b"1,2\n\n3,4\n", False, False, ("ragged row", {"row": 1, "expected": 2, "got": 0})),
    (b"a,b\r\n1,2\r\n\r\n3,4\r\n", True, False,
     ("ragged row", {"row": 2, "expected": 2, "got": 0})),
    (b"1,2\n\xff,4\n", False, False,
     ("file is not UTF-8 text",
      {"detail": "'utf-8' codec can't decode byte 0xff in position 4: invalid start byte"})),
    (b"\n\r\n", False, False, ("empty file", {})),
    (b"a,b\n", True, False, ("empty file", {})),
])
def test_loadtxt_reader_falls_back_to_the_cell_parser(tmp_path, raw, has_header, fast, want):
    path = tmp_path / "edge.csv"
    path.write_bytes(raw)
    got_fast, cells = _both_readers(path, has_header=has_header)
    assert (got_fast is not None) == fast
    if isinstance(want, tuple):
        with pytest.raises(DataError) as exc:
            load_csv(path, has_header=has_header)
        context = {k: v for k, v in exc.value.context.items() if k != "path"}
        assert (exc.value.message, context) == want
        assert isinstance(cells, DataError) and cells.context == exc.value.context
    else:
        np.testing.assert_array_equal(load_csv(path, has_header=has_header).values, want)
        np.testing.assert_array_equal(cells[0], want)


_finite_matrices = st.integers(1, 5).flatmap(lambda n: st.integers(1, 5).flatmap(
    lambda t: st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                                min_size=t, max_size=t), min_size=n, max_size=n)))


@given(values=_finite_matrices,
       orientation=st.sampled_from(["variables-as-rows", "samples-as-rows"]),
       delimiter=st.sampled_from([",", ";", "\t", " "]),
       line_end=st.sampled_from(["\r\n", "\n", "\r"]),
       header=st.booleans())
@settings(max_examples=120, deadline=None)
def test_written_csv_reads_back_through_both_readers(tmp_path_factory, values, orientation,
                                                     delimiter, line_end, header):
    path = tmp_path_factory.getbasetemp() / "written.csv"
    header = header and orientation == "samples-as-rows"
    names = tuple(f'v{i},"q" {i}' for i in range(len(values))) if header else None
    data = DataMatrix(values=values, variable_names=names)
    write_csv(data, path, delimiter=delimiter, orientation=orientation)
    path.write_bytes(path.read_bytes().replace(b"\r\n", line_end.encode()))
    back = load_csv(path, delimiter=delimiter, has_header=header, orientation=orientation)
    assert back.values.tobytes() == data.values.tobytes()  # -0.0 and subnormals too
    assert back.variable_names == names
    fast, (mat, record) = _both_readers(path, delimiter, header)
    file_rows = data.values if orientation == "variables-as-rows" else data.values.T
    # loadtxt reads every such file whose row sums do not overflow
    with np.errstate(over="ignore", invalid="ignore"):
        finite_sums = np.isfinite(file_rows.sum(axis=1)).all()
    assert (fast is not None) == bool(finite_sums)
    if fast is not None:
        assert fast[0].tobytes() == mat.tobytes() and fast[1] == record


@given(text=st.lists(st.sampled_from(list("0123456789,;. \t\r\n\"e+-_") +
                                     ["nan", "inf", "1e999", "\xa0", "\x0c", "\x85", "\uff11"]),
                    max_size=24).map("".join),
       delimiter=st.sampled_from([",", ";", " "]), has_header=st.booleans())
@settings(max_examples=300, deadline=None)
def test_loadtxt_reader_agrees_with_the_cell_parser_on_any_text(tmp_path_factory, text,
                                                                delimiter, has_header):
    path = tmp_path_factory.getbasetemp() / "any.csv"
    path.write_bytes(text.encode())
    fast, cells = _both_readers(path, delimiter, has_header)
    if fast is not None:  # loadtxt read it: the cell parser reads the same
        assert not isinstance(cells, DataError), (text, cells)
        assert fast[0].shape == cells[0].shape and fast[0].tobytes() == cells[0].tobytes()
        assert fast[1] == cells[1]


def test_center_examples():
    d = center(DataMatrix(values=[[1.0, 3.0]]))
    np.testing.assert_allclose(d.values, [[-1.0, 1.0]])
    np.testing.assert_allclose(d.mean, [2.0])
    already = center(DataMatrix(values=[[-1.0, 1.0], [0.0, 0.0]]))
    np.testing.assert_array_equal(already.values, [[-1.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(already.mean, [0.0, 0.0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_center_idempotent(seed):
    rng = np.random.default_rng(seed)
    d = center(DataMatrix(values=rng.normal(3.0, 2.0, size=(5, 7))))
    d2 = center(d)
    np.testing.assert_allclose(d2.values, d.values, atol=1e-12)
    assert np.abs(d2.mean).max() < 1e-12
    assert np.abs(d.values.sum(axis=1)).max() < 1e-9 * 7 * (np.abs(d.values).max() + 1)


def test_constructor_copies_and_center_does_not(rng):
    import tracemalloc

    x = rng.standard_normal((3, 4))
    d = DataMatrix(values=x)
    x[0, 0] = 100.0
    assert d.values[0, 0] != 100.0
    # center keeps the array it has just made, and still checks it: the
    # mean of [1e308, 1e308] overflows, so the centred row is not finite
    assert not center(d).values.flags.writeable
    with np.errstate(over="ignore"), pytest.raises(DataError):
        center(DataMatrix(values=[[1e308, 1e308]]))
    big = DataMatrix(values=rng.standard_normal((1 << 16, 64)))
    tracemalloc.start()
    try:
        center(big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * big.values.nbytes


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "inf-inf"])
def test_finite_check_locates_the_bad_entry(rng, bad):
    x = rng.standard_normal((6, 5))
    if bad == "inf-inf":
        x[4, 1], x[4, 3] = np.inf, -np.inf  # a row that sums to NaN
    else:
        x[4, 1] = bad
    for make in (lambda: DataMatrix(values=x), lambda: center(DataMatrix(values=x))):
        with np.errstate(invalid="ignore"), pytest.raises(DataError) as exc:
            make()
        assert exc.value.context == {"row": 4, "col": 1}
    # finite values whose row sum overflows are still accepted
    with np.errstate(over="ignore"):
        assert DataMatrix(values=[[1e308, 1e308]]).values[0, 1] == 1e308


@pytest.mark.parametrize("fields, message", [
    ({"mean": np.zeros(2)}, "mean length must equal the number of variables"),
    ({"mean": np.zeros(3), "values": [[1.0, -1.0], [0.5, -0.5], [1.0, 0.0]]},
     "centered rows must sum to zero"),
    ({"variable_names": ("a", "b")}, "variable_names length must equal the number of variables"),
])
def test_constructor_refuses_inconsistent_metadata(fields, message):
    with pytest.raises(DataError) as exc:
        DataMatrix(**{"values": np.zeros((3, 2)), **fields})
    assert exc.value.message == message


def test_constructor_and_center_peaks_are_one_copy(rng):
    import tracemalloc

    x = rng.standard_normal((1 << 16, 64))
    tracemalloc.start()
    try:
        d = DataMatrix(values=x)
        held, made = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        c = center(d)
        centred = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert made <= 1.05 * x.nbytes and centred <= 1.05 * x.nbytes
    assert np.array_equal(c.values, x - x.mean(axis=1)[:, None])


def test_standardize_examples():
    centred = center(DataMatrix(values=[[1.0, 3.0], [0.0, 4.0]]))
    d = standardize(centred)
    np.testing.assert_allclose(d.values, [[-1.0, 1.0], [-1.0, 1.0]])
    assert not d.mean.any() and row_scale(centred)[1] == ()


def test_standardize_constant_row_flagged():
    centred = center(DataMatrix(values=[[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]]))
    d = standardize(centred)
    np.testing.assert_array_equal(d.values[0], [0.0, 0.0, 0.0])
    assert row_scale(centred)[1] == (0,)


@pytest.mark.parametrize("value,t", [(0.3, 10), (0.1, 3)])
def test_constant_row_with_inexact_mean_is_flagged(value, t):
    centred = center(DataMatrix(values=[[value] * t, np.arange(float(t))]))
    assert centred.values[0].any()  # the mean does not round-trip
    scale, flagged = row_scale(centred)
    assert flagged == (0,) and scale[0] == 1.0
    d = standardize(centred)
    np.testing.assert_array_equal(d.values[0], centred.values[0])


@pytest.mark.parametrize("field,value", [("standardized", True), ("zero_variance", (0,))],
                         ids=["standardized", "zero_variance"])
def test_standardized_flag_is_gone(field, value):
    with pytest.raises(TypeError):
        DataMatrix(values=[[1.0, 2.0]], **{field: value})


def test_standardize_output_is_fit_ready(rng):
    from specprec import average_log_likelihood, riccati_fit, thin_svd

    x = rng.uniform(2.0, 12.0, (400, 1)) + rng.lognormal(0.0, 0.5, (400, 1)) \
        * rng.standard_normal((400, 50))
    train, val = x[:, :40], x[:, 40:]
    centred = center(DataMatrix(values=train))
    z = standardize(centred)
    basis = thin_svd(z)
    assert not basis.mean.any()
    recentred = thin_svd(center(z))
    scale, _ = row_scale(centred)
    z_val = (val - centred.mean[:, None]) / scale[:, None]
    for rho in (0.1, 1.0):
        got = average_log_likelihood(riccati_fit(basis, rho), z_val)
        want = average_log_likelihood(riccati_fit(recentred, rho), z_val)
        assert got == pytest.approx(want, rel=1e-12)


def test_standardize_requires_centered():
    with pytest.raises(UsageError):
        standardize(DataMatrix(values=[[1.0, 2.0]]))


def test_standardize_peak_is_one_scaled_copy(rng):
    import tracemalloc

    centred = center(DataMatrix(values=rng.standard_normal((1 << 16, 64))))
    tracemalloc.start()
    try:
        standardize(centred)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * centred.values.nbytes


def test_split_even():
    d = DataMatrix(values=np.arange(18.0).reshape(2, 9))
    parts = split(d, (1 / 3, 1 / 3, 1 / 3), seed=7)
    assert [p.n_samples for p in parts] == [3, 3, 3]
    cols = np.concatenate([p.values[0] for p in parts])
    assert sorted(cols) == list(d.values[0])
    again = split(d, (1 / 3, 1 / 3, 1 / 3), seed=7)
    for a, b in zip(parts, again):
        np.testing.assert_array_equal(a.values, b.values)


def test_split_rounding_rule():
    d = DataMatrix(values=np.arange(10.0).reshape(1, 10))
    parts = split(d, (0.5, 0.2, 0.3), seed=0)
    assert [p.n_samples for p in parts] == [5, 2, 3]


def test_split_too_few():
    d = DataMatrix(values=np.arange(4.0).reshape(1, 4))
    with pytest.raises(UsageError):
        split(d, (0.90, 0.05, 0.05), seed=0)


@given(st.integers(0, 2**32 - 1),
       st.integers(6, 40),
       st.tuples(st.floats(0.1, 0.8), st.floats(0.1, 0.8)))
@settings(max_examples=40, deadline=None)
def test_split_partition_property(seed, t, fracs):
    f1, f2 = fracs
    total = f1 + f2
    if total >= 0.9:
        f1, f2 = 0.4 * f1 / total, 0.4 * f2 / total
    fractions = (f1, f2, 1.0 - f1 - f2)
    d = DataMatrix(values=np.arange(float(t)).reshape(1, t))
    try:
        parts = split(d, fractions, seed=seed)
    except UsageError:
        return  # a part would be empty; rejection is the contract
    cols = np.concatenate([p.values[0] for p in parts])
    assert len(cols) == t
    assert sorted(cols.tolist()) == d.values[0].tolist()


def test_csv_roundtrip_bit_exact(tmp_path, rng):
    d = DataMatrix(values=rng.standard_normal((6, 5)))
    path = tmp_path / "rt.csv"
    write_csv(d, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.values, d.values)


def _csv_writer_output(data, path, delimiter=",", orientation="variables-as-rows"):
    """The writer write_csv replaced: every row through csv.writer."""
    import csv

    mat = data.values if orientation == "variables-as-rows" else data.values.T
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter)
        if orientation == "samples-as-rows" and data.variable_names is not None:
            writer.writerow(data.variable_names)
        for row in mat:
            writer.writerow(["%.17g" % v for v in row])
    return path.read_bytes()


@pytest.mark.parametrize("delimiter", [",", "\t", ";", "%", " "])
@pytest.mark.parametrize("orientation", ["variables-as-rows", "samples-as-rows"])
def test_write_csv_bytes_match_csv_writer(tmp_path, rng, delimiter, orientation):
    n = 7
    values = rng.standard_normal((n, 5)) * 10.0 ** rng.integers(-30, 30, (n, 5))
    values[0, :3] = [0.0, -0.0, 1.0]
    names = ("plain", "with,comma", 'a "quote"', "semi;colon", "tab\there", "%d", "x y")
    for data in (DataMatrix(values=values, variable_names=names),
                 DataMatrix(values=values[:, :1])):  # T = 1
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csv(data, got, delimiter=delimiter, orientation=orientation)
        assert got.read_bytes() == _csv_writer_output(data, want, delimiter, orientation)


def test_write_csv_blocks_match_csv_writer(tmp_path, rng):
    from specprec.dataset import _WRITE_BLOCK

    data = DataMatrix(values=rng.standard_normal((_WRITE_BLOCK + 3, 1)),
                      variable_names=tuple(f"v{i}" for i in range(_WRITE_BLOCK + 3)))
    for orientation in ("samples-as-rows", "variables-as-rows"):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_csv(data, got, orientation=orientation)
        assert got.read_bytes() == _csv_writer_output(data, want, ",", orientation)
    wide = DataMatrix(values=rng.standard_normal((3, _WRITE_BLOCK + 5)))  # > 1 block per row
    write_csv(wide, got)
    assert got.read_bytes() == _csv_writer_output(wide, want)


@pytest.mark.parametrize("delimiter", list("0123456789+-.e\"\r\n") + ["", ",,", None])
def test_write_csv_refuses_delimiters_a_value_could_contain(tmp_path, delimiter):
    with pytest.raises(UsageError):
        write_csv(DataMatrix(values=[[1.0]]), tmp_path / "x.csv", delimiter=delimiter)
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("call, error", [
    pytest.param(lambda d, p: split(d, (0.5, 0.5), seed=0), UsageError, id="two-fractions"),
    pytest.param(lambda d, p: split(d, (0.6, 0.4, 0.0), seed=0), UsageError, id="zero-fraction"),
    pytest.param(lambda d, p: split(d, (0.5, 0.3, 0.3), seed=0), UsageError, id="sum>1"),
    pytest.param(lambda d, p: split(DataMatrix(values=np.ones((3, 2))), (0.4, 0.3, 0.3), seed=0),
                 UsageError, id="two-samples"),
    pytest.param(lambda d, p: load_csv(p, orientation="columns"), UsageError,
                 id="load-orientation"),
    pytest.param(lambda d, p: write_csv(d, p, orientation="rows"), UsageError,
                 id="write-orientation"),
    pytest.param(lambda d, p: DataMatrix(values=np.ones(3)), DataError, id="1-d-values"),
    pytest.param(lambda d, p: DataMatrix(values=np.ones((0, 3))), DataError, id="no-rows"),
])
def test_dataset_argument_checks(tmp_path, call, error):
    path = tmp_path / "x.csv"
    data = DataMatrix(values=np.arange(20.0).reshape(2, 10))
    write_csv(data, path)
    with pytest.raises(error):
        call(data, path)
