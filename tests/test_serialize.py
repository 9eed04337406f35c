"""The whole-array writers against the value-by-value writers they replaced.

The oracles in ``conftest`` are the previous implementations; every
artifact must stay byte-identical to what they write.
"""

import os
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import (_phase_color, _real_color, reference_dumps_json,
                      reference_render_field_svg, reference_write_field_csv)
from fractalsync import (build_graph, circle_harmonic_map, dirichlet_energy,
                         solve_dirichlet)
from fractalsync.serialize import (_BLOCK, _ascii, _digits17, _float_texts,
                                   dumps_json, write_field_csv, write_json)
from fractalsync.svg import (_CHUNK, _phase_colors, _real_colors,
                             render_field_svg)
from fractalsync.winding import DegreeVector

finite = st.floats(allow_nan=False, allow_infinity=False)
ints = st.integers(-(2 ** 70), 2 ** 70)
plain = st.one_of(st.none(), st.booleans(), ints, finite, st.text(max_size=6))
numpy_scalars = st.one_of(
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    finite.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
)
# 1-D float and 1-D or 2-D int arrays take the by-dtype path; 2-D float,
# 3-D, empty and 0-column shapes and bool arrays take the value-by-value one
shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4)
arrays = st.one_of(
    hnp.arrays(np.float64, shapes, elements=finite),
    hnp.arrays(np.float32, shapes, elements=st.floats(
        width=32, allow_nan=False, allow_infinity=False)),
    *(hnp.arrays(dtype, shapes) for dtype in (np.int64, np.uint8, np.bool_)),
)


def _rows(scalar):
    # equal-length rows, the shape of the row-template path
    return st.integers(0, 3).flatmap(
        lambda k: st.lists(st.lists(scalar, min_size=k, max_size=k), max_size=5))


leaves = st.one_of(plain, numpy_scalars, arrays, st.lists(finite, max_size=6),
                   st.lists(ints, max_size=6), _rows(finite), _rows(ints),
                   st.dictionaries(st.text(max_size=4), finite, max_size=5))
documents = st.recursive(
    leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
        st.dictionaries(ints, inner, max_size=4),
    ),
    max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_dumps_json_matches_reference_encoder(obj):
    assert dumps_json(obj) == reference_dumps_json(obj)


def test_dumps_json_matches_reference_on_artifact_shapes():
    g = build_graph("sg", 4)
    f = solve_dirichlet(g, [0.0, 0.3, 1.0])
    for obj in (g.to_json_dict(), {"values": f}, {"edges": g.edges},
                {"cells": g.cell_corners}, {"per_cell": f[:81] / 3},
                {"pairs": np.stack([f[:81], -f[42:]], axis=1)},
                {"mixed": [1, 2.5, "x", None, True, np.int64(3)]},
                {"ragged": [[1, 2], [3]], "empty": [[], []], "nested": [[[1.0]]]}):
        assert dumps_json(obj) == reference_dumps_json(obj)


@pytest.mark.parametrize("fractal, level", [("sg", n) for n in range(8)]
                         + [("ring", n) for n in range(1, 11)])
def test_cell_maps_match_reference(fractal, level):
    # energy.json's per_cell and the graph JSON's cells, level 0's one
    # cell too: a float column and an int table in cell order
    g = build_graph(fractal, level)
    f = np.random.default_rng(level).standard_normal(g.n_vertices)
    for obj in (dirichlet_energy(g, f).to_json_dict(),
                {"cells": g.to_json_dict()["cells"]}):
        assert dumps_json(obj) == reference_dumps_json(obj)


def test_tables_longer_than_a_chunk_match_reference():
    # a float column through the kernel, int columns and tables through
    # %d row templates a block of _BLOCK rows at a time
    rng = np.random.default_rng(3)
    for rows in (_BLOCK - 1, _BLOCK, 2 * _BLOCK + 1):
        for a in (rng.integers(-9, 9, (rows, 3)), rng.integers(-2 ** 63, 2 ** 63 - 1, rows),
                  rng.integers(0, 256, (rows, 2), dtype=np.uint8), rng.standard_normal(rows)):
            assert dumps_json({"a": a}) == reference_dumps_json({"a": a})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("where", ["list", "dict", "array", "rows"])
def test_write_json_rejects_non_finite(tmp_path, bad, where):
    obj = {"list": {"a": [[0.5, 1.5], [1.0, bad, 2.0]]},
           "dict": {"a": {"b": 1.0, "c": bad}},
           "array": {"values": np.array([0.0, bad, 1.0])},
           "rows": {"edges": np.array([[0.0, 1.0], [bad, 2.0]])}}[where]
    with pytest.raises(ValueError, match="non-finite value"):
        write_json(tmp_path / "x.json", obj)
    with pytest.raises(ValueError, match="non-finite value"):
        reference_dumps_json(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_write_field_csv_rejects_non_finite(tmp_path, bad):
    with pytest.raises(ValueError, match="non-finite value"):
        write_field_csv(tmp_path / "x.csv", [0.25, bad, 1.0])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_field_text_names_first_non_finite_before_writing(tmp_path, bad, dtype):
    # every writer names the first non-finite value and writes nothing
    other = float("inf") if bad != bad else float("nan")
    values = np.array([0.25, bad, other, 1.0], dtype=dtype)
    message = f"non-finite value {bad!r} in output"
    csv_path, json_path = tmp_path / "x.csv", tmp_path / "x.json"
    for write, path, obj in ((write_field_csv, csv_path, values),
                             (write_json, json_path, {"values": values}),
                             (write_json, json_path, {"rows": values.reshape(2, 2)})):
        with pytest.raises(ValueError) as exc:
            write(path, obj)
        assert str(exc.value) == message
        assert not path.exists()


def test_write_field_csv_matches_reference(tmp_path, rng):
    values = np.concatenate([rng.normal(size=200) * 10.0 ** rng.integers(-300, 300, 200),
                             [0.0, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1 / 3]])
    for vals in (values, values[:0], [2.0]):
        new = write_field_csv(tmp_path / "new.csv", vals)
        old = reference_write_field_csv(tmp_path / "old.csv", vals)
        assert open(new, "rb").read() == open(old, "rb").read()


def test_write_field_csv_memory_is_bounded_by_its_block(tmp_path):
    # a field is formatted and written _BLOCK rows at a time: at gasket 9
    # (seven blocks) the peak was 11 times one block's text, and 32 times
    # when the whole field's text was the %-template of its ids
    g = build_graph("sg", 9)
    f = solve_dirichlet(g, [0.0, 0.3, 1.0])
    write_field_csv(tmp_path / "warm.csv", f[:1])   # builds the kernel's tables
    tracemalloc.start()
    try:
        path = write_field_csv(tmp_path / "f.csv", f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = os.path.getsize(path) * _BLOCK // g.n_vertices
    assert peak <= 16 * block, (peak, block)


@pytest.mark.parametrize("fractal", ["sg", "ring"])
@pytest.mark.parametrize("mode", ["phase", "real"])
def test_render_field_svg_matches_reference(tmp_path, rng, fractal, mode):
    g = build_graph(fractal, 6)
    fields = [rng.uniform(-3.0, 3.0, g.n_vertices), np.zeros(g.n_vertices),
              circle_harmonic_map(g, DegreeVector({(): 1}))[0]]
    if fractal == "sg":
        fields.append(solve_dirichlet(g, [0.0, 0.0, 1.0]))
    for f in fields:
        new = render_field_svg(g, f, tmp_path / "new.svg", mode=mode)
        old = reference_render_field_svg(g, f, tmp_path / "old.svg", mode=mode)
        assert open(new, "rb").read() == open(old, "rb").read()


def test_render_field_svg_refuses_an_unknown_mode(tmp_path):
    g = build_graph("sg", 2)
    path = tmp_path / "f.svg"
    with pytest.raises(ValueError, match="unknown mode 'phases'"):
        render_field_svg(g, np.zeros(g.n_vertices), path, mode="phases")
    assert not path.exists()


@pytest.mark.parametrize("fractal, level", [("sg", 8), ("ring", 13)])
def test_render_field_svg_matches_reference_across_chunks(tmp_path, rng,
                                                           fractal, level):
    # more edges than one chunk of _CHUNK rows: the gasket's lines and
    # circles end in a partial chunk, the ring's fill their chunks exactly
    g = build_graph(fractal, level)
    assert g.n_edges > _CHUNK
    f = rng.uniform(-3.0, 3.0, g.n_vertices)
    for mode in ("phase", "real"):
        new = render_field_svg(g, f, tmp_path / "new.svg", mode=mode)
        old = reference_render_field_svg(g, f, tmp_path / "old.svg", mode=mode)
        assert open(new, "rb").read() == open(old, "rb").read()


def test_colors_match_reference(rng):
    # steps of 1/255 within each hue sector, where 1 - (1 - f) and f can
    # truncate to different channel values
    t = np.concatenate([((np.arange(6)[:, None] + np.arange(256) / 255) / 6).ravel(),
                        rng.uniform(-4.0, 4.0, 2000), [-0.0, -2.0 ** -60, 1 - 2.0 ** -53]])
    assert _phase_colors(t) == [int(_phase_color(v)[1:], 16) for v in t]
    lo, hi = float(t.min()), float(t.max())
    assert _real_colors(t, lo, hi) == [
        int(_real_color((v - lo) / (hi - lo))[1:], 16) for v in t]


# -- the %.17g kernel --------------------------------------------------------


def _percent17(values):
    return "\n".join("%.17g" % v for v in np.asarray(values, dtype=float).tolist())


def _kernel_text(values):
    """The kernel's text of finite ``values``, value ``i`` on line ``i``."""
    return _float_texts(np.asarray(values, dtype=float), _ascii(""), _ascii("\n"))[:-1]


def _assert_kernel_matches(values):
    values = np.asarray(values, dtype=float)
    got, want = _kernel_text(values).split("\n"), _percent17(values).split("\n")
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad and len(got) == len(want), bad[:5]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False,
                          allow_subnormal=True), max_size=40))
def test_kernel_matches_percent17_on_any_floats(values):
    _assert_kernel_matches(values)


def test_kernel_matches_percent17_on_random_bit_patterns():
    bits = np.random.default_rng(17).integers(0, 2 ** 64, 10 ** 6, dtype=np.uint64)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    assert _kernel_text(values) == _percent17(values)


def test_kernel_matches_percent17_at_powers_of_ten_and_neighbours():
    powers = np.array([float(f"1e{m}") for m in range(-99, 17)])
    near = [powers]
    for toward in (0.0, np.inf):
        step = powers
        for _ in range(4):
            step = np.nextafter(step, toward)
            near.append(step)
    values = np.concatenate(near)
    _assert_kernel_matches(np.concatenate([values, -values]))


def test_kernel_matches_percent17_on_exact_ties():
    # j / 2**(k + 1) with j odd is a tie at the 17th digit when it lies in
    # [10**(16 - k), 10**(17 - k)): k = 21, 20 at the 1e-5 and 1e-4
    # switches, k = 23 where 10**k is no double, k = 1 up to 2**51 (ten
    # times a double of 2**51 or more is an integer, so no tie is nearer
    # the 1e16 switch)
    ties = np.concatenate([np.arange(43, 420, 2) / 2.0 ** 22,
                           np.arange(211, 2098, 2) / 2.0 ** 21,
                           np.arange(3, 17, 2) / 2.0 ** 24,
                           (4 * 10 ** 15 + np.arange(1, 2001, 2)) / 4.0,
                           (2 ** 53 - np.arange(1, 2001, 2)) / 4.0])
    below = np.nextafter(1e16, 0.0) - 2.0 * np.arange(1000)
    values = np.concatenate([ties, below, [1e16, 1e17, 2.0 ** 54, 2.0 ** 57,
                                           99999999999999984.0]])
    _assert_kernel_matches(np.concatenate([values, -values]))
    # the fast path certifies no tie: they are written by '%.17g' itself
    assert not _digits17(ties)[2].any()


def test_kernel_matches_percent17_at_the_extremes():
    with warnings.catch_warnings():
        warnings.simplefilter("error")     # no numpy RuntimeWarning either
        _assert_kernel_matches([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                                1.7976931348623157e308, -1.7976931348623157e308,
                                1e-99, 9.9999999999999997e-100, 1e-100, 1e-5, 1e-4])


@pytest.mark.parametrize("n", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
def test_kernel_matches_percent17_across_blocks(tmp_path, rng, n):
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 8, n)
    assert _kernel_text(values) == _percent17(values)
    # as a JSON column, and as a CSV written a block of rows at a time
    assert dumps_json({"a": values}) == reference_dumps_json({"a": values})
    new = write_field_csv(tmp_path / "new.csv", values)
    old = reference_write_field_csv(tmp_path / "old.csv", values)
    assert open(new, "rb").read() == open(old, "rb").read()


def test_kernel_certifies_nearly_every_uniform_value():
    # the fast path, not the '%.17g' fallback, formats the values: a kernel
    # that certified nothing would still write the right text
    values = np.random.default_rng(5).uniform(0.0, 1.0, 10 ** 5)
    d, k, ok = _digits17(values)
    assert ok.mean() >= 0.999
    assert [f"{v:.16e}" for v in values[ok][:1000].tolist()] == [
        f"{int(str(w)[0])}.{str(w)[1:]}e{16 - j:+03d}"
        for w, j in zip(d[ok][:1000].tolist(), k[ok][:1000].tolist())]
