"""The scanner's point chunks change no bit of what it computes.

Every pass of the scanner over the points of a sample or a window runs in
chunks of ``_POINT_CHUNK`` points.  Here the chunk is shrunk to 1, 7 and
1000 points on samples of a few thousand, whose sizes leave a partial last
chunk, and every result must keep the bits of the default chunk (one
chunk per pass at these sizes) and of the tests' independent oracles.
The design rests on BLAS products (m, 4) @ (4, 2) whose rows do not
depend on the other rows of the product; the last test checks that.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from planes4 import grassmann as gr
from planes4 import scanner as sc

from helpers import pair_sup_oracle, random_rotation, window_mask_oracle
from test_scanner import PLANES, oracle_sample

CHUNKS = (1, 7, 1000)
PAIRS = ("orthogonal", "canonical", "rotated")
X = np.array([0.03, -0.02, 0.01, 0.04])


def pair_setup(pair, height=0.04):
    """(planes, sample, rotation) of a pair by name.

    The sample is a 3,578-point pinched pair sample, 3,578 = 511 * 7 + 1 =
    3 * 1000 + 578, so chunks of 7 and 1000 leave a partial last chunk.
    The rotated pair and its sample are the canonical pair and the sample
    moved by the rotation, so neither its bases nor its points hold zeros.
    """
    e = sc.pinched_pair_sample(0.2 if height > 0.05 else 0.12, height, spacing=0.025,
                               extent=0.6)
    assert len(e.points) == 3578
    if pair == "orthogonal":
        return PLANES, e, np.eye(4)
    planes = gr.canonical_pair(1.3, 1.45)
    if pair == "canonical":
        return planes, e, np.eye(4)
    rot = random_rotation(np.random.default_rng(7))
    return (tuple(gr.Plane(p.basis @ rot.T) for p in planes),
            sc.SetSample(e.points @ rot.T, e.resolution), rot)


def grid(x, r):
    ax = np.linspace(-r / 4.0, r / 4.0, sc._GRID_N)
    return x + np.stack(np.meshgrid(ax, ax, ax, ax, indexing="ij"), axis=-1).reshape(-1, 4)


def at_chunk(monkeypatch, chunk, fn):
    """fn() with ``_POINT_CHUNK`` set to chunk, then restored."""
    with monkeypatch.context() as m:
        m.setattr(sc, "_POINT_CHUNK", chunk)
        return fn()


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("pair", PAIRS)
def test_window_index_is_chunk_invariant(pair, chunk, monkeypatch):
    planes, e, rot = pair_setup(pair)
    geom = sc._PairGeometry(e, *planes)
    x = rot @ X
    parent = sc._WindowCtx(geom, x, 0.5)
    assert len(parent.idx) > 2000          # the parent cut spans several chunks
    child_x, far = x + rot @ np.full(4, 0.02), np.full(4, 5.0)

    def cuts():
        empty = geom.window_index(far, 0.1)
        return (geom.window_index(x, 0.5), geom.window_index(child_x, 0.25, parent),
                empty, geom.window_index(far, 0.05, sc._WindowCtx(geom, far, 0.1)))

    want = cuts()
    assert np.array_equal(want[0], np.flatnonzero(window_mask_oracle(geom, x, 0.5)))
    assert np.array_equal(want[1], np.flatnonzero(window_mask_oracle(geom, child_x, 0.25)))
    assert np.isin(want[1], parent.idx).all() and len(want[1]) > 100
    assert not len(want[2]) and not len(want[3])   # an empty window, whole and cut
    got = at_chunk(monkeypatch, chunk, cuts)
    for w, g in zip(want, got):
        assert w.dtype == g.dtype == np.intp
        assert np.array_equal(w, g), pair


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("pair", PAIRS)
def test_sup_to_pair_is_chunk_invariant(pair, chunk, monkeypatch):
    planes, e, rot = pair_setup(pair)
    geom = sc._PairGeometry(e, *planes)
    ctx = sc._WindowCtx(geom, rot @ X, 1.0)
    qs = grid(rot @ X, 1.0)
    # the last set holds the sup in its last point, alone in its chunk of 1000
    outlier = np.full((1, 2), 9.0)
    sets = [(ctx.n1, ctx.n2), (ctx.n1[:len(ctx.n1) // 2], ctx.n2[:len(ctx.n2) // 2]),
            (np.vstack([ctx.n1, outlier]), np.vstack([ctx.n2, outlier]))]
    assert len(ctx.n1) % 7 and len(ctx.n1) % 1000 and len(ctx.n1) > 2000
    for n1, n2 in sets:
        want = geom.sup_to_pair(n1, n2, qs)
        assert np.array_equal(want, pair_sup_oracle(geom, n1, n2, qs)), pair
        got = at_chunk(monkeypatch, chunk, lambda: geom.sup_to_pair(n1, n2, qs))
        assert np.array_equal(got, want), pair


@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("cap", [sc._SEARCH_POINT_CAP, 500])
def test_exact_value_is_chunk_invariant(cap, chunk, monkeypatch):
    # at a cap of 500 points the search runs on a subsample, so the exact
    # value projects the whole window itself
    monkeypatch.setattr(sc, "_SEARCH_POINT_CAP", cap)
    for pair in PAIRS:
        planes, e, rot = pair_setup(pair)
        geom = sc._PairGeometry(e, *planes)

        def values():
            ctx = sc._WindowCtx(geom, rot @ X, 0.5)
            return ctx.n1, ctx.n2, [ctx.exact_value(q) for q in grid(rot @ X, 0.5)[::10]]

        want, got = values(), at_chunk(monkeypatch, chunk, values)
        assert (len(want[0]) < len(e.points) // 2) == (cap == 500)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), pair
        assert got[2] == want[2], pair


def scan_digest(e):
    """The report of one scan and a sha256 over every field of it and of its steps."""
    rep = sc.epsilon_process(e, PLANES, 0.05, 0.05)
    h = hashlib.sha256()
    for step in rep.steps:
        for f in dataclasses.fields(step):
            h.update(np.asarray(getattr(step, f.name), dtype=float).tobytes())
    for v in (rep.o_k, rep.r_k, rep.dist_double, rep.dist_shrunken):
        h.update(b"-" if v is None else np.asarray(v, dtype=float).tobytes())
    return rep, h.hexdigest()


@pytest.mark.parametrize("chunk", CHUNKS)
def test_epsilon_process_is_chunk_invariant(chunk, monkeypatch):
    # a floor hit after four nested windows, and a stop at the first scale,
    # whose D(o_k, 2 r_k (1 - 12 eps)) is cut from D(o_k, 2 r_k)
    for height, stops in ((0.04, False), (0.1, True)):
        e = pair_setup("orthogonal", height)[1]
        rep, want = scan_digest(e)
        assert rep.stopped == stops and len(rep.steps) == (1 if stops else 4)
        assert at_chunk(monkeypatch, chunk, lambda: scan_digest(e))[1] == want


FALLBACK = ("a row of a BLAS product y @ B.T changed its bits with the rows around it, "
            "so the scanner's point chunks no longer give the bits of one pass; project "
            "with explicit four-term sums y[:, 0] * B[k, 0] + ... + y[:, 3] * B[k, 3] instead")


@pytest.mark.parametrize("sample", ["pinched", "random"])
def test_blas_row_chunks_keep_the_bits_of_the_whole_product(sample):
    # every chunk of rows, contiguous or gathered, projected by _project as
    # the scanner does, has the bits of the whole sample's product.  A
    # chunk of one row tests the two-row product that stands in for gemv
    if sample == "pinched":
        pts = oracle_sample("pinched").points
    else:
        pts = np.random.default_rng(11).normal(size=(100_003, 4))
    gathered = np.sort(np.random.default_rng(12).choice(len(pts), len(pts) // 3, replace=False))
    for pair in PAIRS:
        planes = pair_setup(pair)[0]
        for basis in [p.basis for p in planes] + [sc._complement_basis(p) for p in planes]:
            whole = pts @ basis.T
            for chunk in (1, 2, 7, 1000, sc._POINT_CHUNK):
                for rows in (np.arange(len(pts)), gathered):
                    rows = rows[:3001] if chunk == 1 else rows
                    out = np.empty((len(rows), 2))
                    for s in range(0, len(rows), chunk):
                        out[s:s + chunk] = sc._project(pts[rows[s:s + chunk]], basis)
                    assert np.array_equal(out, whole[rows]), (FALLBACK, pair, chunk)
