import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import scatterlab as sl
import scatterlab.trajio as trajio
from scatterlab.trajio import _HEADER, CSV_HEADER, FormatError, MAGIC


def tiny_trajectory():
    grid = sl.Grid1D(L=30.0, N=16)
    rng = np.random.default_rng(5)
    snaps = []
    for t in (1.0, 2.0, 4.0):
        u = sl.ComplexField(grid, rng.normal(size=16) + 1j * rng.normal(size=16), "physical")
        v = sl.ComplexField(grid, rng.normal(size=16) + 1j * rng.normal(size=16), "physical")
        snaps.append(sl.PairState(u, v, t))
    params = sl.AnalysisParams.make(alpha=0.02, delta=0.2, beta=0.1, n=2, epsilon=0.3)
    return sl.Trajectory(grid=grid, params=params, snapshots=tuple(snaps), dt=0.125)


HEADER_FIELDS = ("magic", "N", "L", "count", "alpha", "delta", "beta", "nu", "n", "epsilon")


def write_with_header(path, body_bytes=None, **changes):
    """The tiny trajectory's header with some fields changed, over its own
    snapshots while N and count are unchanged, else over a zero body whose
    length matches them, unless body_bytes is given."""
    sl.save_trajectory(tiny_trajectory(), path)
    raw = path.read_bytes()
    fields = dict(zip(HEADER_FIELDS, _HEADER.unpack_from(raw)))
    fields.update(changes)
    size = fields["count"] * (8 + 2 * 16 * fields["N"])
    body = raw[_HEADER.size :]
    if body_bytes is not None:
        body = bytes(body_bytes)
    elif len(body) != size:
        body = bytes(size)
    path.write_bytes(_HEADER.pack(*fields.values()) + body)


class TestBinaryFormat:
    def test_round_trip(self, tmp_path):
        traj = tiny_trajectory()
        path = tmp_path / "t.bin"
        sl.save_trajectory(traj, path)
        back = sl.load_trajectory(path, dt=traj.dt)
        assert back.grid.N == traj.grid.N
        assert back.grid.L == traj.grid.L
        assert back.params == traj.params
        assert len(back.snapshots) == 3
        for a, b in zip(traj.snapshots, back.snapshots):
            assert a.t == b.t
            assert np.array_equal(a.u.samples, b.u.samples)
            assert np.array_equal(a.v.samples, b.v.samples)

    def test_loaded_fields_share_the_file_buffer(self, tmp_path):
        # each snapshot is a read-only view of the one immutable buffer read
        # from the file, kept by its field without a copy
        path = tmp_path / "t.bin"
        sl.save_trajectory(tiny_trajectory(), path)
        back = sl.load_trajectory(path)
        fields = [f for s in back.snapshots for f in (s.u, s.v)]
        buffer = fields[0].samples.base
        assert isinstance(buffer, bytes) and len(buffer) == path.stat().st_size
        for field in fields:
            assert field.samples.base is buffer and not field.samples.flags.writeable

    def test_byte_layout(self, tmp_path):
        traj = tiny_trajectory()
        path = tmp_path / "t.bin"
        sl.save_trajectory(traj, path)
        raw = path.read_bytes()
        assert raw[:8] == MAGIC
        n_points, length = struct.unpack_from("<qd", raw, 8)
        assert n_points == 16 and length == 30.0
        (count,) = struct.unpack_from("<q", raw, 24)
        assert count == 3
        header = 8 + 8 + 8 + 8 + 4 * 8 + 8 + 8
        (t0,) = struct.unpack_from("<d", raw, header)
        assert t0 == 1.0
        # first snapshot, first sample of u: interleaved little-endian re, im
        re, im = struct.unpack_from("<dd", raw, header + 8)
        s = traj.snapshots[0].u.samples[0]
        assert re == s.real and im == s.imag
        assert len(raw) == header + 3 * (8 + 2 * 16 * 16)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\0" * 80)
        with pytest.raises(FormatError):
            sl.load_trajectory(path)

    def test_truncated_file_rejected(self, tmp_path):
        traj = tiny_trajectory()
        path = tmp_path / "t.bin"
        sl.save_trajectory(traj, path)
        path.write_bytes(path.read_bytes()[:-7])
        with pytest.raises(FormatError):
            sl.load_trajectory(path)

    def test_oversized_header_rejected_before_grid(self, tmp_path, monkeypatch):
        # an 88-byte file claiming N = 2^24 must not allocate that grid
        path = tmp_path / "big.bin"
        write_with_header(path, body_bytes=8, N=2**24)
        assert len(path.read_bytes()) == 88
        grids = []
        monkeypatch.setattr(trajio, "Grid1D", lambda **kw: grids.append(kw))
        with pytest.raises(FormatError, match="file length"):
            sl.load_trajectory(path)
        assert grids == []

    @pytest.mark.parametrize(
        "changes",
        [{"N": 15}, {"L": float("nan")}, {"alpha": 0.1}, {"count": 0}, {"epsilon": float("nan")}],
        ids=["odd_N", "nan_L", "alpha_outside_window", "count_zero", "nan_epsilon"],
    )
    def test_invalid_header_value_is_format_error(self, tmp_path, changes):
        path = tmp_path / "bad.bin"
        write_with_header(path, **changes)
        with pytest.raises(FormatError):
            sl.load_trajectory(path)

    def test_nonfinite_snapshot_time_is_format_error(self, tmp_path):
        # comparisons with NaN are false, so ordering checks alone let it by
        path = tmp_path / "bad.bin"
        for index, t in ((0, float("nan")), (1, float("nan")), (2, float("inf"))):
            sl.save_trajectory(tiny_trajectory(), path)
            raw = bytearray(path.read_bytes())
            struct.pack_into("<d", raw, _HEADER.size + index * (8 + 2 * 16 * 16), t)
            path.write_bytes(raw)
            with pytest.raises(FormatError, match="finite"):
                sl.load_trajectory(path)


@st.composite
def trajectories(draw):
    """Trajectories of even N >= 8 and 1 to 6 snapshots at increasing times
    from 1, their samples any float64 bit patterns (NaNs and infinities
    included)."""
    n = 2 * draw(st.integers(4, 40))
    count = draw(st.integers(1, 6))
    steps = draw(st.lists(st.floats(1e-3, 1e3), min_size=count - 1, max_size=count - 1))
    times = [1.0]
    for step in steps:
        times.append(times[-1] + step)
    parts = draw(arrays(np.float64, (count, 2, 2 * n)))
    grid = sl.Grid1D(L=draw(st.floats(1e-3, 1e4)), N=n)
    snaps = tuple(
        sl.PairState(*(sl.ComplexField(grid, part.view(np.complex128), "physical") for part in pair), t)
        for pair, t in zip(parts, times)
    )
    params = sl.AnalysisParams.make(epsilon=draw(st.floats(0.0, 10.0)))
    return sl.Trajectory(grid=grid, params=params, snapshots=snaps, dt=0.5)


def bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(trajectories())
    def test_round_trip_is_bitwise_and_read_only(self, traj):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.bin"
            sl.save_trajectory(traj, path)
            back = sl.load_trajectory(path, dt=traj.dt)
        assert (back.grid.L, back.grid.N, back.params, back.dt) == (traj.grid.L, traj.grid.N, traj.params, traj.dt)
        assert np.array_equal(bits(back.times), bits(traj.times))
        for a, b in zip(traj.snapshots, back.snapshots, strict=True):
            for mine, loaded in ((a.u, b.u), (a.v, b.v)):
                assert np.array_equal(bits(loaded.samples), bits(mine.samples))
                assert not loaded.samples.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(trajectories(), st.data())
    def test_truncated_file_rejected(self, traj, data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.bin"
            sl.save_trajectory(traj, path)
            raw = path.read_bytes()
            path.write_bytes(raw[: data.draw(st.integers(0, len(raw) - 1))])
            with pytest.raises(FormatError):
                sl.load_trajectory(path)

    @settings(max_examples=60, deadline=None)
    @given(trajectories(), st.binary(min_size=8, max_size=8).filter(lambda magic: magic != MAGIC))
    def test_bad_magic_rejected(self, traj, magic):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "t.bin"
            sl.save_trajectory(traj, path)
            path.write_bytes(magic + path.read_bytes()[8:])
            with pytest.raises(FormatError, match="bad magic"):
                sl.load_trajectory(path)


class TestCsv:
    def test_schema_and_determinism(self, tmp_path, richardson_traj):
        analysis = sl.analyze_trajectory(richardson_traj, with_asymptotic=False)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        sl.write_snapshot_csv(p1, analysis)
        sl.write_snapshot_csv(p2, analysis)
        text = p1.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        assert len(text.splitlines()) == len(richardson_traj.snapshots) + 1
        assert p1.read_bytes() == p2.read_bytes()

    def test_float_round_trip(self, tmp_path, richardson_traj):
        analysis = sl.analyze_trajectory(richardson_traj, with_asymptotic=False)
        path = tmp_path / "a.csv"
        sl.write_snapshot_csv(path, analysis)
        rows = path.read_text().splitlines()[1:]
        got = np.array([float(line.split(",")[1]) for line in rows])
        assert np.array_equal(got, analysis.u_linf)

    def test_saved_trajectory_reanalyzes_identically(self, tmp_path, richardson_traj):
        # the binary file is the hand-off format: analysis downstream of a
        # load must reproduce the in-memory results bit for bit
        path = tmp_path / "t.bin"
        sl.save_trajectory(richardson_traj, path)
        back = sl.load_trajectory(path, dt=richardson_traj.dt)
        a1 = sl.analyze_trajectory(richardson_traj, with_asymptotic=False)
        a2 = sl.analyze_trajectory(back, with_asymptotic=False)
        p1, p2 = tmp_path / "m.csv", tmp_path / "l.csv"
        sl.write_snapshot_csv(p1, a1)
        sl.write_snapshot_csv(p2, a2)
        assert p1.read_bytes() == p2.read_bytes()
