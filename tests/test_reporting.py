"""CSV formatting, binary field dumps, and the run manifest."""
import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from insens4.errors import SetupError
from insens4.reporting import (
    FIELD_MAGIC,
    RunManifest,
    format_cell,
    read_field_dump,
    write_csv,
    write_field_dump,
    write_manifest,
)


def _dump(dim, n_cells, nt, n_values):
    """A field dump with the given header fields and n_values zero doubles."""
    payload = bytes(8 * n_values)
    return struct.pack("<8sIIIIQ", FIELD_MAGIC, dim, n_cells, nt, 0,
                       len(payload)) + payload


class TestFormatCell:
    def test_float_round_trip(self):
        for x in (0.1, 1.0 / 3.0, 6.886014e-3, 1e-300, -2.5e17, np.pi):
            assert float(format_cell(x)) == x
            assert float(format_cell(np.float64(x))) == x

    def test_bool_before_int(self):
        # bool is an int subclass; the true/false spelling must win
        assert format_cell(True) == "true"
        assert format_cell(False) == "false"

    def test_int_and_str(self):
        assert format_cell(42) == "42"
        assert format_cell(np.int64(-7)) == "-7"
        assert format_cell("ok") == "ok"


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        path = write_csv(tmp_path / "t.csv", ["k", "v"], [["a", 1], ["b", 0.5]])
        assert path.read_bytes() == b"k,v\na,1\nb,0.5\n"

    def test_deterministic(self, tmp_path):
        rows = [[i, np.sin(i)] for i in range(20)]
        a = write_csv(tmp_path / "a.csv", ["i", "s"], rows).read_bytes()
        b = write_csv(tmp_path / "b.csv", ["i", "s"], rows).read_bytes()
        assert a == b
        assert a.endswith(b"\n") and b"\r" not in a

    def test_floats_survive(self, tmp_path):
        vals = np.random.default_rng(3).standard_normal(16)
        path = write_csv(tmp_path / "f.csv", ["x"], [[v] for v in vals])
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        assert np.array_equal(np.array([float(s) for s in lines]), vals)


class TestFieldDump:
    def test_round_trip_series_1d(self, tmp_path, rng):
        fields = rng.standard_normal((5, 15))
        path = write_field_dump(tmp_path / "w.fld", fields, dim=1, n_cells=16)
        dim, n_cells, back = read_field_dump(path)
        assert (dim, n_cells) == (1, 16)
        assert np.array_equal(back, fields)

    def test_round_trip_static_2d(self, tmp_path, rng):
        field = rng.standard_normal((7, 7))
        path = write_field_dump(tmp_path / "s.fld", field, dim=2, n_cells=8)
        dim, n_cells, back = read_field_dump(path)
        assert (dim, n_cells) == (2, 8)
        assert back.shape == (1, 7, 7)
        assert np.array_equal(back[0], field)

    def test_header_layout(self, tmp_path):
        fields = np.arange(3.0 * 15).reshape(3, 15)
        raw = write_field_dump(tmp_path / "h.fld", fields, 1, 16).read_bytes()
        magic, dim, n_cells, nt, pad, length = struct.unpack("<8sIIIIQ",
                                                             raw[:32])
        assert magic == FIELD_MAGIC == b"INS4FLD\x00"
        assert (dim, n_cells, nt, pad) == (1, 16, 3, 0)
        assert length == 3 * 15 * 8 == len(raw) - 32
        assert raw[32:40] == struct.pack("<d", 0.0)

    def test_shape_mismatch(self, tmp_path):
        with pytest.raises(SetupError) as exc:
            write_field_dump(tmp_path / "x.fld", np.zeros((4, 9)), 1, 16)
        assert exc.value.code == "field-dump-shape"

    @pytest.mark.parametrize("mutate", [
        lambda raw: raw[:16],                      # truncated header
        lambda raw: b"BADMAGIC" + raw[8:],         # wrong magic
        lambda raw: raw[:-8],                      # short payload
        lambda raw: raw[:24] + struct.pack("<Q", 8) + raw[32:],  # lying length
        # headers whose payload length agrees with an impossible shape
        lambda raw: _dump(0, 16, 2, 2),          # dimension 0
        lambda raw: _dump(3, 3, 1, 8),           # dimension 3
        lambda raw: _dump(2, 0, 1, 1),           # no cells (2D)
        lambda raw: _dump(1, 0, 0, 0),           # no cells, no records (1D)
        lambda raw: _dump(1, 1, 2, 0),           # one cell: no interior node
        lambda raw: _dump(1, 16, 0, 0),          # no records
        # 4 (2^31)^2 records wrap to 0 in int64 and would match no payload
        lambda raw: _dump(2, 2**31 + 1, 4, 0),
    ])
    def test_corrupt_files(self, tmp_path, mutate):
        good = write_field_dump(tmp_path / "g.fld", np.ones((2, 15)), 1, 16)
        bad = tmp_path / "bad.fld"
        bad.write_bytes(mutate(good.read_bytes()))
        with pytest.raises(SetupError) as exc:
            read_field_dump(bad)
        assert exc.value.code == "field-dump-corrupt"

    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(index=st.integers(1, 5), cut=st.none() | st.integers(0, 272),
           value=st.sampled_from([0, 1, 2, 3, 8, 15, 16, 17, 240, 2**31 + 1,
                                  2**32 - 1, 2**63, 2**64 - 1])
           | st.integers(0, 2**64 - 1))
    def test_fuzzed_dump_reads_or_is_corrupt(self, tmp_path, index, cut,
                                             value):
        # one header field (dimension, cells, records, padding or length)
        # replaced, then the file truncated or not
        good = _dump(1, 16, 2, 30)
        head = list(struct.unpack("<8sIIIIQ", good[:32]))
        head[index] = value % (2**64 if index == 5 else 2**32)
        raw = (struct.pack("<8sIIIIQ", *head) + good[32:])[:cut]
        path = tmp_path / "fuzz.fld"
        path.write_bytes(raw)
        try:
            dim, n_cells, fields = read_field_dump(path)
        except SetupError as exc:
            assert exc.code == "field-dump-corrupt"
            return
        assert fields.shape == (head[3],) + (n_cells - 1,) * dim
        assert fields.nbytes == len(raw) - 32 == head[5]


class TestManifest:
    def test_records_and_serializes(self, tmp_path):
        m = RunManifest(command="verify", seed=7, config={"grid": {"cells": 16}})
        out = write_csv(tmp_path / "r.csv", ["a"], [[1]])
        m.add_output(out)
        m.add_check("duality", True, residual=np.float64(1e-15))
        m.add_check("null", False, value=2.0)
        m.timings["total"] = 0.1234567
        path = write_manifest(tmp_path / "manifest.json", m)
        doc = json.loads(path.read_text(encoding="utf-8"))
        assert doc["command"] == "verify" and doc["seed"] == 7
        assert doc["outputs"] == [{"path": "r.csv", "bytes": 4}]
        assert doc["checks"][0] == {"name": "duality", "passed": True,
                                    "residual": 1e-15}
        assert doc["all_passed"] is False
        assert doc["timings"]["total"] == 0.123457
        assert not m.all_passed

    def test_sorted_keys_deterministic(self, tmp_path):
        m1 = RunManifest(command="run", seed=0, config={"b": 1, "a": 2})
        m2 = RunManifest(command="run", seed=0, config={"a": 2, "b": 1})
        b1 = write_manifest(tmp_path / "m1.json", m1).read_bytes()
        b2 = write_manifest(tmp_path / "m2.json", m2).read_bytes()
        assert b1 == b2

    def test_nonfinite_values_stringified(self, tmp_path):
        m = RunManifest(command="run", seed=0, config={})
        m.add_check("overflow", True, cost=float("inf"), gap=float("nan"))
        doc = json.loads(write_manifest(tmp_path / "n.json", m).read_text())
        assert doc["checks"][0]["cost"] == "inf"
        assert doc["checks"][0]["gap"] == "nan"

    def test_error_entry_is_valid_json(self, tmp_path):
        # a coded error's context may hold a whole field and non-finite
        # values; the manifest must still be strict JSON, and not passed
        m = RunManifest(command="run", seed=0, config={})
        m.add_check("hum-converged", True)
        m.error = {"code": "lanczos-nonfinite", "message": "not finite",
                   "context": {"alphas": np.array([[0.5, np.nan]]),
                               "beta": np.float64(np.nan)}}

        def reject(token):
            raise ValueError(f"non-JSON constant {token}")

        text = write_manifest(tmp_path / "e.json", m).read_text()
        doc = json.loads(text, parse_constant=reject)
        assert doc["all_passed"] is False and not m.all_passed
        assert doc["error"] == {"code": "lanczos-nonfinite",
                                "message": "not finite",
                                "context": {"alphas": [[0.5, "nan"]],
                                            "beta": "nan"}}
