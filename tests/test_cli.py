import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tetrakit
from tetrakit import cli
from tetrakit import gen
from tetrakit import io as tio
from tetrakit.errors import SchemaError
from tetrakit.gen import GenConfig
from tetrakit.geometry import Point3


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write_point(path, p):
    tio.dump_document("point", tio.point_to_json(p), path)


def write_triple(path, trip):
    tio.dump_document("triple", tio.triple_to_json(trip), path)


class TestIO:
    def test_matrix_roundtrip_exact(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        back = tio.matrix_from_json(json.loads(json.dumps(tio.matrix_to_json(m))))
        assert np.array_equal(m, back)

    def test_triple_roundtrip(self, workdir):
        trip = gen.gen_normal_e_contraction(GenConfig(seed=1, dim=3))
        path = workdir / "trip.json"
        write_triple(path, trip)
        value = tio.roundtrip_io(path)
        assert np.array_equal(value.a, trip.a)
        assert np.array_equal(value.t, trip.t)

    def test_dataset_roundtrip(self, workdir):
        ds = gen.gen_scalar_special_dataset(GenConfig(seed=2, dim=1), fourier_modes=8)
        path = workdir / "ds.json"
        tio.dump_document("dataset", tio.dataset_to_json(ds), path)
        back = tio.roundtrip_io(path)
        assert np.array_equal(back.g1, ds.g1)
        assert len(back.theta_samples) == len(ds.theta_samples)
        assert back.residual.dim == 0

    def test_nan_rejected(self):
        with pytest.raises(SchemaError):
            tio.matrix_from_json({"rows": 1, "cols": 1, "data": [[float("nan"), 0.0]]})

    def test_v0_schema_rejected(self, workdir):
        path = workdir / "old.json"
        path.write_text(
            json.dumps({"schema": "tetrakit/io/v0", "kind": "point", "payload": []})
        )
        with pytest.raises(SchemaError, match="v0"):
            tio.load_document(path)

    def test_wrong_entry_count(self):
        with pytest.raises(SchemaError):
            tio.matrix_from_json({"rows": 2, "cols": 2, "data": [[0.0, 0.0]]})


class TestCliExitCodes:
    def test_membership_origin(self, workdir):
        path = workdir / "p.json"
        write_point(path, Point3(0, 0, 0))
        out = workdir / "rep.json"
        assert cli.main(["membership", str(path), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["verdict"]["in_open"] is True

    def test_membership_outside(self, workdir):
        path = workdir / "p.json"
        write_point(path, Point3(3, 0, 0))
        assert cli.main(["membership", str(path), "--out", str(workdir / "r.json")]) == 2

    def test_classify_non_example_exits_2(self, workdir):
        trip = gen.gen_non_example(GenConfig(seed=1, dim=3))
        path = workdir / "bad.json"
        write_triple(path, trip)
        assert cli.main(["classify", str(path), "--out", str(workdir / "r.json")]) == 2

    def test_lift_auto_on_pure(self, workdir):
        trip = gen.gen_pure_e_contraction(GenConfig(seed=3, dim=2))
        path = workdir / "pure.json"
        write_triple(path, trip)
        out = workdir / "lift.json"
        assert cli.main(["lift", str(path), "--order", "auto", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        for key in ("intertwine_a", "intertwine_b", "intertwine_t"):
            assert rep["residuals"][key] <= 1e-8

    def test_malformed_json_exits_3(self, workdir):
        path = workdir / "junk.json"
        path.write_text("{not json")
        assert cli.main(["classify", str(path)]) == 3

    def test_missing_file_exits_3(self, workdir):
        assert cli.main(["classify", str(workdir / "nope.json")]) == 3

    def test_dimension_mismatch_exits_3(self, workdir):
        doc = {
            "schema": "tetrakit/io/v1",
            "kind": "triple",
            "payload": {
                "a": {"rows": 2, "cols": 2, "data": [[1.0, 0.0]] * 4},
                "b": {"rows": 3, "cols": 3, "data": [[0.0, 0.0]] * 9},
                "t": {"rows": 2, "cols": 2, "data": [[0.0, 0.0]] * 4},
            },
        }
        path = workdir / "mismatch.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["classify", str(path)]) == 3

    def test_dataset_coincide_validate_flow(self, workdir):
        trip = gen.gen_pure_e_contraction(GenConfig(seed=5, dim=2))
        tpath = workdir / "t.json"
        write_triple(tpath, trip)
        d1 = workdir / "d1.json"
        assert cli.main(["dataset", str(tpath), "--grid", "8", "--out", str(d1)]) == 0
        assert (
            cli.main(
                ["coincide", str(d1), "--other", str(d1), "--out", str(workdir / "c.json")]
            )
            == 0
        )
        other = gen.gen_pure_e_contraction(GenConfig(seed=6, dim=2))
        opath = workdir / "o.json"
        write_triple(opath, other)
        d2 = workdir / "d2.json"
        cli.main(["dataset", str(opath), "--grid", "8", "--out", str(d2)])
        assert (
            cli.main(
                ["coincide", str(d1), "--other", str(d2), "--out", str(workdir / "c2.json")]
            )
            == 2
        )

    def test_generate_validate_special(self, workdir):
        sp = workdir / "sp.json"
        assert (
            cli.main(
                [
                    "generate",
                    "--class",
                    "SpecialScalarDataSet",
                    "--seed",
                    "7",
                    "--out",
                    str(sp),
                ]
            )
            == 0
        )
        assert (
            cli.main(
                ["validate-special", str(sp), "--modes", "64", "--out", str(workdir / "v.json")]
            )
            == 0
        )

    def test_fundops_report(self, workdir):
        trip = gen.gen_normal_e_contraction(GenConfig(seed=2, dim=2))
        path = workdir / "n.json"
        write_triple(path, trip)
        out = workdir / "f.json"
        assert cli.main(["fundops", str(path), "--adjoint", "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["fundamental_pair"]["pencil_nu_max"] <= 1 + 1e-8

    def test_fundops_report_brackets_pencil_supremum(self, workdir):
        trip = gen.gen_pure_e_contraction(GenConfig(seed=3, dim=3))
        path = workdir / "p.json"
        write_triple(path, trip)
        out = workdir / "f.json"
        assert cli.main(["fundops", str(path), "--out", str(out)]) == 0
        pair = json.loads(out.read_text())["fundamental_pair"]
        assert pair["pencil_nu_max"] <= pair["pencil_nu_upper"] <= 1.0

    def test_reproducible_up_to_timestamp(self, workdir):
        trip = gen.gen_normal_e_contraction(GenConfig(seed=8, dim=2))
        path = workdir / "n.json"
        write_triple(path, trip)
        o1, o2 = workdir / "r1.json", workdir / "r2.json"
        cli.main(["classify", str(path), "--out", str(o1)])
        cli.main(["classify", str(path), "--out", str(o2)])
        r1 = json.loads(o1.read_text())
        r2 = json.loads(o2.read_text())
        r1["provenance"].pop("timestamp")
        r2["provenance"].pop("timestamp")
        assert r1 == r2


_NUMPY_IMPORT_PROBE = """
import os, sys
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Probe())
import tetrakit.cli
print(seen[0])
"""


class TestThreadCap:
    def test_cap_set_before_numpy_loads(self):
        env = {
            k: v
            for k, v in os.environ.items()
            if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        }
        env["TETRAKIT_THREADS"] = "1"
        env["PYTHONPATH"] = str(Path(tetrakit.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", _NUMPY_IMPORT_PROBE],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "1"
