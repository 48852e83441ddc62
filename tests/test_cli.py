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
from tetrakit import models as md
from tetrakit.classify import OperatorTriple
from tetrakit.errors import SchemaError
from tetrakit.gen import GenConfig
from tetrakit.geometry import Point3
from tetrakit.matkernel import DEFAULT_TOL


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write_point(path, p):
    tio.dump_document("point", tio.point_to_json(p), path)


def write_triple(path, trip):
    tio.dump_document("triple", tio.triple_to_json(trip), path)


# Malformed data-set payloads: (path to the member, its bad value, message).
MALFORMED = {
    "samples-not-a-list": (("theta_samples",), 3, "theta_samples must be a list"),
    "data-not-a-list": (("g1", "data"), 5, "matrix data must be a list"),
    "pure-flag-a-string": (("pure_flag",), "no", "pure_flag must be true or false"),
    "strict-a-string": (("residual", "strict"), "no", "strict must be true or false"),
    "residual-size": (
        ("residual", "r"),
        tio.matrix_to_json(np.eye(1)),
        r"residual r has shape \(1, 1\), carrier has 0 columns",
    ),
    "g1-not-square": (("g1",), tio.matrix_to_json(np.zeros((1, 2))), r"g1 has shape \(1, 2\)"),
    "g2-unequal": (("g2",), tio.matrix_to_json(np.eye(3)), r"and g2 \(3, 3\)"),
    "g-beyond-samples": (
        ("theta_samples",),
        [{"z": [0.0, 0.0], "matrix": tio.matrix_to_json(np.zeros((3, 3)))}],
        r"both must be \(3, 3\)",
    ),
    # JSON true/false are not numbers, though Python's bool is an int.
    "rows-a-bool": (("g1", "rows"), True, "rows must be a nonnegative integer, got True"),
    "cols-a-bool": (("g2", "cols"), True, "cols must be a nonnegative integer, got True"),
    "entry-a-bool-pair": (("g1", "data", 0), [True, False], r"got \[True, False\]"),
    "z-a-bool-pair": (("theta_samples", 0, "z"), [False, False], r"got \[False, False\]"),
    "ambient-dim-a-bool": (
        ("residual", "ambient_dim"),
        True,
        "ambient_dim must be a nonnegative integer, got True",
    ),
    "ambient-dim-a-string": (
        ("residual", "ambient_dim"),
        "1",
        "ambient_dim must be a nonnegative integer, got '1'",
    ),
}


def malformed(payload, name):
    """A copy of a data-set payload with one member replaced by MALFORMED[name]."""
    payload = json.loads(json.dumps(payload))
    keys, value, _ = MALFORMED[name]
    target = payload
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return payload


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

    @pytest.mark.parametrize("name", list(MALFORMED))
    def test_malformed_dataset_rejected(self, name):
        ds = gen.gen_scalar_special_dataset(GenConfig(seed=2, dim=1), fourier_modes=8)
        with pytest.raises(SchemaError, match=MALFORMED[name][2]):
            tio.dataset_from_json(malformed(tio.dataset_to_json(ds), name))


    def test_dataset_without_samples_accepted(self):
        ds = gen.gen_scalar_special_dataset(GenConfig(seed=2, dim=1), fourier_modes=8)
        payload = tio.dataset_to_json(ds)
        payload["theta_samples"] = []
        back = tio.dataset_from_json(payload)
        assert back.defect_dims == (0, 1)
        assert np.array_equal(back.g2, ds.g2)

    def test_roundtrip_detects_lossy_codec(self, workdir, monkeypatch):
        path = workdir / "trip.json"
        write_triple(path, gen.gen_normal_e_contraction(GenConfig(seed=1, dim=2)))

        def halving(obj):
            t = tio.triple_from_json(obj)
            return OperatorTriple(0.5 * t.a, t.b, t.t)

        entry = (tio.IO_SCHEMA, tio.triple_to_json, halving)
        monkeypatch.setitem(tio._KINDS, "triple", entry)
        with pytest.raises(SchemaError, match="round trip"):
            tio.roundtrip_io(path)

    def test_kind_under_wrong_schema_rejected(self):
        trip = gen.gen_normal_e_contraction(GenConfig(seed=1, dim=2))
        ds = gen.gen_scalar_special_dataset(GenConfig(seed=2, dim=1), fourier_modes=8)
        for kind, payload, schema in (
            ("triple", tio.triple_to_json(trip), tio.MODEL_SCHEMA),
            ("point", tio.point_to_json(Point3(0, 0, 0)), tio.MODEL_SCHEMA),
            ("dataset", tio.dataset_to_json(ds), tio.IO_SCHEMA),
        ):
            doc = {"schema": schema, "kind": kind, "payload": payload}
            with pytest.raises(SchemaError, match="schema"):
                tio.parse_document(doc)
            doc["schema"] = tio.wrap_document(kind, payload)["schema"]
            assert tio.parse_document(doc)[0] == kind

    @pytest.mark.parametrize("kind", ["model", "report"])
    def test_written_only_kinds_cannot_be_parsed(self, kind):
        # A model is written only inside the lift report; neither is read back.
        doc = {"schema": tio.MODEL_SCHEMA, "kind": kind, "payload": {}}
        with pytest.raises(SchemaError, match=f"cannot parse documents of kind '{kind}'"):
            tio.parse_document(doc)


class TestCliExitCodes:
    @pytest.mark.parametrize("command", ["fundops", "lift", "dataset"])
    def test_norm_of_a_beyond_one_exits_3(self, workdir, capsys, command):
        # A commuting triple with contractive T but ||A|| = 5 is no E-contraction.
        path = workdir / "a5.json"
        a, b, t = 5.0 * np.eye(2), np.diag([0.5, 0.2]), np.diag([0.1, 0.3])
        write_triple(path, OperatorTriple(a, b, t))
        out = workdir / "r.json"
        assert cli.main([command, str(path), "--out", str(out)]) == 3
        assert "A, B and T must be contractions" in capsys.readouterr().err
        assert not out.exists()

    def test_pc_unitary_beyond_one_has_no_data_set(self, workdir, capsys):
        # A unitary T leaves no completely non-unitary part, but ||S|| > 1
        # still fails the contraction rule on the whole triple.
        trip = gen.gen_pc_unitary(GenConfig(seed=1, dim=3))
        assert np.linalg.norm(trip.b, 2) > 1.0 + DEFAULT_TOL.eq_tol
        path, out = workdir / "pc.json", workdir / "r.json"
        write_triple(path, trip)
        assert cli.main(["dataset", str(path), "--out", str(out)]) == 3
        assert "A, B and T must be contractions" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_special_pair_is_a_negative_verdict(self, workdir):
        ds = gen.gen_scalar_special_dataset(GenConfig(seed=1, dim=1))
        ds.g1[:] = 1e160
        path = workdir / "huge.json"
        tio.dump_document("dataset", tio.dataset_to_json(ds), path)
        out = workdir / "r.json"
        assert cli.main(["validate-special", str(path), "--out", str(out)]) == 2
        assert json.loads(out.read_text())["validate_special"]["passes_i"] is False

    def test_classify_report_keys(self, workdir):
        path = workdir / "good.json"
        write_triple(path, gen.gen_normal_e_contraction(GenConfig(seed=1, dim=2)))
        out = workdir / "r.json"
        assert cli.main(["classify", str(path), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert rep["provenance"]["tolerances"] == {"eq_tol": 1e-9}
        assert set(rep["classification"]) == {
            "commuting", "e_unitary", "e_isometry", "pc_isometry", "pc_unitary",
            "contraction_certificate", "failed_checks", "residuals",
        }

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

    def test_infinite_tol_exits_3(self, workdir, capsys):
        # An infinite tolerance would pass every check of the non-example.
        trip = gen.gen_non_example(GenConfig(seed=1, dim=3))
        path = workdir / "bad.json"
        write_triple(path, trip)
        out = workdir / "r.json"
        assert cli.main(["classify", str(path), "--tol", "inf", "--out", str(out)]) == 3
        assert "must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "command, kind, member, value, message",
        [
            ("membership", "point", (0,), [True, False], "expected [re, im] pair"),
            ("classify", "triple", ("a", "rows"), True, "rows must be a nonnegative integer"),
            (
                "validate-special",
                "dataset",
                ("residual", "carrier", "rows"),
                False,
                "rows must be a nonnegative integer",
            ),
        ],
        ids=["point", "triple", "dataset"],
    )
    def test_json_boolean_exits_3(self, workdir, capsys, command, kind, member, value, message):
        # Each document kind, with one number replaced by a JSON boolean.
        payload = {
            "point": tio.point_to_json(Point3(0, 0, 0)),
            "triple": tio.triple_to_json(gen.gen_normal_e_contraction(GenConfig(seed=1, dim=1))),
            "dataset": tio.dataset_to_json(
                gen.gen_scalar_special_dataset(GenConfig(seed=2, dim=1), fourier_modes=8)
            ),
        }[kind]
        target = payload
        for key in member[:-1]:
            target = target[key]
        target[member[-1]] = value
        path = workdir / "doc.json"
        tio.dump_document(kind, payload, path)
        out = workdir / "r.json"
        assert cli.main([command, str(path), "--out", str(out)]) == 3
        assert message in capsys.readouterr().err
        assert not out.exists()

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

    def test_unitary_t_set_coincides_with_itself(self, workdir):
        tpath, dpath, out = workdir / "u.json", workdir / "d.json", workdir / "c.json"
        generate = ["generate", "--class", "StrictEUnitary", "--seed", "1", "--out", str(tpath)]
        assert cli.main(generate) == 0
        assert cli.main(["dataset", str(tpath), "--grid", "8", "--out", str(dpath)]) == 0
        assert cli.main(["coincide", str(dpath), "--other", str(dpath), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())["coincide"]
        assert rep["coincide"] is True
        assert max(rep["residuals"].values()) <= 1e-9

    def test_classify_at_the_tolerance_edge(self, workdir):
        # A strict E-unitary with 0.9 eq_tol scale_norm() T added to A: its
        # pc identities read beyond eq_tol scale_norm(), but they are implied
        # by the pc-unitary conditions, so the report stays consistent.  Its
        # joint spectrum is tested at the same scale, so it passes (exit 0).
        trip = gen.gen_strict_e_unitary(GenConfig(seed=4, dim=3))
        a = trip.a + 0.9 * DEFAULT_TOL.eq_tol * trip.scale_norm() * trip.t
        edge = OperatorTriple(a, trip.b, trip.t)
        path, out = workdir / "edge.json", workdir / "r.json"
        write_triple(path, edge)
        assert cli.main(["classify", str(path), "--out", str(out)]) == 0
        rep = json.loads(out.read_text())["classification"]
        assert rep["e_unitary"] and rep["e_isometry"] and rep["pc_unitary"] and rep["pc_isometry"]

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


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A point, a pure triple, its data set and a special data set."""
    d = tmp_path_factory.mktemp("inputs")
    write_point(d / "point.json", Point3(0, 0, 0))
    trip = gen.gen_pure_e_contraction(GenConfig(seed=3, dim=2))
    write_triple(d / "pure.json", trip)
    ds = md.extract_data_set(trip, grid=8, tol=DEFAULT_TOL)
    tio.dump_document("dataset", tio.dataset_to_json(ds), d / "ds.json")
    special = gen.gen_scalar_special_dataset(GenConfig(seed=7, dim=1))
    tio.dump_document("dataset", tio.dataset_to_json(special), d / "special.json")
    for name in MALFORMED:
        payload = malformed(tio.dataset_to_json(ds), name)
        tio.dump_document("dataset", payload, d / f"{name}.json")
    return d


_DOCUMENT = {"provenance", "schema", "kind", "payload"}
_LIFT = {"provenance", "model", "residuals"}


class TestEveryCommand:
    @pytest.mark.parametrize(
        "args, sections",
        [
            (["membership", "point.json"], {"provenance", "verdict"}),
            (["classify", "pure.json"], {"provenance", "classification"}),
            (["fundops", "pure.json"], {"provenance", "fundamental_pair"}),
            (["lift", "pure.json"], _LIFT | {"model_detail"}),
            (["verify", "pure.json"], _LIFT),
            (["dataset", "pure.json", "--grid", "8"], _DOCUMENT),
            (["coincide", "ds.json", "--other", "ds.json"], {"provenance", "coincide"}),
            (["validate-special", "special.json"], {"provenance", "validate_special"}),
            (["generate", "--class", "PcUnitary", "--seed", "4", "--dim", "3"], _DOCUMENT),
            (["generate", "--class", "SpecialScalarDataSet", "--seed", "7"], _DOCUMENT),
        ],
        ids=[
            "membership",
            "classify",
            "fundops",
            "lift",
            "verify",
            "dataset",
            "coincide",
            "validate-special",
            "generate-triple",
            "generate-dataset",
        ],
    )
    def test_command(self, inputs, workdir, args, sections):
        out = workdir / "report.json"
        argv = [str(inputs / a) if a.endswith(".json") else a for a in args]
        assert cli.main(argv + ["--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert set(rep) == sections
        assert rep["provenance"]["command"] == args[0]
        assert rep["provenance"]["version"] == tetrakit.__version__

    def test_membership_witness(self, inputs, workdir):
        out = workdir / "report.json"
        assert cli.main(["membership", str(inputs / "point.json"), "--out", str(out)]) == 0
        witness = tio.matrix_from_json(json.loads(out.read_text())["verdict"]["witness"])
        assert witness.shape == (2, 2)
        assert np.linalg.norm(witness, 2) <= 1 + 1e-9

    @pytest.mark.parametrize(
        "cls, kind", [("PcUnitary", "triple"), ("SpecialScalarDataSet", "dataset")]
    )
    def test_generate_writes_the_generator_output(self, workdir, cls, kind):
        out = workdir / "gen.json"
        assert cli.main(["generate", "--class", cls, "--seed", "4", "--out", str(out)]) == 0
        got_kind, value = tio.load_document(out)
        want = gen.generate(GenConfig(seed=4, dim=2, class_tag=gen.ClassTag(cls)))
        assert got_kind == kind
        assert tio._document(kind, value) == tio._document(kind, want)

    @pytest.mark.parametrize(
        "args, message",
        [
            (["lift", "missing.json"], "No such file"),
            (["coincide", "ds.json"], "coincide requires --other"),
            (["classify", "ds.json"], "expected a triple document, got dataset"),
            (["classify", "pure.json", "--tol", "-1"], "eq_tol must be positive and finite"),
            (["classify", "pure.json", "--tol", "0"], "eq_tol must be positive and finite"),
            (["coincide", "samples-not-a-list.json", "--other", "ds.json"], "must be a list"),
            (["coincide", "ds.json", "--other", "data-not-a-list.json"], "must be a list"),
            (["validate-special", "pure-flag-a-string.json"], "pure_flag must be true or false"),
            (["validate-special", "strict-a-string.json"], "strict must be true or false"),
            (["coincide", "residual-size.json", "--other", "ds.json"], "carrier has 0 columns"),
            (["dataset", "pure.json", "--modes", "-1"], "boundary must be nonnegative, got -2"),
            (["validate-special", "special.json", "--modes", "-1"], "fourier_modes must be"),
            (["classify", "pure.json", "--mc-samples", "-1"], "mc_samples must be nonnegative"),
            (["coincide", "g1-not-square.json", "--other", "ds.json"], "g1 has shape (1, 2)"),
            (["coincide", "ds.json", "--other", "g2-unequal.json"], "and g2 (3, 3)"),
            (["validate-special", "g-beyond-samples.json"], "both must be (3, 3)"),
        ],
        ids=[
            "missing-file",
            "coincide-without-other",
            "dataset-to-classify",
            "negative-tol",
            "zero-tol",
            "samples-not-a-list",
            "data-not-a-list",
            "pure-flag-a-string",
            "strict-a-string",
            "residual-size",
            "negative-boundary",
            "negative-modes",
            "negative-mc-samples",
            "g1-not-square",
            "g2-unequal",
            "g-beyond-samples",
        ],
    )
    def test_input_errors_exit_3(self, inputs, workdir, capsys, args, message):
        argv = [str(inputs / a) if a.endswith(".json") else a for a in args]
        assert cli.main(argv + ["--out", str(workdir / "r.json")]) == 3
        assert message in capsys.readouterr().err
        assert not (workdir / "r.json").exists()


def run_fresh(script, cwd, **env_extra):
    """Run script in a fresh interpreter that imports tetrakit from this tree."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    }
    env["PYTHONPATH"] = str(Path(tetrakit.__file__).resolve().parents[1])
    env.update(env_extra)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=cwd, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


# Defines run(*argv), which requires exit 0 of cli.main, and writes the
# inputs point.json, pure.json and special.json.
_CLI_PRELUDE = """
import json, sys
from tetrakit import cli, io as tio
from tetrakit.geometry import Point3

def run(*argv, out="r.json"):
    assert cli.main(list(argv) + ["--out", out]) == 0, argv

tio.dump_document("point", tio.point_to_json(Point3(0, 0, 0)), "point.json")
run("generate", "--class", "PureEContraction", "--seed", "3", out="pure.json")
run("generate", "--class", "SpecialScalarDataSet", "--seed", "7", out="special.json")
"""

_SCIPY_USE_PROBE = _CLI_PRELUDE + """
loaded = []
def step(*argv, out="r.json"):
    run(*argv, out=out)
    if "scipy" in sys.modules:
        loaded.append(argv[0])
step("membership", "point.json")
step("classify", "pure.json")
step("fundops", "pure.json")
step("lift", "pure.json")
step("verify", "pure.json")
step("dataset", "pure.json", "--grid", "8", out="ds.json")
step("coincide", "ds.json", "--other", "ds.json")
step("validate-special", "special.json")
print(json.dumps(loaded))
"""


def test_no_command_loads_scipy(tmp_path):
    # The library needs numpy alone; scipy.linalg would add about 0.2 s to
    # the start-up of any command that loaded it.
    assert json.loads(run_fresh(_SCIPY_USE_PROBE, tmp_path)) == []


# Records OPENBLAS_NUM_THREADS when the module is first looked up; numpy's
# wheels bundle their own OpenBLAS, which reads it only when it loads.
_IMPORT_PROBE = """
import os, sys
seen = []
class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == {module!r} and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
sys.meta_path.insert(0, Probe())
import tetrakit.cli
{then}
print(seen[0])
"""


class TestThreadCap:
    def test_cap_set_before_numpy_loads(self, tmp_path):
        script = _IMPORT_PROBE.format(module="numpy", then="")
        assert run_fresh(script, tmp_path, TETRAKIT_THREADS="1") == "1"

    def test_cap_set_before_numpy_loads_on_classify(self, tmp_path):
        then = _CLI_PRELUDE + 'run("classify", "pure.json")'
        script = _IMPORT_PROBE.format(module="numpy", then=then)
        assert run_fresh(script, tmp_path, TETRAKIT_THREADS="1") == "1"
