import json
import shutil
import struct

import numpy as np
import pytest

from qptori import cli, parallel
from qptori.errors import ArtifactError
from qptori.fourier import FourierField, MeshSpec
from qptori.manifold import ManifoldExpansion
from qptori.torus import TorusSolution

CONFIG_D1 = """\
[model]
name = pendulum
d = 1
alpha = 0.8
eps = 0.01

[mesh]
N = 31

[newton]
tol = 1e-10
max_iter = 12

[integrator]
tol = 1e-14

[manifold]
order = 4
branches = unstable stable
scaling = 1.0

[run]
sections = 1
threads = 1
test_tol = 1e-10
"""


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One d=1 torus+manifold CLI run shared by the read-only checks."""
    out = tmp_path_factory.mktemp("run")
    config = out / "run.ini"
    config.write_text(CONFIG_D1)
    assert cli.main(["torus", "--config", str(config), "--out", str(out)]) == 0
    assert cli.main(["manifold", "--config", str(config), "--out", str(out)]) == 0
    return out, config


@pytest.fixture(scope="module")
def d2_artifacts(tmp_path_factory):
    """Small synthetic d=2 torus and manifold artifacts for the slice checks;
    both are whole, so a refusal comes from the argument under test."""
    out = tmp_path_factory.mktemp("d2")
    mesh = MeshSpec((5, 7))
    rng = np.random.default_rng(3)
    fields = [
        FourierField.from_values(mesh, rng.standard_normal(mesh.shape + (2,)))
        for _ in range(3)
    ]
    C = np.broadcast_to(np.eye(2), mesh.shape + (2, 2))
    TorusSolution(fields[0], C, np.diag([2.0, 0.5]), np.array([0.3, 0.4])).save(str(out / "torus"))
    exp = ManifoldExpansion(
        "unstable", 2.0, np.array([1.0, 0.0]), fields, 1.0, np.array([0.3, 0.4])
    )
    exp.save(str(out / "manifold_unstable"))
    return out


class TestConfig:
    def test_example_config_parses(self, tmp_path):
        path = tmp_path / "example.ini"
        path.write_text(cli.example_config)
        cfg = cli.RunConfig.from_file(str(path))
        assert cfg.model == "pendulum"
        assert cfg.mesh == (31, 31)
        assert cfg.newton_tol == 1e-10
        assert cfg.branches == ("unstable", "stable")
        assert cfg.scaling == "auto"

    def test_missing_config_exit_code(self, tmp_path):
        rc = cli.main(["torus", "--config", str(tmp_path / "no.ini"), "--out", str(tmp_path)])
        assert rc == 5  # unreadable artifact / config

    @pytest.mark.parametrize(
        "old, new",
        [
            ("N = 31", "N = 14"),
            ("N = 31", "N = abc"),
            ("d = 1", "d = 5"),
            ("name = pendulum", "name = duffing"),
            ("sections = 1", "sections = 0"),
            ("scaling = 1.0", "scaling = big"),
            ("order = 4", "order = 0"),
            ("[model]\n", ""),
            ("branches = unstable stable", "branches = unstable stabel"),
            ("[integrator]\ntol = 1e-14", "[integrator]\ntol = 0"),
            ("[integrator]\ntol = 1e-14", "[integrator]\ntol = inf"),
            ("[newton]\ntol = 1e-10", "[newton]\ntol = nan"),
            ("test_tol = 1e-10", "test_tol = -1"),
            ("max_iter = 12", "max_iter = -3"),
            ("branches = unstable stable", "branches ="),
            ("order = 4", "oder = 4"),
            ("[run]", "[runn]"),
            ("[model]", "[DEFAULT]\nalpha = 0.5\n\n[model]"),
            ("threads = 1", "threads = 0"),
            ("threads = 1", "threads = -3"),
            ("alpha = 0.8", "alpha = nan"),
            ("alpha = 0.8", "alpha = inf"),
            ("eps = 0.01", "eps = nan"),
            ("eps = 0.01", "eps = 0.01\nomega = 1.0 nan"),
        ],
        ids=[
            "even-mesh",
            "mesh-not-a-number",
            "d-5",
            "unknown-model",
            "no-sections",
            "scaling-not-a-number",
            "order-0",
            "no-section-header",
            "unknown-branch",
            "integrator-tol-0",
            "integrator-tol-inf",
            "newton-tol-nan",
            "test-tol-negative",
            "max-iter-negative",
            "no-branches",
            "misspelled-key",
            "unknown-section",
            "default-entry",
            "threads-0",
            "threads-negative",
            "alpha-nan",
            "alpha-inf",
            "eps-nan",
            "omega-nan",
        ],
    )
    def test_bad_config_refused(self, tmp_path, capsys, old, new):
        # refused before anything is done: exit 5 and one error line, no
        # traceback, and no output directory made
        assert old in CONFIG_D1
        config = tmp_path / "bad.ini"
        config.write_text(CONFIG_D1.replace(old, new))
        rc = cli.main(["torus", "--config", str(config), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 5
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--config", "{config}", "--threads", "0"],
            ["--config", "{config}", "--threads", "-2"],
            ["--config", "{config}", "--threads", "abc"],
            [],
        ],
        ids=["threads-0", "threads-negative", "threads-not-a-number", "no-config"],
    )
    def test_bad_arguments_refused(self, tmp_path, capsys, args):
        # usage errors exit 5 like a bad config; argparse's own code, 2, means no convergence
        config = tmp_path / "run.ini"
        config.write_text(CONFIG_D1)
        argv = ["torus", "--out", str(tmp_path)] + [a.format(config=config) for a in args]
        rc = cli.main(argv)
        err = capsys.readouterr().err
        assert rc == 5
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not (tmp_path / "torus.json").exists()

    def test_out_is_a_file_refused(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text(CONFIG_D1)
        out = tmp_path / "taken"
        out.write_text("")
        rc = cli.main(["torus", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 5
        assert err.startswith("error: ") and err.count("\n") == 1


class TestTorusCommand:
    def test_artifacts_written(self, run_dir):
        out, _ = run_dir
        for name in ("torus.phi.bin", "torus.C.bin", "torus.json", "torus.log", "torus_report.json"):
            assert (out / name).exists()

    def test_report_contents(self, run_dir):
        out, _ = run_dir
        report = json.loads((out / "torus_report.json").read_text())
        assert report["command"] == "torus"
        assert report["wall_time"] > 0
        assert "map_eval_fraction" in report["profile"]
        assert all(t["passed"] for t in report["tests"])
        hist = report["solution"]["history"]
        assert hist[-1]["invariance"] <= 1e-10
        eigs = report["solution"]["eigenvalues"]
        assert eigs[-1] == pytest.approx(275.85, rel=1e-3)

    def test_map_eval_fraction_is_a_fraction(self, run_dir):
        # the map evaluations of Newton and of the tests, over the wall time of both
        out, _ = run_dir
        report = json.loads((out / "torus_report.json").read_text())
        assert 0.0 < report["profile"]["map_eval_fraction"] <= 1.0

    def test_mesh_defaults_to_each_angle_of_the_model(self, run_dir, tmp_path):
        # without [mesh], N = 31 on each of the d = 1 model's angles
        out, _ = run_dir
        config = tmp_path / "run.ini"
        config.write_text(CONFIG_D1.replace("[mesh]\nN = 31\n", ""))
        argv = ["torus", "--config", str(config), "--out", str(tmp_path)]
        assert cli.main(argv + ["--resume", str(out / "torus")]) == 0
        assert json.loads((tmp_path / "torus_report.json").read_text())["mesh"] == [31]


class TestResume:
    def _resume(self, run_dir, tmp_path, config_text):
        out, _ = run_dir
        config = tmp_path / "resume.ini"
        config.write_text(config_text)
        argv = ["torus", "--config", str(config), "--out", str(tmp_path)]
        return cli.main(argv + ["--resume", str(out / "torus")])

    def test_other_section_count_refused(self, run_dir, tmp_path, capsys):
        # an r=1 artifact (n=2) cannot seed the two-section lift (n=4)
        config = CONFIG_D1.replace("sections = 1", "sections = 2")
        assert self._resume(run_dir, tmp_path, config) == 5
        err = capsys.readouterr().err
        assert "does not match the configured map" in err
        # the rotations print as plain floats, not as numpy scalar reprs
        assert "(n=2, rho=[0.41421356237309515])" in err
        assert "(n=4, rho=[0.7071067811865476], sections=2)" in err

    def test_other_frequencies_refused(self, run_dir, tmp_path):
        # same state size, but another rotation number
        config = CONFIG_D1.replace("eps = 0.01", "eps = 0.01\nomega = 1.0 1.7")
        assert self._resume(run_dir, tmp_path, config) == 5

    def test_other_mesh_refused(self, run_dir, tmp_path, capsys):
        # an N=31 artifact cannot stand for an N=15 run: nothing is solved or saved
        config = CONFIG_D1.replace("N = 31", "N = 15")
        assert self._resume(run_dir, tmp_path, config) == 5
        assert "does not match the configured mesh" in capsys.readouterr().err
        assert not (tmp_path / "torus_report.json").exists()
        assert not (tmp_path / "torus.phi.bin").exists()

    def test_corrupt_header_refused(self, run_dir, tmp_path, capsys):
        # a d of 10^12 in the header is refused, not read as 8 TB of mesh sizes
        out, config = run_dir
        for suffix in (".C.bin", ".json"):
            shutil.copy(out / f"torus{suffix}", tmp_path / f"torus{suffix}")
        raw = (out / "torus.phi.bin").read_bytes()
        (tmp_path / "torus.phi.bin").write_bytes(_patch_header(16, 10**12)(raw))
        argv = ["manifold", "--config", str(config), "--out", str(tmp_path / "o")]
        assert cli.main(argv + ["--resume", str(tmp_path / "torus")]) == 5
        assert capsys.readouterr().err.startswith("error: cannot read torus artifact")


class TestManifoldCommand:
    def test_artifacts_written(self, run_dir):
        out, _ = run_dir
        for branch in ("unstable", "stable"):
            assert (out / f"manifold_{branch}.json").exists()
            for k in range(5):
                assert (out / f"manifold_{branch}.a{k}.bin").exists()
            assert (out / f"manifold_{branch}_slice.csv").exists()

    def test_report_contents(self, run_dir):
        out, _ = run_dir
        report = json.loads((out / "manifold_report.json").read_text())
        for branch in ("unstable", "stable"):
            entry = report["branches"][branch]
            assert entry["orders_pass"]
            assert max(entry["order_errors"]) <= 1e-10
            assert all(t["passed"] for t in entry["tests"])

    def test_report_transport_tails(self, run_dir):
        # per branch: order (as a string) -> relative tail of its transport
        out, _ = run_dir
        report = json.loads((out / "manifold_report.json").read_text())
        for branch in ("unstable", "stable"):
            tails = report["branches"][branch]["transport_tails"]
            assert list(tails) == ["2", "3", "4"]
            assert all(isinstance(t, float) and 0.0 <= t < 1e-6 for t in tails.values())

    def test_other_mesh_refused(self, run_dir, tmp_path, capsys):
        out, _ = run_dir
        config = tmp_path / "other.ini"
        config.write_text(CONFIG_D1.replace("N = 31", "N = 15"))
        argv = ["manifold", "--config", str(config), "--out", str(tmp_path)]
        assert cli.main(argv + ["--resume", str(out / "torus")]) == 5
        assert "does not match the configured mesh" in capsys.readouterr().err

    def test_auto_scaling_reexpands(self, run_dir, tmp_path, monkeypatch):
        # an estimated radius outside [0.1, 10] re-expands with sigma scaled by it
        out, _ = run_dir
        config = tmp_path / "auto.ini"
        config.write_text(CONFIG_D1.replace("scaling = 1.0", "scaling = auto"))
        monkeypatch.setattr(cli, "estimate_radius", lambda exp: 0.05)
        argv = ["manifold", "--config", str(config), "--out", str(tmp_path)]
        assert cli.main(argv + ["--resume", str(out / "torus")]) == 0
        report = json.loads((tmp_path / "manifold_report.json").read_text())
        for branch in ("unstable", "stable"):
            entry = report["branches"][branch]
            assert entry["scaling"] == 0.05
            assert entry["estimated_radius"] == 0.05
            assert max(entry["order_errors"]) <= 1e-10

    def test_order_one_reports_are_strict_json(self, run_dir, tmp_path):
        # an order-1 expansion has no order >= 2 to estimate a radius from:
        # the report says null, not the non-JSON Infinity
        out, _ = run_dir
        config = tmp_path / "order1.ini"
        config.write_text(
            CONFIG_D1.replace("order = 4", "order = 1").replace("scaling = 1.0", "scaling = auto")
        )
        argv = ["manifold", "--config", str(config), "--out", str(tmp_path)]
        assert cli.main(argv + ["--resume", str(out / "torus")]) in (0, 1)

        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        json.loads((out / "torus_report.json").read_text(), parse_constant=refuse)
        report = json.loads((tmp_path / "manifold_report.json").read_text(), parse_constant=refuse)
        for branch in ("unstable", "stable"):
            assert report["branches"][branch]["estimated_radius"] is None


class TestVerifyCommand:
    def test_fresh_artifacts_pass(self, run_dir):
        out, config = run_dir
        rc = cli.main(
            ["verify", "--config", str(config), "--out", str(out), str(out / "torus")]
        )
        assert rc == 0
        report = json.loads((out / "verify_report.json").read_text())
        assert report["artifacts"][0]["kind"] == "torus"

    def test_corrupted_artifact_fails(self, run_dir, tmp_path):
        out, config = run_dir
        # copy the artifact, then bump one Fourier mode of phi by 1e-6
        for suffix in (".phi.bin", ".C.bin", ".json"):
            shutil.copy(out / f"torus{suffix}", tmp_path / f"torus{suffix}")
        phi = FourierField.load(tmp_path / "torus.phi.bin")
        coeffs = phi.coeffs.copy()
        coeffs[2, 0] += 1e-6 * phi.mesh.M
        FourierField(phi.mesh, phi.n, coeffs=coeffs).save(tmp_path / "torus.phi.bin")
        rc = cli.main(
            ["verify", "--config", str(config), "--out", str(tmp_path), str(tmp_path / "torus")]
        )
        assert rc == 1

    @pytest.mark.parametrize("name", ["torus", "manifold_stable"])
    def test_other_frequencies_refused(self, run_dir, tmp_path, capsys, name):
        # an artifact of another rotation is refused, not failed as inaccurate
        out, _ = run_dir
        config = tmp_path / "other.ini"
        config.write_text(CONFIG_D1.replace("eps = 0.01", "eps = 0.01\nomega = 1.0 1.7"))
        argv = ["verify", "--config", str(config), "--out", str(tmp_path), str(out / name)]
        assert cli.main(argv) == 5
        assert "does not match the configured map" in capsys.readouterr().err

    def test_unknown_artifact_prefix(self, run_dir, tmp_path):
        out, config = run_dir
        rc = cli.main(
            ["verify", "--config", str(config), "--out", str(tmp_path), str(tmp_path / "ghost")]
        )
        assert rc == 5

    @pytest.mark.parametrize(
        "name, suffixes, damaged",
        [
            ("torus", (".phi.bin", ".C.bin", ".json"), ".phi.bin"),
            ("torus", (".phi.bin", ".C.bin", ".json"), ".C.bin"),
            (
                "manifold_stable",
                (".json", ".a0.bin", ".a1.bin", ".a2.bin", ".a3.bin", ".a4.bin"),
                ".a2.bin",
            ),
        ],
        ids=["torus-phi", "torus-C", "manifold-a2"],
    )
    def test_nan_coefficient_refused(self, run_dir, tmp_path, capsys, name, suffixes, damaged):
        # one NaN coefficient is refused on load, not integrated or tabulated
        out, config = run_dir
        for suffix in suffixes:
            shutil.copy(out / f"{name}{suffix}", tmp_path / f"{name}{suffix}")
        path = tmp_path / f"{name}{damaged}"
        path.write_bytes(_nan_coefficient(path.read_bytes()))
        argv = ["verify", "--config", str(config), "--out", str(tmp_path), str(tmp_path / name)]
        assert cli.main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "non-finite coefficients" in err

    def test_resume_refused(self, run_dir, tmp_path, capsys):
        # verify takes no seed: --resume is a usage error, not silently ignored
        out, config = run_dir
        argv = ["verify", "--config", str(config), "--out", str(tmp_path), str(out / "torus")]
        assert cli.main(argv + ["--resume", str(out / "torus")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "verify_report.json").exists()


def _patch_header(offset, value):
    """Overwrite one int64 of a coefficient file's header (d at byte 16, n at
    24, N_1 at 32)."""
    return lambda raw: raw[:offset] + struct.pack("<q", value) + raw[offset + 8 :]


def _nan_coefficient(raw):
    """Set the real part of a coefficient file's first coefficient to NaN."""
    (d,) = struct.unpack("<q", raw[16:24])
    start = 8 * (4 + d)  # magic, version, d, n, N_1..N_d
    return raw[:start] + struct.pack("<d", np.nan) + raw[start + 8 :]


class TestSliceCommand:
    def test_torus_slice_rows(self, run_dir, tmp_path):
        out, _ = run_dir
        dest = tmp_path / "slice.csv"
        rc = cli.main(["slice", str(out / "torus"), "--output", str(dest)])
        assert rc == 0
        lines = dest.read_text().strip().splitlines()
        assert len(lines) == 1 + 31  # header plus one row per mesh point

    @pytest.mark.parametrize(
        "damage",
        [
            lambda raw: raw[:56],  # header intact, coefficients gone
            lambda raw: raw[:20],  # cut inside the header
            lambda raw: b"NOTQPTF\x00" + raw[8:],  # bad magic
            _patch_header(16, 10**12),
            _patch_header(16, 0),
            _patch_header(16, -1),
            _patch_header(24, 0),
            _patch_header(24, 10**12),
            _patch_header(32, 10**12 + 1),
            lambda raw: raw + bytes(16),
            _nan_coefficient,
        ],
        ids=[
            "truncated-coefficients",
            "truncated-header",
            "bad-magic",
            "d-huge",
            "d-0",
            "d-negative",
            "n-0",
            "n-huge",
            "mesh-huge",
            "trailing-bytes",
            "nan-coefficient",
        ],
    )
    def test_corrupt_torus_artifact(self, run_dir, tmp_path, capsys, damage):
        # the damaged phi is the artifact's only fault
        out, _ = run_dir
        for suffix in (".C.bin", ".json"):
            shutil.copy(out / f"torus{suffix}", tmp_path / f"torus{suffix}")
        raw = (out / "torus.phi.bin").read_bytes()
        (tmp_path / "torus.phi.bin").write_bytes(damage(raw))
        rc = cli.main(["slice", str(tmp_path / "torus"), "--output", str(tmp_path / "s.csv")])
        assert rc == 5
        assert capsys.readouterr().err.startswith("error: cannot read torus artifact")

    def test_manifold_slice(self, run_dir, tmp_path):
        out, _ = run_dir
        dest = tmp_path / "mslice.csv"
        rc = cli.main(["slice", str(out / "manifold_unstable"), "--output", str(dest)])
        assert rc == 0
        assert dest.read_text().startswith("theta1,sigma,w0,w1")

    def test_manifold_fixed_applies(self, d2_artifacts, tmp_path):
        prefix = str(d2_artifacts / "manifold_unstable")
        dest = tmp_path / "mslice.csv"
        argv = ["slice", prefix, "--axis", "2", "--fixed", "0.37", "--output", str(dest)]
        assert cli.main(argv) == 0
        lines = dest.read_text().splitlines()
        assert lines[0] == "theta2,sigma,w0,w1"
        assert len(lines) == 1 + 7 * 9  # the swept angle's mesh size, nine sigmas each
        first = [float(v) for v in lines[1].split(",")]
        assert first[:2] == [0.0, -1.0]
        exp = ManifoldExpansion.load(prefix)
        assert np.array_equal(first[2:], exp.evaluate(np.array([0.37, 0.0]), -1.0))

    @pytest.mark.parametrize("name", ["torus", "manifold_unstable"])
    @pytest.mark.parametrize(
        "args",  # each refusal names the argument at fault, args[0]
        [
            ["--axis", "3"],
            ["--axis", "0"],
            ["--fixed", "0.1,0.2,0.3"],
            ["--fixed", "abc"],
            ["--fixed", "nan"],
            ["--fixed", "inf"],
            ["--count", "-3"],
            ["--axis", "q"],
        ],
        ids=[
            "axis-3",
            "axis-0",
            "three-fixed",
            "fixed-not-a-number",
            "fixed-nan",
            "fixed-inf",
            "negative-count",
            "axis-not-a-number",
        ],
    )
    def test_bad_arguments_refused(self, d2_artifacts, tmp_path, capsys, name, args):
        dest = tmp_path / "s.csv"
        argv = ["slice", str(d2_artifacts / name), "--output", str(dest)] + args
        assert cli.main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert args[0] in err
        assert not dest.exists()

    @pytest.mark.parametrize("name", ["torus", "manifold_unstable"])
    def test_unwritable_output_refused(self, d2_artifacts, tmp_path, capsys, name):
        dest = tmp_path / "missing" / "s.csv"
        assert cli.main(["slice", str(d2_artifacts / name), "--output", str(dest)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output") and err.count("\n") == 1


def _ones_field(mesh, n):
    return FourierField.from_values(mesh, np.ones(mesh.shape + (n,)))


def _zero_change(meta, path):
    # finite, but singular at every grid point
    mesh = FourierField.load(path / "torus.phi.bin").mesh
    FourierField.from_values(mesh, np.zeros(mesh.shape + (4,))).save(path / "torus.C.bin")


def _n_against_phi(meta, path):
    # C and B fit n = 1, but phi still holds 2 components
    meta.update(n=1, B=[[1.0]])
    _ones_field(FourierField.load(path / "torus.phi.bin").mesh, 1).save(path / "torus.C.bin")


class TestCorruptMetadata:
    """Artifacts whose metadata do not fit their data are refused with exit 5."""

    def _copy(self, run_dir, tmp_path, name, suffixes):
        out, _ = run_dir
        for suffix in suffixes:
            shutil.copy(out / f"{name}{suffix}", tmp_path / f"{name}{suffix}")
        return json.loads((out / f"{name}.json").read_text())

    def _refused(self, run_dir, tmp_path, capsys, prefix, load):
        _, config = run_dir
        with pytest.raises(ArtifactError):
            load(str(prefix))
        argv = ["verify", "--config", str(config), "--out", str(tmp_path), str(prefix)]
        assert cli.main(argv) == 5
        assert capsys.readouterr().err.startswith("error: ")
        # slice reads the whole artifact too, not just its coefficients
        dest = tmp_path / "s.csv"
        assert cli.main(["slice", str(prefix), "--output", str(dest)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not dest.exists()

    @pytest.mark.parametrize(
        "damage",
        [
            lambda meta, path: meta.pop("n"),
            lambda meta, path: meta.update(n=2.7),
            lambda meta, path: meta.update(n=3),
            _n_against_phi,
            lambda meta, path: meta.update(B=np.eye(3).tolist()),
            lambda meta, path: meta.update(rho=[0.4, 0.2]),
            lambda meta, path: meta["B"][0].__setitem__(0, np.nan),
            lambda meta, path: meta.update(rho=[np.inf]),
            _zero_change,
            lambda meta, path: meta.update(B=[[0.0, 0.0], [0.0, 2.0]]),
            lambda meta, path: meta.update(B=[[str(b) for b in row] for row in meta["B"]]),
            lambda meta, path: meta.update(rho=[str(r) for r in meta["rho"]]),
        ],
        ids=[
            "no-n",
            "n-not-integer",
            "n-against-C",
            "n-against-phi",
            "B-not-n-by-n",
            "rho-length",
            "B-nan",
            "rho-inf",
            "C-singular",
            "B-singular",
            "B-strings",
            "rho-strings",
        ],
    )
    def test_torus(self, run_dir, tmp_path, capsys, damage):
        meta = self._copy(run_dir, tmp_path, "torus", (".phi.bin", ".C.bin"))
        damage(meta, tmp_path)
        (tmp_path / "torus.json").write_text(json.dumps(meta))
        self._refused(run_dir, tmp_path, capsys, tmp_path / "torus", TorusSolution.load)

    def _resume_refused(self, run_dir, tmp_path, capsys, command):
        _, config = run_dir
        argv = [command, "--config", str(config), "--out", str(tmp_path / "o")]
        assert cli.main(argv + ["--resume", str(tmp_path / "torus")]) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["torus", "manifold"])
    def test_nan_floquet_matrix_seed_refused(self, run_dir, tmp_path, capsys, command):
        # a NaN in B stops --resume with one error line, not a LinAlgError traceback
        meta = self._copy(run_dir, tmp_path, "torus", (".phi.bin", ".C.bin"))
        meta["B"][0][0] = np.nan
        (tmp_path / "torus.json").write_text(json.dumps(meta))
        self._resume_refused(run_dir, tmp_path, capsys, command)

    @pytest.mark.parametrize("command", ["torus", "manifold"])
    def test_singular_change_seed_refused(self, run_dir, tmp_path, capsys, command):
        # so does a C that cannot be inverted
        meta = self._copy(run_dir, tmp_path, "torus", (".phi.bin",))
        _zero_change(meta, tmp_path)
        (tmp_path / "torus.json").write_text(json.dumps(meta))
        self._resume_refused(run_dir, tmp_path, capsys, command)

    @pytest.mark.parametrize(
        "damage",
        [
            lambda meta, path: meta.pop("branch"),
            lambda meta, path: meta.update(branch="sideways"),
            lambda meta, path: _ones_field(MeshSpec((15,)), 2).save(path / "manifold_stable.a2.bin"),
            lambda meta, path: _ones_field(MeshSpec((31,)), 3).save(path / "manifold_stable.a2.bin"),
            lambda meta, path: meta.update(v=[1.0, 0.0, 0.0]),
            lambda meta, path: meta.update(rho=[0.4, 0.2]),
            lambda meta, path: meta.update(order=0),
            lambda meta, path: meta.update(order=2.5),
            lambda meta, path: meta.update({"lambda": np.nan}),
            lambda meta, path: meta.update({"lambda": 2.0}),
            lambda meta, path: meta.update({"lambda": 0.0}),
            lambda meta, path: meta.update(scaling=np.inf),
            lambda meta, path: meta.update(scaling=0.0),
            lambda meta, path: meta.update(scaling=-1.0),
            lambda meta, path: meta["v"].__setitem__(1, np.nan),
            lambda meta, path: meta.update({"lambda": str(meta["lambda"])}),
            lambda meta, path: meta.update(scaling=str(meta["scaling"])),
            lambda meta, path: meta.update(v=[str(x) for x in meta["v"]]),
            lambda meta, path: meta.update(rho=[str(r) for r in meta["rho"]]),
            lambda meta, path: meta.update({"lambda": [meta["lambda"]]}),
        ],
        ids=[
            "no-branch",
            "unknown-branch",
            "a2-mesh",
            "a2-size",
            "v-length",
            "rho-length",
            "order-0",
            "order-not-integer",
            "lambda-nan",
            "lambda-outside-circle",
            "lambda-0",
            "scaling-inf",
            "scaling-0",
            "scaling-negative",
            "v-nan",
            "lambda-string",
            "scaling-string",
            "v-strings",
            "rho-strings",
            "lambda-list",
        ],
    )
    def test_manifold(self, run_dir, tmp_path, capsys, damage):
        name = "manifold_stable"
        meta = self._copy(run_dir, tmp_path, name, [f".a{k}.bin" for k in range(5)])
        damage(meta, tmp_path)
        (tmp_path / f"{name}.json").write_text(json.dumps(meta))
        self._refused(run_dir, tmp_path, capsys, tmp_path / name, ManifoldExpansion.load)

    def test_unstable_lambda_inside_circle(self, run_dir, tmp_path, capsys):
        # an unstable branch whose multiplier contracts is refused, not tested
        name = "manifold_unstable"
        meta = self._copy(run_dir, tmp_path, name, [f".a{k}.bin" for k in range(5)])
        meta["lambda"] = 0.5
        (tmp_path / f"{name}.json").write_text(json.dumps(meta))
        self._refused(run_dir, tmp_path, capsys, tmp_path / name, ManifoldExpansion.load)


class TestManifoldFormat:
    @pytest.fixture
    def old_artifact(self, run_dir, tmp_path):
        """The stable manifold artifact with its JSON stripped of the format version."""
        out, _ = run_dir
        for k in range(5):
            shutil.copy(out / f"manifold_stable.a{k}.bin", tmp_path / f"manifold_stable.a{k}.bin")
        meta = json.loads((out / "manifold_stable.json").read_text())
        del meta["format"]
        (tmp_path / "manifold_stable.json").write_text(json.dumps(meta))
        return tmp_path / "manifold_stable"

    def test_verify_refuses(self, run_dir, old_artifact, tmp_path, capsys):
        _, config = run_dir
        argv = ["verify", "--config", str(config), "--out", str(tmp_path), str(old_artifact)]
        assert cli.main(argv) == 5
        assert "has format None" in capsys.readouterr().err

    def test_slice_refuses(self, old_artifact, tmp_path, capsys):
        argv = ["slice", str(old_artifact), "--output", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 5
        assert "has format None" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command", ["verify", "slice"])
    @pytest.mark.parametrize(
        "text", ["[]", "null", "1", '"x"'], ids=["list", "null", "number", "string"]
    )
    def test_json_not_an_object_refused(
        self, run_dir, old_artifact, tmp_path, capsys, command, text
    ):
        _, config = run_dir
        (tmp_path / "manifold_stable.json").write_text(text)  # the coefficients stay
        if command == "verify":
            argv = ["verify", "--config", str(config), "--out", str(tmp_path), str(old_artifact)]
        else:
            argv = ["slice", str(old_artifact), "--output", str(tmp_path / "s.csv")]
        assert cli.main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "command, squatted",
        [
            ("torus", "torus.phi.bin"),
            ("manifold", "manifold_unstable.a0.bin"),
            ("verify", "verify_report.json"),
        ],
        ids=["torus", "manifold", "verify"],
    )
    def test_directory_in_the_way(self, run_dir, tmp_path, capsys, command, squatted):
        # refused with exit 5 when the file is written, after the computation
        out, config = run_dir
        (tmp_path / squatted).mkdir()
        argv = [command, "--config", str(config), "--out", str(tmp_path)]
        if command == "manifold":
            argv += ["--resume", str(out / "torus")]
        elif command == "verify":
            argv.append(str(out / "torus"))
        assert cli.main(argv) == 5
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and squatted in err


class TestDeterminism:
    def test_workers_do_not_change_results(self, run_dir, tmp_path):
        # same torus run with a 2-process pool: coefficients must be identical
        out, config = run_dir
        out2 = tmp_path / "run2"
        out2.mkdir()
        try:
            rc = cli.main(
                ["torus", "--config", str(config), "--out", str(out2), "--threads", "2"]
            )
        finally:
            parallel.set_workers(1)
        assert rc == 0
        a = FourierField.load(out / "torus.phi.bin")
        b = FourierField.load(out2 / "torus.phi.bin")
        assert np.abs(a.coeffs - b.coeffs).max() <= 1e-13
